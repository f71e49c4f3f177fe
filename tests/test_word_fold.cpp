// gf2::WordFold, the word-span reduction under field::FieldOps and
// gf2::is_irreducible, against Poly's bit-serial remainder: dense, sparse
// and type II moduli at and around the word boundaries, on spans of the
// minimum length, of a product's length and longer.

#include "gf2/word_fold.h"

#include "gf2/gf2_poly.h"
#include "gf2/pentanomial.h"
#include "testutil.h"  // PRNG and random polynomials

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace gfr::gf2 {
namespace {

/// Moduli of degree m in every shape the fold distinguishes: y^m alone (no
/// tails), a trinomial, a type II pentanomial (the cluster fold on PCLMUL
/// builds once n + 2 < m - 63), and dense random tails (re-spills).
std::vector<Poly> moduli_of_degree(int m, testutil::Xorshift64Star& rng) {
    std::vector<Poly> out{Poly::monomial(m), Poly::from_exponents({m, m / 2, 0})};
    if (TypeIIPentanomial::valid_parameters(m, 2)) {
        out.push_back(TypeIIPentanomial{m, 2}.poly());
        out.push_back(TypeIIPentanomial{m, m / 2 - 1}.poly());
    }
    for (int k = 0; k < 3; ++k) {
        out.push_back(Poly::monomial(m) + testutil::random_poly(rng, m));
    }
    return out;
}

TEST(WordFold, MatchesPolyRemainder) {
    testutil::Xorshift64Star rng{59};
    for (const int m : {1, 2, 3, 17, 63, 64, 65, 127, 128, 129, 200, 255, 256, 571}) {
        const auto mw = static_cast<std::size_t>(m + 63) / 64;
        for (const Poly& f : moduli_of_degree(m, rng)) {
            const WordFold fold{f};
            for (const std::size_t pn : {mw + 1, 2 * mw, 3 * mw + 2}) {
                for (int trial = 0; trial < 4; ++trial) {
                    std::vector<std::uint64_t> p(pn);
                    for (auto& w : p) {
                        w = rng.next();
                    }
                    const Poly expected = Poly::from_words(p) % f;
                    fold.reduce_words(p.data(), pn);
                    EXPECT_EQ(Poly::from_words(p), expected)
                        << f.to_string() << ", " << pn << " words";
                    for (std::size_t i = mw; i < pn; ++i) {
                        EXPECT_EQ(p[i], 0U) << "word " << i << " of " << f.to_string();
                    }
                }
            }
        }
    }
}

}  // namespace
}  // namespace gfr::gf2
