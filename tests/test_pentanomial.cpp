// Type II pentanomials: parameter validity, irreducibility of every field
// used in the paper's Table V, and the paper's NIST ECDSA claim.

#include "gf2/irreducibility.h"
#include "gf2/pentanomial.h"

#include "testutil.h"  // Fingerprint

#include <gtest/gtest.h>

namespace gfr::gf2 {
namespace {

TEST(TypeIIPentanomial, ParameterValidity) {
    EXPECT_TRUE(TypeIIPentanomial::valid_parameters(8, 2));
    EXPECT_TRUE(TypeIIPentanomial::valid_parameters(8, 3));
    EXPECT_FALSE(TypeIIPentanomial::valid_parameters(8, 4));   // n > m/2 - 1
    EXPECT_FALSE(TypeIIPentanomial::valid_parameters(8, 1));   // n < 2
    EXPECT_FALSE(TypeIIPentanomial::valid_parameters(5, 2));   // m too small: n > 5/2-1
    EXPECT_TRUE(TypeIIPentanomial::valid_parameters(163, 66));
    EXPECT_TRUE(TypeIIPentanomial::valid_parameters(163, 68));
    EXPECT_FALSE(TypeIIPentanomial::valid_parameters(163, 81));
    EXPECT_TRUE(TypeIIPentanomial::valid_parameters(163, 80));
}

TEST(TypeIIPentanomial, PolyShape) {
    const Poly f = TypeIIPentanomial{8, 2}.poly();
    EXPECT_EQ(f, Poly::from_exponents({8, 4, 3, 2, 0}));
    EXPECT_EQ(f.weight(), 5);
    EXPECT_THROW((TypeIIPentanomial{8, 7}.poly()), std::invalid_argument);
}

struct PaperField {
    int m;
    int n;
};

class PaperFieldIrreducibility : public ::testing::TestWithParam<PaperField> {};

TEST_P(PaperFieldIrreducibility, IsIrreducible) {
    const auto [m, n] = GetParam();
    EXPECT_TRUE(is_type2_irreducible(m, n)) << "(m,n)=(" << m << "," << n << ")";
}

INSTANTIATE_TEST_SUITE_P(AllTable5Fields, PaperFieldIrreducibility,
                         ::testing::Values(PaperField{8, 2}, PaperField{64, 23},
                                           PaperField{113, 4}, PaperField{113, 34},
                                           PaperField{122, 49}, PaperField{139, 59},
                                           PaperField{148, 72}, PaperField{163, 66},
                                           PaperField{163, 68}),
                         [](const auto& info) {
                             return "m" + std::to_string(info.param.m) + "n" +
                                    std::to_string(info.param.n);
                         });

TEST(TypeIIPentanomial, Gf28HasExactlyTwo) {
    // For m = 8 the valid range is n in {2, 3}; both yield irreducible
    // pentanomials (y^8+y^4+y^3+y^2+1 and y^8+y^5+y^4+y^3+1).
    EXPECT_EQ(type2_irreducible_ns(8), (std::vector<int>{2, 3}));
}

TEST(TypeIIPentanomial, Gf163IncludesPaperChoices) {
    const auto ns = type2_irreducible_ns(163);
    EXPECT_FALSE(ns.empty());
    EXPECT_NE(std::find(ns.begin(), ns.end(), 66), ns.end());
    EXPECT_NE(std::find(ns.begin(), ns.end(), 68), ns.end());
}

TEST(TypeIIPentanomial, NistEcdsaDegreesAllAdmitTypeII) {
    // The paper's motivating claim: "all five binary fields recommended by
    // NIST for ECDSA can be constructed using such polynomials".
    for (const int m : {163, 233, 283, 409, 571}) {
        const auto penta = first_type2_irreducible(m);
        ASSERT_TRUE(penta.has_value()) << "m=" << m;
        EXPECT_TRUE(is_irreducible(penta->poly()));
    }
}

TEST(TypeIIPentanomial, FirstReturnsSmallestN) {
    const auto penta = first_type2_irreducible(8);
    ASSERT_TRUE(penta.has_value());
    EXPECT_EQ(penta->n, 2);
}

TEST(TypeIIPentanomial, SomeDegreesHaveNone) {
    // Degree 6: candidates n=2 only: y^6+y^4+y^3+y^2+1 = (y^2+y+1)^3 reducible.
    EXPECT_TRUE(type2_irreducible_ns(6).empty());
    EXPECT_FALSE(first_type2_irreducible(6).has_value());
}

TEST(TypeIIPentanomial, InvalidParametersNeverIrreducible) {
    EXPECT_FALSE(is_type2_irreducible(8, 1));
    EXPECT_FALSE(is_type2_irreducible(8, 4));
    EXPECT_FALSE(is_type2_irreducible(4, 2));
}

TEST(TypeIIPentanomial, FirstNPinnedThroughDegree300) {
    // The modulus every degree's search returns: (m, n) per degree, or
    // (m, 0) where no type II pentanomial is irreducible.
    testutil::Fingerprint fp;
    int none = 0;
    for (int m = 6; m <= 300; ++m) {
        const auto penta = first_type2_irreducible(m);
        fp.feed(static_cast<std::uint64_t>(m));
        fp.feed(penta ? static_cast<std::uint64_t>(penta->n) : 0);
        none += penta ? 0 : 1;
    }
    EXPECT_EQ(none, 122);
    EXPECT_EQ(fp.value(), 0xe869ff0abe41e2ccULL);
}

}  // namespace
}  // namespace gfr::gf2
