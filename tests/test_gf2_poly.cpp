// Unit and property tests for the GF(2)[y] polynomial substrate.

#include "gf2/gf2_poly.h"

#include "testutil.h"  // shared PRNG + random polynomial generator

#include <gtest/gtest.h>

namespace gfr::gf2 {
namespace {

/// Random polynomial of varying length, degree < max_degree + 1 (the shared
/// generator, with the bound jittered so short and empty operands appear).
Poly varied_poly(testutil::Xorshift64Star& rng, int max_degree) {
    const int bits = static_cast<int>(rng() % static_cast<std::uint64_t>(max_degree + 2));
    return testutil::random_poly(rng, bits);
}

TEST(Gf2Poly, ZeroProperties) {
    const Poly z;
    EXPECT_TRUE(z.is_zero());
    EXPECT_EQ(z.degree(), -1);
    EXPECT_EQ(z.weight(), 0);
    EXPECT_TRUE(z.support().empty());
    EXPECT_EQ(z.to_string(), "0");
}

TEST(Gf2Poly, MonomialBasics) {
    const Poly m0 = Poly::monomial(0);
    EXPECT_TRUE(m0.is_one());
    EXPECT_EQ(m0.degree(), 0);
    const Poly m100 = Poly::monomial(100);
    EXPECT_EQ(m100.degree(), 100);
    EXPECT_EQ(m100.weight(), 1);
    EXPECT_TRUE(m100.coeff(100));
    EXPECT_FALSE(m100.coeff(99));
    EXPECT_FALSE(m100.coeff(101));
}

TEST(Gf2Poly, MonomialNegativeThrows) {
    EXPECT_THROW(Poly::monomial(-1), std::invalid_argument);
}

TEST(Gf2Poly, FromExponentsDuplicatesCancel) {
    const Poly p = Poly::from_exponents({3, 1, 3});
    EXPECT_EQ(p, Poly::monomial(1));
}

TEST(Gf2Poly, FromWordsNormalises) {
    const Poly p = Poly::from_words({0x5, 0x0, 0x0});
    EXPECT_EQ(p.degree(), 2);
    EXPECT_EQ(p.words().size(), 1U);
}

TEST(Gf2Poly, EmptyWordsAreZero) {
    // An empty span's data() is null: assigning one must not hand it to
    // memmove (checked under -fsanitize=undefined).
    Poly p = Poly::from_exponents({70, 3});
    p.assign_words(std::span<const std::uint64_t>{});
    EXPECT_TRUE(p.is_zero());
    EXPECT_EQ(p.degree(), -1);
    EXPECT_TRUE(p.words().empty());

    const Poly q = Poly::from_words({});
    EXPECT_TRUE(q.is_zero());
    EXPECT_EQ(q, Poly{});
}

TEST(Gf2Poly, PaperModulusToString) {
    const Poly f = Poly::from_exponents({8, 4, 3, 2, 0});
    EXPECT_EQ(f.to_string(), "y^8 + y^4 + y^3 + y^2 + 1");
    EXPECT_EQ(f.degree(), 8);
    EXPECT_EQ(f.weight(), 5);
    EXPECT_EQ(f.support(), (std::vector<int>{0, 2, 3, 4, 8}));
}

TEST(Gf2Poly, AdditionIsXor) {
    const Poly a = Poly::from_exponents({5, 3, 0});
    const Poly b = Poly::from_exponents({5, 2, 0});
    EXPECT_EQ(a + b, Poly::from_exponents({3, 2}));
}

TEST(Gf2Poly, AdditionSelfInverse) {
    testutil::Xorshift64Star rng{7};
    for (int trial = 0; trial < 50; ++trial) {
        const Poly a = varied_poly(rng, 200);
        EXPECT_TRUE((a + a).is_zero());
        EXPECT_EQ(a + Poly{}, a);
    }
}

TEST(Gf2Poly, ShiftLeftRightRoundTrip) {
    testutil::Xorshift64Star rng{11};
    for (int trial = 0; trial < 50; ++trial) {
        const Poly a = varied_poly(rng, 150);
        const int s = static_cast<int>(rng() % 130);
        EXPECT_EQ((a << s) >> s, a) << "shift " << s;
        if (!a.is_zero()) {
            EXPECT_EQ((a << s).degree(), a.degree() + s);
        }
    }
}

TEST(Gf2Poly, MultiplicationSmallKnown) {
    // (y + 1)^2 = y^2 + 1 over GF(2)
    const Poly y1 = Poly::from_exponents({1, 0});
    EXPECT_EQ(y1 * y1, Poly::from_exponents({2, 0}));
    // (y^2 + y + 1)(y + 1) = y^3 + 1
    const Poly a = Poly::from_exponents({2, 1, 0});
    EXPECT_EQ(a * y1, Poly::from_exponents({3, 0}));
}

TEST(Gf2Poly, MultiplicationDegreeAndCommutativity) {
    testutil::Xorshift64Star rng{13};
    for (int trial = 0; trial < 50; ++trial) {
        const Poly a = varied_poly(rng, 120);
        const Poly b = varied_poly(rng, 120);
        EXPECT_EQ(a * b, b * a);
        if (!a.is_zero() && !b.is_zero()) {
            EXPECT_EQ((a * b).degree(), a.degree() + b.degree());
        }
    }
}

TEST(Gf2Poly, MultiplicationDistributesOverAddition) {
    testutil::Xorshift64Star rng{17};
    for (int trial = 0; trial < 50; ++trial) {
        const Poly a = varied_poly(rng, 100);
        const Poly b = varied_poly(rng, 100);
        const Poly c = varied_poly(rng, 100);
        EXPECT_EQ(a * (b + c), a * b + a * c);
    }
}

TEST(Gf2Poly, MultiplicationAssociativity) {
    testutil::Xorshift64Star rng{19};
    for (int trial = 0; trial < 20; ++trial) {
        const Poly a = varied_poly(rng, 70);
        const Poly b = varied_poly(rng, 70);
        const Poly c = varied_poly(rng, 70);
        EXPECT_EQ((a * b) * c, a * (b * c));
    }
}

TEST(Gf2Poly, SquareMatchesSelfProduct) {
    testutil::Xorshift64Star rng{23};
    for (int trial = 0; trial < 50; ++trial) {
        const Poly a = varied_poly(rng, 150);
        EXPECT_EQ(a.square(), a * a);
    }
}

TEST(Gf2Poly, SquareIsFrobenius) {
    // (a + b)^2 = a^2 + b^2 in characteristic 2.
    testutil::Xorshift64Star rng{29};
    for (int trial = 0; trial < 30; ++trial) {
        const Poly a = varied_poly(rng, 100);
        const Poly b = varied_poly(rng, 100);
        EXPECT_EQ((a + b).square(), a.square() + b.square());
    }
}

TEST(Gf2Poly, DivmodIdentity) {
    testutil::Xorshift64Star rng{31};
    for (int trial = 0; trial < 100; ++trial) {
        const Poly num = varied_poly(rng, 180);
        Poly den = varied_poly(rng, 60);
        if (den.is_zero()) {
            den = Poly::one();
        }
        const auto [q, r] = Poly::divmod(num, den);
        EXPECT_EQ(q * den + r, num);
        if (!r.is_zero()) {
            EXPECT_LT(r.degree(), den.degree());
        }
    }
}

TEST(Gf2Poly, ModMatchesDivmodRemainder) {
    testutil::Xorshift64Star rng{43};
    int shorter_numerators = 0;
    for (int trial = 0; trial < 200; ++trial) {
        const Poly a = varied_poly(rng, 300);
        Poly b = varied_poly(rng, 200);
        if (b.is_zero()) {
            b = Poly::one();
        }
        shorter_numerators += a.degree() < b.degree() ? 1 : 0;
        EXPECT_EQ(a % b, Poly::divmod(a, b).second) << "trial " << trial;
    }
    EXPECT_GT(shorter_numerators, 0);  // deg a < deg b: a % b is a itself
    EXPECT_EQ(Poly::from_exponents({5, 1}) % Poly::from_exponents({9, 0}),
              Poly::from_exponents({5, 1}));
    EXPECT_THROW((void)(Poly::one() % Poly{}), std::invalid_argument);
}

TEST(Gf2Poly, DivisionByZeroThrows) {
    EXPECT_THROW(Poly::divmod(Poly::one(), Poly{}), std::invalid_argument);
}

TEST(Gf2Poly, ModKnownValue) {
    // x^8 mod (x^8+x^4+x^3+x^2+1) = x^4+x^3+x^2+1 — the paper's first Q row.
    const Poly f = Poly::from_exponents({8, 4, 3, 2, 0});
    EXPECT_EQ(Poly::monomial(8) % f, Poly::from_exponents({4, 3, 2, 0}));
}

TEST(Gf2Poly, GcdBasics) {
    const Poly a = Poly::from_exponents({3, 0});        // y^3+1 = (y+1)(y^2+y+1)
    const Poly b = Poly::from_exponents({2, 0});        // y^2+1 = (y+1)^2
    EXPECT_EQ(Poly::gcd(a, b), Poly::from_exponents({1, 0}));
    EXPECT_EQ(Poly::gcd(a, Poly{}), a);
    EXPECT_EQ(Poly::gcd(Poly{}, b), b);
}

TEST(Gf2Poly, GcdDividesBoth) {
    testutil::Xorshift64Star rng{37};
    for (int trial = 0; trial < 40; ++trial) {
        const Poly a = varied_poly(rng, 80);
        const Poly b = varied_poly(rng, 80);
        const Poly g = Poly::gcd(a, b);
        if (g.is_zero()) {
            EXPECT_TRUE(a.is_zero());
            EXPECT_TRUE(b.is_zero());
            continue;
        }
        EXPECT_TRUE((a % g).is_zero());
        EXPECT_TRUE((b % g).is_zero());
    }
}

TEST(Gf2Poly, MulmodMatchesTwoStep) {
    testutil::Xorshift64Star rng{41};
    const Poly f = Poly::from_exponents({64, 25, 24, 23, 0});
    for (int trial = 0; trial < 40; ++trial) {
        const Poly a = varied_poly(rng, 63);
        const Poly b = varied_poly(rng, 63);
        EXPECT_EQ(Poly::mulmod(a, b, f), (a * b) % f);
    }
}

TEST(Gf2Poly, Pow2kModMatchesRepeatedSquaring) {
    const Poly f = Poly::from_exponents({8, 4, 3, 2, 0});
    const Poly y = Poly::monomial(1);
    Poly acc = y;
    for (int k = 0; k <= 10; ++k) {
        EXPECT_EQ(Poly::pow2k_mod(y, k, f), acc) << "k=" << k;
        acc = Poly::sqrmod(acc, f);
    }
}

TEST(Gf2Poly, FermatOnFieldPolynomial) {
    // y^(2^8) = y mod f for irreducible f of degree 8.
    const Poly f = Poly::from_exponents({8, 4, 3, 2, 0});
    const Poly y = Poly::monomial(1);
    EXPECT_EQ(Poly::pow2k_mod(y, 8, f), y);
}

TEST(Gf2Poly, SetClearCoeff) {
    Poly p;
    p.set_coeff(70, true);
    EXPECT_EQ(p.degree(), 70);
    p.set_coeff(70, false);
    EXPECT_TRUE(p.is_zero());
    EXPECT_THROW(p.set_coeff(-1, true), std::invalid_argument);
}

TEST(Gf2Poly, WordBoundaryShifts) {
    // Exercise shifts landing exactly on 64-bit word boundaries.
    const Poly p = Poly::from_exponents({63, 1, 0});
    EXPECT_EQ((p << 64).degree(), 127);
    EXPECT_EQ((p << 64) >> 64, p);
    EXPECT_EQ((p << 1).degree(), 64);
    EXPECT_TRUE((p << 1).coeff(64));
}

}  // namespace
}  // namespace gfr::gf2
