// Rabin irreducibility test: known irreducible / reducible polynomials,
// including all standards-track moduli the paper leans on, exhaustive counts
// against Gauss's formula, and a differential check against a bit-serial
// Rabin predicate built only from Poly::pow2k_mod and Poly::gcd.

#include "gf2/gf2_poly.h"
#include "gf2/irreducibility.h"
#include "gf2/pentanomial.h"

#include "testutil.h"  // AllocationGuard

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

namespace gfr::gf2 {
namespace {

TEST(PrimeFactors, SmallValues) {
    EXPECT_EQ(distinct_prime_factors(1), (std::vector<int>{}));
    EXPECT_EQ(distinct_prime_factors(2), (std::vector<int>{2}));
    EXPECT_EQ(distinct_prime_factors(8), (std::vector<int>{2}));
    EXPECT_EQ(distinct_prime_factors(12), (std::vector<int>{2, 3}));
    EXPECT_EQ(distinct_prime_factors(163), (std::vector<int>{163}));
    EXPECT_EQ(distinct_prime_factors(113), (std::vector<int>{113}));
    EXPECT_EQ(distinct_prime_factors(148), (std::vector<int>{2, 37}));
    EXPECT_THROW(distinct_prime_factors(0), std::invalid_argument);
}

TEST(Irreducibility, DegreeZeroAndOne) {
    EXPECT_FALSE(is_irreducible(Poly{}));
    EXPECT_FALSE(is_irreducible(Poly::one()));
    EXPECT_TRUE(is_irreducible(Poly::monomial(1)));                  // y
    EXPECT_TRUE(is_irreducible(Poly::from_exponents({1, 0})));       // y + 1
}

TEST(Irreducibility, DegreeTwo) {
    EXPECT_TRUE(is_irreducible(Poly::from_exponents({2, 1, 0})));    // y^2+y+1
    EXPECT_FALSE(is_irreducible(Poly::from_exponents({2, 0})));      // (y+1)^2
    EXPECT_FALSE(is_irreducible(Poly::from_exponents({2, 1})));      // y(y+1)
    EXPECT_FALSE(is_irreducible(Poly::from_exponents({2})));         // y^2
}

TEST(Irreducibility, AllDegreeThree) {
    // The two irreducible cubics over GF(2) are y^3+y+1 and y^3+y^2+1.
    int count = 0;
    for (int bits = 0; bits < 8; ++bits) {
        Poly p = Poly::monomial(3);
        for (int k = 0; k < 3; ++k) {
            if ((bits >> k) & 1) {
                p.set_coeff(k, true);
            }
        }
        if (is_irreducible(p)) {
            ++count;
            EXPECT_TRUE(p == Poly::from_exponents({3, 1, 0}) ||
                        p == Poly::from_exponents({3, 2, 0}));
        }
    }
    EXPECT_EQ(count, 2);
}

TEST(Irreducibility, CountDegree8) {
    // Number of monic irreducible octics over GF(2) is
    // (1/8) * sum_{d|8} mu(8/d) 2^d = (2^8 - 2^4)/8 = 30.
    int count = 0;
    for (int bits = 0; bits < 256; ++bits) {
        Poly p = Poly::monomial(8);
        for (int k = 0; k < 8; ++k) {
            if ((bits >> k) & 1) {
                p.set_coeff(k, true);
            }
        }
        if (is_irreducible(p)) {
            ++count;
        }
    }
    EXPECT_EQ(count, 30);
}

TEST(Irreducibility, PaperGf256Modulus) {
    EXPECT_TRUE(is_irreducible(Poly::from_exponents({8, 4, 3, 2, 0})));
}

TEST(Irreducibility, AesModulus) {
    // The AES polynomial y^8+y^4+y^3+y+1 is irreducible (but NOT type II).
    EXPECT_TRUE(is_irreducible(Poly::from_exponents({8, 4, 3, 1, 0})));
}

TEST(Irreducibility, NistEcdsaStandardModuli) {
    // The actual NIST ECDSA moduli (trinomials/pentanomials from FIPS 186-4).
    EXPECT_TRUE(is_irreducible(Poly::from_exponents({163, 7, 6, 3, 0})));
    EXPECT_TRUE(is_irreducible(Poly::from_exponents({233, 74, 0})));
    EXPECT_TRUE(is_irreducible(Poly::from_exponents({283, 12, 7, 5, 0})));
    EXPECT_TRUE(is_irreducible(Poly::from_exponents({409, 87, 0})));
    EXPECT_TRUE(is_irreducible(Poly::from_exponents({571, 10, 5, 2, 0})));
}

TEST(Irreducibility, ProductsAreRejected) {
    const Poly f1 = Poly::from_exponents({8, 4, 3, 2, 0});
    const Poly f2 = Poly::from_exponents({3, 1, 0});
    EXPECT_FALSE(is_irreducible(f1 * f2));
    EXPECT_FALSE(is_irreducible(f1 * f1));
    EXPECT_FALSE(is_irreducible(f2 * f2));
}

TEST(Irreducibility, EvenWeightAlwaysReducible) {
    // Even number of terms => divisible by (y+1).
    EXPECT_FALSE(is_irreducible(Poly::from_exponents({9, 4, 3, 0})));
    EXPECT_FALSE(is_irreducible(Poly::from_exponents({16, 5})));
}

/// Moebius function mu(n) for n >= 1.
int moebius(int n) {
    int mu = 1;
    for (int p = 2; p * p <= n; ++p) {
        if (n % p == 0) {
            n /= p;
            if (n % p == 0) {
                return 0;
            }
            mu = -mu;
        }
    }
    return n > 1 ? -mu : mu;
}

/// Gauss's count of monic irreducible polynomials of degree n >= 1 over
/// GF(2): (1/n) * sum over d | n of mu(d) * 2^(n/d).
long gauss_count(int n) {
    long sum = 0;
    for (int d = 1; d <= n; ++d) {
        if (n % d == 0) {
            sum += moebius(d) * (1L << (n / d));
        }
    }
    return sum / n;
}

TEST(Irreducibility, CountsMatchGaussFormulaThroughDegree16) {
    // Every bit pattern of up to 17 bits: every polynomial of degree <= 16,
    // the dense moduli included (they re-spill through the generic fold).
    constexpr int kMaxDegree = 16;
    std::vector<long> count(kMaxDegree + 1, 0);
    for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << (kMaxDegree + 1)); ++bits) {
        if (is_irreducible(Poly::from_words({bits}))) {
            ++count[static_cast<std::size_t>(std::bit_width(bits) - 1)];
        }
    }
    EXPECT_EQ(count[0], 0);  // constants are not irreducible
    for (int n = 1; n <= kMaxDegree; ++n) {
        EXPECT_EQ(count[static_cast<std::size_t>(n)], gauss_count(n)) << "degree " << n;
    }
    EXPECT_EQ(gauss_count(15), 2182);
    EXPECT_EQ(gauss_count(16), 4080);
}

/// Rabin's test spelled with the bit-serial Poly reference only: m modular
/// squarings through Poly::pow2k_mod for condition (1), then one more
/// Frobenius power and Poly::gcd per prime p of m for condition (2).
bool bit_serial_rabin(const Poly& f) {
    const int m = f.degree();
    if (m <= 0) {
        return false;
    }
    if (m == 1) {
        return true;
    }
    if (!f.coeff(0) || f.weight() % 2 == 0) {
        return false;
    }

    const Poly y = Poly::monomial(1);

    if (Poly::pow2k_mod(y, m, f) != y % f) {
        return false;
    }
    for (const int p : distinct_prime_factors(m)) {
        const Poly g = Poly::pow2k_mod(y, m / p, f) + y;
        if (!Poly::gcd(g, f).is_one()) {
            return false;
        }
    }
    return true;
}

TEST(Irreducibility, MatchesBitSerialRabinOnTypeIICandidates) {
    // Every type II candidate with m <= 128.  On PCLMUL builds the ones with
    // n + 2 < m - 63 take the cluster fold; the rest take the tail fold.
    int candidates = 0;
    int irreducible = 0;
    for (int m = 6; m <= 128; ++m) {
        for (int n = 2; n <= m / 2 - 1; ++n) {
            const Poly f = TypeIIPentanomial{m, n}.poly();
            const bool expected = bit_serial_rabin(f);
            EXPECT_EQ(is_irreducible(f), expected) << "(m,n)=(" << m << "," << n << ")";
            ++candidates;
            irreducible += expected ? 1 : 0;
        }
    }
    EXPECT_EQ(candidates, 3844);
    EXPECT_EQ(irreducible, 173);
}

TEST(Irreducibility, MatchesBitSerialRabinOnTrinomialsAndTypeIPentanomials) {
    // Every trinomial y^m + y^k + 1 and type I pentanomial with m in [6, 96]:
    // the families whose small factors the degree 2-5 pre-check rejects
    // before the chain, beside the type II sweep above.  Counts recorded
    // with the chain-only test.
    int trinomials = 0;
    int irreducible_trinomials = 0;
    int type1 = 0;
    int irreducible_type1 = 0;
    for (int m = 6; m <= 96; ++m) {
        for (int k = 1; k < m; ++k) {
            const Poly f = Poly::from_exponents({m, k, 0});
            const bool expected = bit_serial_rabin(f);
            EXPECT_EQ(is_irreducible(f), expected) << "y^" << m << " + y^" << k << " + 1";
            ++trinomials;
            irreducible_trinomials += expected ? 1 : 0;
        }
        for (int n = 2; n <= m - 3; ++n) {
            const Poly f = TypeIPentanomial{m, n}.poly();
            const bool expected = bit_serial_rabin(f);
            EXPECT_EQ(is_irreducible(f), expected) << "type I (m,n)=(" << m << "," << n << ")";
            ++type1;
            irreducible_type1 += expected ? 1 : 0;
        }
    }
    EXPECT_EQ(trinomials, 4550);
    EXPECT_EQ(irreducible_trinomials, 247);
    EXPECT_EQ(type1, 4277);
    EXPECT_EQ(irreducible_type1, 318);
}

TEST(Irreducibility, ChainAllocatesPerCallNotPerSquaring) {
    // 571 squarings each: one irreducible (the NIST-degree search's answer)
    // and one reducible candidate with no factor of degree <= 5, so it
    // passes the pre-check and fails condition (1).
    for (const int n : {103, 4}) {
        const Poly f = TypeIIPentanomial{571, n}.poly();
        const testutil::AllocationGuard guard;
        const bool irreducible = is_irreducible(f);
        EXPECT_LE(guard.delta(), 64) << "(571," << n << ")";
        EXPECT_EQ(irreducible, n == 103);
    }
}

}  // namespace
}  // namespace gfr::gf2
