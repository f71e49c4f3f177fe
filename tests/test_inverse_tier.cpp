// Differential property tests for the large-field inversion tier.
//
// Field::inv now runs the engine's Itoh-Tsujii addition chain, its longest
// steps on multi-squaring tables; this file pins it, on every Table V
// catalog field, on the large differential degrees {127, 192, 256, 409, 571,
// 1024} and at the tables' window and word boundaries, against the two
// structurally independent inverses the repo keeps for exactly this purpose:
//
//   - inv_euclid: extended Euclid over generic divmod (the seed's path);
//   - inv_fermat: the plain square-and-multiply ladder.
//
// Cross-checking three algorithms that share no code is the differential
// anchor recommended by the formal GF(2^m) verification literature (Yu &
// Ciesielski, arXiv:1802.06870): a bug in the chain, the Karatsuba product
// underneath it, or the fold-based reduction cannot agree with Euclid over
// bit-serial divmod by accident.

#include "field/field_ops.h"
#include "field/gf2m.h"
#include "testutil.h"

#include <gtest/gtest.h>

namespace gfr::field {
namespace {

using gf2::Poly;
using testutil::Xorshift64Star;

void check_inverse_properties(const Field& f, std::uint64_t seed, int trials) {
    Xorshift64Star rng{seed};
    for (int trial = 0; trial < trials; ++trial) {
        const Poly a = testutil::random_nonzero_element(f, rng);
        const Poly ia = f.inv(a);
        // Defining property first: a * a^-1 == 1 under the *reference* mul.
        EXPECT_EQ(f.mul_reference(a, ia), f.one()) << f.to_string();
        // Then agreement with both independent algorithms.
        EXPECT_EQ(ia, f.inv_euclid(a)) << f.to_string();
        EXPECT_EQ(ia, f.inv_fermat(a)) << f.to_string();
        // Inverse is an involution.
        EXPECT_EQ(f.inv(ia), a) << f.to_string();
    }
    // 1^-1 == 1, and (y)^-1 * y == 1.
    EXPECT_EQ(f.inv(f.one()), f.one());
    const Poly y = f.from_bits(2);
    EXPECT_EQ(f.mul(y, f.inv(y)), f.one());
}

void check_zero_throws_on_every_path(const Field& f) {
    const Poly zero = f.zero();
    EXPECT_THROW(static_cast<void>(f.inv(zero)), std::invalid_argument);
    EXPECT_THROW(static_cast<void>(f.inv_euclid(zero)), std::invalid_argument);
    EXPECT_THROW(static_cast<void>(f.inv_fermat(zero)), std::invalid_argument);
    Poly out;
    EXPECT_THROW(f.ops().inv(zero, out), std::invalid_argument);
    if (f.ops().single_word()) {
        EXPECT_THROW(static_cast<void>(f.ops().inv(0)), std::invalid_argument);
        EXPECT_THROW(static_cast<void>(f.ops().inv_fermat(0)), std::invalid_argument);
    } else {
        // A nonzero representative that reduces to zero mod f must throw too.
        EXPECT_THROW(f.ops().inv(f.modulus(), out), std::invalid_argument);
    }
}

TEST(InverseTier, AllTable5Fields) {
    testutil::for_each_table5_field([](const FieldSpec& spec, const Field& f) {
        check_inverse_properties(f, static_cast<std::uint64_t>(spec.m) * 7919 + 1,
                                 20);
        check_zero_throws_on_every_path(f);
    });
}

class InverseTierLargeFields : public ::testing::TestWithParam<int> {};

TEST_P(InverseTierLargeFields, EngineAgreesWithEuclidAndFermat) {
    const int m = GetParam();
    const Field f{testutil::large_modulus(m)};
    // inv_euclid at m = 1024 runs ~m bit-serial divmod steps per call, so
    // keep the trial count modest; the Table V sweep supplies volume.
    const int trials = (m >= 512) ? 6 : 12;
    check_inverse_properties(f, static_cast<std::uint64_t>(m) * 0x1517, trials);
    check_zero_throws_on_every_path(f);
}

INSTANTIATE_TEST_SUITE_P(LargeDegrees, InverseTierLargeFields,
                         ::testing::ValuesIn(testutil::large_differential_degrees()),
                         [](const auto& info) {
                             return "m" + std::to_string(info.param);
                         });

// The multi-word chain's longest doubling steps are table maps that read x
// in 4-bit windows.  m = 65, 66, 67 and 129, 193, 257 end in a partial
// window or a part-filled word; m = 128 and 192 are word-aligned; and for
// m - 1 = 64, 128, 256, 1024 every step of the chain is a doubling.  Beside
// random elements, the all-ones element fills every window and y^(m-1) only
// the top one.
TEST(InverseTier, TableChainAtWindowAndWordBoundaries) {
    for (const int m : {65, 66, 67, 127, 128, 129, 192, 193, 257, 1025}) {
        const Field f{testutil::large_modulus(m)};
        check_inverse_properties(f, static_cast<std::uint64_t>(m) * 0x7AB1E, m > 512 ? 3 : 8);
        Poly ones;
        for (int i = 0; i < m; ++i) {
            ones.set_coeff(i, true);
        }
        const Poly top = Poly::monomial(m - 1);
        for (const Poly& a : {ones, top, ones + top}) {
            const Poly ia = f.inv(a);
            EXPECT_EQ(ia, f.inv_euclid(a)) << f.to_string();
            EXPECT_EQ(ia, f.inv_fermat(a)) << f.to_string();
        }
    }
}

// The engine's u64 chain and the multi-word chain are distinct code paths;
// on a single-word field the Poly overload routes to the u64 one, so pin the
// u64 chain against Fermat-on-engine separately (same mul/sqr kernels, but
// a different exponentiation schedule).
TEST(InverseTier, SingleWordChainMatchesFermatLadder) {
    for (const int m : {8, 23, 47, 64}) {
        const Field f{(m == 64) ? gf2::TypeIIPentanomial{64, 23}.poly()
                                : testutil::large_modulus(m)};
        const auto& ops = f.ops();
        Xorshift64Star rng{static_cast<std::uint64_t>(m) * 0xABCD};
        for (int trial = 0; trial < 200; ++trial) {
            std::uint64_t a = testutil::random_word_element(f, rng);
            if (a == 0) {
                a = 1;
            }
            ASSERT_EQ(ops.inv(a), ops.inv_fermat(a)) << "m=" << m << " a=" << a;
        }
    }
}

// Steady-state multi-word inversion with a caller-owned scratch reuses every
// buffer: after warmup, which also builds the engine's squaring tables, the
// chain performs no heap allocation.
TEST(InverseTier, MultiWordInversionIsAllocationFreeInSteadyState) {
    const Field f{testutil::large_modulus(409)};
    const auto& ops = f.ops();
    FieldOps::Scratch scratch;
    Xorshift64Star rng{409};
    const Poly a = testutil::random_nonzero_element(f, rng);
    Poly out;
    ops.inv(a, out, scratch);  // warm scratch, arena, and out
    const testutil::AllocationGuard guard;
    for (int i = 0; i < 50; ++i) {
        ops.inv(a, out, scratch);
    }
    EXPECT_EQ(guard.delta(), 0) << "Itoh-Tsujii steady state touched the heap";
    EXPECT_EQ(f.mul_reference(a, out), f.one());
}

}  // namespace
}  // namespace gfr::field
