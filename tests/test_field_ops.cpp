// The fixed-modulus fast engine (FieldOps) cross-checked bit-exactly against
// the reference arithmetic: exhaustively on every small field, randomised on
// the NIST-size fields, plus allocation accounting for the zero-heap-traffic
// guarantees.

#include "field/field_ops.h"

#include "field/field_catalog.h"
#include "field/gf2m.h"
#include "gf2/pentanomial.h"
#include "testutil.h"  // PRNG, generators, Table V iteration, counting allocator

#include <gtest/gtest.h>

namespace gfr::field {
namespace {

using gf2::Poly;
using testutil::allocation_count;
using testutil::Xorshift64Star;

// --- Exhaustive cross-checks on every field with m <= 10 --------------------

class FieldOpsExhaustive : public ::testing::TestWithParam<int> {};

TEST_P(FieldOpsExhaustive, MulMatchesReferenceForAllPairs) {
    const int m = GetParam();
    const auto modulus = gf2::preferred_low_weight_modulus(m);
    ASSERT_TRUE(modulus.has_value()) << "no low-weight modulus for m=" << m;
    const Field f{*modulus};
    const auto& ops = f.ops();
    const std::uint64_t order = std::uint64_t{1} << m;
    for (std::uint64_t a = 0; a < order; ++a) {
        const Poly pa = f.from_bits(a);
        for (std::uint64_t b = a; b < order; ++b) {
            const Poly pb = f.from_bits(b);
            const std::uint64_t want = f.to_bits(f.mul_reference(pa, pb));
            ASSERT_EQ(ops.mul(a, b), want) << "a=" << a << " b=" << b << " m=" << m;
            ASSERT_EQ(f.to_bits(f.mul(pa, pb)), want) << "a=" << a << " b=" << b;
        }
    }
}

TEST_P(FieldOpsExhaustive, SqrAndInvMatchReference) {
    const int m = GetParam();
    const Field f{*gf2::preferred_low_weight_modulus(m)};
    const auto& ops = f.ops();
    const std::uint64_t order = std::uint64_t{1} << m;
    for (std::uint64_t a = 0; a < order; ++a) {
        const Poly pa = f.from_bits(a);
        EXPECT_EQ(ops.sqr(a), f.to_bits(f.sqr_reference(pa)));
        if (a != 0) {
            const std::uint64_t ia = ops.inv(a);
            EXPECT_EQ(ops.mul(a, ia), 1U) << "a=" << a;
            EXPECT_EQ(ia, f.to_bits(f.inv_euclid(pa))) << "a=" << a;  // independent path
        }
    }
    EXPECT_THROW(static_cast<void>(ops.inv(0)), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(SmallFields, FieldOpsExhaustive,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8, 9, 10),
                         [](const auto& info) {
                             return "m" + std::to_string(info.param);
                         });

// --- Randomised cross-checks on wide single-word fields ----------------------
// 10 < m <= 64 is too big to enumerate but exercises distinct reduction code:
// the generic masked fold for 11..63 and the dedicated m == 64 branch.

class FieldOpsSingleWordRandomized : public ::testing::TestWithParam<int> {};

TEST_P(FieldOpsSingleWordRandomized, EngineMatchesReference) {
    const int m = GetParam();
    const auto modulus = (m == 64) ? gf2::TypeIIPentanomial{64, 23}.poly()
                                   : *gf2::preferred_low_weight_modulus(m);
    const Field f{modulus};
    const auto& ops = f.ops();
    ASSERT_TRUE(ops.single_word());
    testutil::Xorshift64Star rng{static_cast<std::uint64_t>(m) * 0xBEEF};
    for (int trial = 0; trial < 200; ++trial) {
        const Poly pa = testutil::random_element(f, rng);
        const Poly pb = testutil::random_element(f, rng);
        const std::uint64_t a = f.to_bits(pa);
        const std::uint64_t b = f.to_bits(pb);
        ASSERT_EQ(ops.mul(a, b), f.to_bits(f.mul_reference(pa, pb)))
            << "a=" << a << " b=" << b << " m=" << m;
        ASSERT_EQ(ops.sqr(a), f.to_bits(f.sqr_reference(pa)));
        if (a != 0) {
            ASSERT_EQ(ops.inv(a), f.to_bits(f.inv_euclid(pa))) << "a=" << a;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(WideSingleWordFields, FieldOpsSingleWordRandomized,
                         ::testing::Values(11, 32, 63, 64),
                         [](const auto& info) {
                             return "m" + std::to_string(info.param);
                         });

// --- Randomised cross-checks on NIST-size fields ----------------------------

class FieldOpsRandomized : public ::testing::TestWithParam<Poly> {};

TEST_P(FieldOpsRandomized, EngineMatchesReference) {
    const Field f{GetParam()};
    testutil::Xorshift64Star rng{static_cast<std::uint64_t>(f.degree()) * 0xC0FFEE};
    for (int trial = 0; trial < 100; ++trial) {
        const Poly a = testutil::random_element(f, rng);
        const Poly b = testutil::random_element(f, rng);
        EXPECT_EQ(f.mul(a, b), f.mul_reference(a, b));
        EXPECT_EQ(f.sqr(a), f.sqr_reference(a));
        EXPECT_EQ(f.reduce(a * b), f.mul(a, b));
    }
    for (int trial = 0; trial < 5; ++trial) {
        Poly a = testutil::random_element(f, rng);
        if (a.is_zero()) {
            a = f.one();
        }
        EXPECT_EQ(f.mul(a, f.inv_fermat(a)), f.one());
        EXPECT_EQ(f.inv_fermat(a), f.inv(a));
    }
}

INSTANTIATE_TEST_SUITE_P(
    NistFields, FieldOpsRandomized,
    ::testing::Values(gf2::TypeIIPentanomial{163, 66}.poly(),   // NIST B-163
                      Poly::from_exponents({233, 74, 0}),       // NIST B-233
                      Poly::from_exponents({571, 10, 5, 2, 0})  // NIST B-571
                      ),
    [](const auto& info) { return "m" + std::to_string(info.param.degree()); });

// --- Every Table V catalog field: engine vs reference ------------------------
// verify_multiplier's oracle is the engine, so every modulus shape it can see
// must be pinned to the reference arithmetic here.

TEST(FieldOpsCatalog, EngineMatchesReferenceOnAllTable5Fields) {
    for (const auto& spec : table5_fields()) {
        const Field f = spec.make();
        testutil::Xorshift64Star rng{static_cast<std::uint64_t>(spec.m * 131 + spec.n)};
        for (int trial = 0; trial < 50; ++trial) {
            const Poly a = testutil::random_element(f, rng);
            const Poly b = testutil::random_element(f, rng);
            ASSERT_EQ(f.mul(a, b), f.mul_reference(a, b)) << spec.label();
            ASSERT_EQ(f.sqr(a), f.sqr_reference(a)) << spec.label();
        }
    }
}

// --- Non-canonical inputs take the reducing path, as the seed did ------------

TEST(FieldOpsNonCanonical, UnreducedInputsAreReducedNotTruncated) {
    const Field f = Field::type2(8, 2);
    // One-word but above degree m: the seed's (a*b) % modulus reduced these.
    const Poly high = Poly::from_exponents({8});  // y^8 = y^4+y^3+y^2+1 mod f
    const Poly c = f.from_bits(0x53);
    EXPECT_EQ(f.mul(c, high), f.mul_reference(c, high));
    EXPECT_EQ(f.sqr(high), f.sqr_reference(high));
    // Two words: exceeds the single-word fast path entirely.
    const Poly wide = Poly::from_exponents({70, 8, 1});
    EXPECT_EQ(f.mul(c, wide), f.mul_reference(c, wide));
    EXPECT_EQ(f.inv(wide), f.inv_euclid(f.reduce(wide)));
}

// --- Allocation accounting ---------------------------------------------------

TEST(FieldOpsAllocations, SingleWordPathIsAllocationFree) {
    const Field f = Field::type2(8, 2);
    const auto& ops = f.ops();
    std::uint64_t acc = 1;
    acc = ops.mul(acc, 7);  // warm nothing — the path owns no buffers at all
    const long before = allocation_count();
    for (int i = 0; i < 10000; ++i) {
        acc = ops.mul(acc, 7);
        acc = ops.sqr(acc ^ 1);
        acc = ops.inv(acc | 1);
    }
    EXPECT_EQ(allocation_count(), before) << "u64 path touched the heap";
    EXPECT_NE(acc, 0U);  // keep the loop observable
}

TEST(FieldOpsAllocations, MultiWordSteadyStateIsAllocationFree) {
    const Field f = Field::type2(163, 66);
    auto& ops = f.ops();
    testutil::Xorshift64Star rng{163};
    const Poly a = testutil::random_element(f, rng);
    const Poly b = testutil::random_element(f, rng);
    Poly prod;
    Poly square;
    ops.mul(a, b, prod);  // warm the product/excess scratch and output storage
    ops.sqr(prod, square);
    const long before = allocation_count();
    for (int i = 0; i < 1000; ++i) {
        ops.mul(a, b, prod);
        ops.sqr(prod, square);
    }
    EXPECT_EQ(allocation_count(), before) << "multi-word steady state allocated";
}

// --- Allocation-free Poly kernels -------------------------------------------

TEST(PolyKernels, AddShiftedMatchesShiftPlusAdd) {
    testutil::Xorshift64Star rng{11};
    for (int trial = 0; trial < 50; ++trial) {
        Poly a;
        Poly b;
        for (int i = 0; i < 200; ++i) {
            a.set_coeff(i, (rng() & 1U) != 0);
            b.set_coeff(i, (rng() & 1U) != 0);
        }
        const int shift = static_cast<int>(rng() % 130);
        Poly in_place = a;
        in_place.add_shifted(b, shift);
        EXPECT_EQ(in_place, a + (b << shift)) << "shift=" << shift;
    }
}

TEST(PolyKernels, MulIntoAndSquareIntoMatchOperators) {
    testutil::Xorshift64Star rng{22};
    Poly out;
    for (int trial = 0; trial < 50; ++trial) {
        Poly a;
        Poly b;
        for (int i = 0; i < 150; ++i) {
            a.set_coeff(i, (rng() & 1U) != 0);
            b.set_coeff(i, (rng() & 1U) != 0);
        }
        Poly::mul_into(a, b, out);
        EXPECT_EQ(out, a * b);
        Poly::square_into(a, out);
        EXPECT_EQ(out, a.square());
    }
}

TEST(PolyKernels, ShrIntoTruncateAssignWord) {
    const Poly p = Poly::from_exponents({130, 70, 64, 3, 0});
    Poly out;
    Poly::shr_into(p, 64, out);
    EXPECT_EQ(out, p >> 64);
    Poly q = p;
    q.truncate(70);
    EXPECT_EQ(q, Poly::from_exponents({64, 3, 0}));
    q.truncate(0);
    EXPECT_TRUE(q.is_zero());
    q.assign_word(0x1D);
    EXPECT_EQ(q, Poly::from_exponents({4, 3, 2, 0}));
    q.assign_word(0);
    EXPECT_TRUE(q.is_zero());
    q.assign_words(p.words());
    EXPECT_EQ(q, p);
}

TEST(PolyKernels, DivmodInplaceMatchesDivmod) {
    testutil::Xorshift64Star rng{33};
    for (int trial = 0; trial < 50; ++trial) {
        Poly num;
        Poly den;
        for (int i = 0; i < 300; ++i) {
            num.set_coeff(i, (rng() & 1U) != 0);
        }
        for (int i = 0; i < 90; ++i) {
            den.set_coeff(i, (rng() & 1U) != 0);
        }
        if (den.is_zero()) {
            den = Poly::one();
        }
        const auto [q, r] = Poly::divmod(num, den);
        Poly rem = num;
        Poly quot;
        Poly::divmod_inplace(rem, den, &quot);
        EXPECT_EQ(rem, r);
        EXPECT_EQ(quot, q);
        Poly rem_only = num;
        Poly::divmod_inplace(rem_only, den);
        EXPECT_EQ(rem_only, r);
        EXPECT_EQ(den * q + r, num);  // division identity
    }
}

}  // namespace
}  // namespace gfr::field
