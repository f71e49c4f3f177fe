// Bulk region-kernel tier: every SIMD kernel compiled into this binary is
// held bit-identical to the portable scalar kernel (and to the engine's
// element arithmetic, which is itself anchored to Field::mul_reference)
// across all Table V fields, with the edge cases vector code gets wrong
// first — lengths 0/1/odd/just-below-vector-width, unaligned offsets,
// in-place and aliased spans.  The dispatch policy is pinned pure: for any
// feature set, neither ladder's select() may pick a kernel the features
// don't support, and forcing an unsupported or inapplicable kernel throws.

#include "bulk/cpu.h"
#include "bulk/kernels.h"
#include "bulk/region_engine.h"
#include "field/field_catalog.h"
#include "gf2/pentanomial.h"
#include "testutil.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace gfr::bulk {
namespace {

using field::Field;
using testutil::Xorshift64Star;

/// Region lengths around every vector width in play (4 u64 lanes, 16- and
/// 32-byte chunks), plus empty/one/odd and a long tail-heavy case.
const std::vector<std::size_t>& edge_lengths() {
    static const std::vector<std::size_t> lens = {0,  1,  2,  3,  4,  5,  7,
                                                  15, 16, 17, 31, 32, 33, 63,
                                                  64, 65, 255, 1001};
    return lens;
}

/// Byte kernel kinds this binary compiled AND this CPU can run, Scalar
/// included (it is checked against element arithmetic too).
std::vector<KernelKind> runnable_byte_kernels() {
    std::vector<KernelKind> out = kByteLadder.runnable(detect_cpu());
    out.push_back(KernelKind::Scalar);
    return out;
}

/// Small fields below GF(2^8) exercise the byte kernels' partial-nibble
/// handling; Table V contributes (8,2) and the paper's worked field.
std::vector<Field> byte_fields() {
    std::vector<Field> fields;
    fields.push_back(field::gf256_paper_field());
    fields.push_back(Field::type2(8, 2));
    for (const int m : {4, 5, 7}) {
        const auto mod = gf2::preferred_low_weight_modulus(m);
        if (!mod.has_value()) {
            throw std::runtime_error{"no low-weight modulus for m=" +
                                     std::to_string(m)};
        }
        fields.push_back(Field{*mod});
    }
    return fields;
}

// --- Dispatch policy ---------------------------------------------------------

TEST(BulkDispatch, NeverSelectsUnsupportedIsa) {
    // All 64 feature combinations (every CpuFeatures field, GFNI and
    // AVX-512F included), forced and unforced: the selected kernels' ISAs
    // must be within the features, and forcing scalar must pin scalar
    // regardless of features.
    for (int bits = 0; bits < 64; ++bits) {
        CpuFeatures f;
        f.ssse3 = (bits & 1) != 0;
        f.avx2 = (bits & 2) != 0;
        f.pclmul = (bits & 4) != 0;
        f.vpclmulqdq = (bits & 8) != 0;
        f.gfni = (bits & 16) != 0;
        f.avx512f = (bits & 32) != 0;
        for (const bool forced : {false, true}) {
            const ByteKernel* byte = kByteLadder.select(f, forced);
            const WordKernel* word = kWordLadder.select(f, forced);
            ASSERT_NE(byte, nullptr);
            EXPECT_TRUE(kernel_supported(byte->kind, f))
                << "byte kernel " << kernel_name(byte->kind)
                << " selected without support (bits=" << bits << ")";
            if (word != nullptr) {
                EXPECT_TRUE(kernel_supported(word->kind, f))
                    << "word kernel " << kernel_name(word->kind)
                    << " selected without support (bits=" << bits << ")";
            }
            if (forced) {
                EXPECT_EQ(byte->kind, KernelKind::Scalar);
                EXPECT_EQ(word, nullptr);
            }
        }
    }
}

TEST(BulkDispatch, ProcessDispatchObeysRunningCpu) {
    const Dispatch& d = dispatch();
    const CpuFeatures cpu = detect_cpu();
    ASSERT_NE(d.byte, nullptr);
    EXPECT_TRUE(kernel_supported(d.byte->kind, cpu));
    if (d.word != nullptr) {
        EXPECT_TRUE(kernel_supported(d.word->kind, cpu));
    }
    // Scalar kernels are always compiled and always runnable.
    EXPECT_EQ(byte_kernel(KernelKind::Scalar), &kByteScalar);
    EXPECT_TRUE(kernel_supported(KernelKind::Scalar, CpuFeatures{}));
}

TEST(BulkDispatch, ForcingInapplicableOrUnsupportedKernelThrows) {
    const Field f8 = field::gf256_paper_field();
    const Field f64 = Field::type2(64, 23);
    const Field f163 = Field::type2(163, 66);
    const CpuFeatures cpu = detect_cpu();

    // Byte kernels never apply past m = 8; word kernels never past m = 64.
    for (const KernelKind k :
         {KernelKind::Ssse3, KernelKind::Avx2, KernelKind::Gfni}) {
        EXPECT_THROW(RegionEngine(f64.ops(), k), std::invalid_argument);
    }
    EXPECT_THROW(RegionEngine(f163.ops(), KernelKind::Vpclmul),
                 std::invalid_argument);

    // Not compiled or not supported by this CPU → throw instead of SIGILL.
    for (const KernelKind k :
         {KernelKind::Ssse3, KernelKind::Avx2, KernelKind::Gfni}) {
        if (kByteLadder.available(k, cpu) == nullptr) {
            EXPECT_THROW(RegionEngine(f8.ops(), k), std::invalid_argument);
        } else {
            EXPECT_EQ(RegionEngine(f8.ops(), k).byte_kernel_kind(), k);
        }
    }
    if (kWordLadder.available(KernelKind::Vpclmul, cpu) == nullptr) {
        EXPECT_THROW(RegionEngine(f64.ops(), KernelKind::Vpclmul),
                     std::invalid_argument);
    } else {
        EXPECT_EQ(RegionEngine(f64.ops(), KernelKind::Vpclmul).word_kernel_kind(),
                  KernelKind::Vpclmul);
    }

    // Scalar always constructs, on every field.
    EXPECT_EQ(RegionEngine(f8.ops(), KernelKind::Scalar).byte_kernel_kind(),
              KernelKind::Scalar);
    EXPECT_EQ(RegionEngine(f64.ops(), KernelKind::Scalar).word_kernel_kind(),
              KernelKind::Scalar);
}

// --- Byte-layout differential sweep ------------------------------------------

TEST(BulkRegion, ByteKernelsBitIdenticalToScalarAllEdgeCases) {
    Xorshift64Star rng{0xB17E5EED5EEDULL};
    for (const Field& f : byte_fields()) {
        const RegionEngine scalar{f.ops(), KernelKind::Scalar};
        for (const KernelKind kind : runnable_byte_kernels()) {
            const RegionEngine eng{f.ops(), kind};
            for (const std::size_t n : edge_lengths()) {
                // Unaligned offsets: src at +1, dst at +3 of their buffers.
                std::vector<std::uint8_t> src_buf(n + 4);
                std::vector<std::uint8_t> dst_buf(n + 4, 0xAA);
                std::vector<std::uint8_t> ref(n, 0);
                std::uint8_t* src = src_buf.data() + 1;
                std::uint8_t* dst = dst_buf.data() + 3;
                for (std::size_t i = 0; i < n; ++i) {
                    src[i] = static_cast<std::uint8_t>(
                        testutil::random_word_element(f, rng));
                }
                const std::uint64_t c = testutil::random_word_element(f, rng);
                const auto prep = eng.prepare(c);
                const auto prep_s = scalar.prepare(c);

                // mul: kernel vs scalar kernel vs engine element arithmetic.
                eng.mul_region(prep, {src, n}, {dst, n});
                scalar.mul_region(prep_s, {src, n}, {ref.data(), n});
                for (std::size_t i = 0; i < n; ++i) {
                    ASSERT_EQ(dst[i], ref[i])
                        << f.to_string() << " " << kernel_name(kind)
                        << " mul n=" << n << " i=" << i;
                    ASSERT_EQ(dst[i], f.ops().mul(c, src[i]));
                }

                // addmul into a random destination.
                std::vector<std::uint8_t> acc(n);
                for (auto& v : acc) {
                    v = static_cast<std::uint8_t>(
                        testutil::random_word_element(f, rng));
                }
                std::vector<std::uint8_t> acc_ref = acc;
                eng.addmul_region(prep, {src, n}, acc);
                scalar.addmul_region(prep_s, {src, n}, acc_ref);
                for (std::size_t i = 0; i < n; ++i) {
                    ASSERT_EQ(acc[i], acc_ref[i])
                        << f.to_string() << " " << kernel_name(kind)
                        << " addmul n=" << n << " i=" << i;
                }

                // In-place scale == out-of-place mul; aliased src/dst too.
                std::vector<std::uint8_t> inplace(src, src + n);
                eng.scale_region(prep, inplace);
                std::vector<std::uint8_t> aliased(src, src + n);
                eng.mul_region(prep, aliased, aliased);
                for (std::size_t i = 0; i < n; ++i) {
                    ASSERT_EQ(inplace[i], ref[i]) << "scale n=" << n;
                    ASSERT_EQ(aliased[i], ref[i]) << "aliased n=" << n;
                }
            }
        }
    }
}

// --- u16-layout differential sweep -------------------------------------------

TEST(BulkRegion, U16LayoutMatchesElementArithmetic) {
    // The dense GF(2^16)-tier layout (8 < m <= 16, one symbol per u16):
    // split-byte tables vs FieldOps::mul, plus in-place and scale forms.
    Xorshift64Star rng{0x16B17EED16ULL};
    std::vector<Field> fields;
    fields.emplace_back(gf2::Poly::from_exponents({16, 12, 3, 1, 0}));
    fields.emplace_back(gf2::Poly::from_exponents({13, 4, 3, 1, 0}));
    for (const int m : {9, 11}) {
        const auto mod = gf2::preferred_low_weight_modulus(m);
        if (mod.has_value()) {
            fields.emplace_back(*mod);
        }
    }
    for (const Field& f : fields) {
        const RegionEngine eng{f.ops()};
        ASSERT_TRUE(eng.u16_capable()) << f.to_string();
        for (const std::size_t n : edge_lengths()) {
            std::vector<std::uint16_t> src(n);
            for (auto& v : src) {
                v = static_cast<std::uint16_t>(
                    testutil::random_word_element(f, rng));
            }
            const std::uint64_t c = testutil::random_word_element(f, rng);
            const auto prep = eng.prepare(c);

            std::vector<std::uint16_t> dst(n, 0xAAAA);
            eng.mul_region(prep, src, dst);
            for (std::size_t i = 0; i < n; ++i) {
                ASSERT_EQ(dst[i], f.ops().mul(c, src[i]))
                    << f.to_string() << " u16 mul n=" << n << " i=" << i;
            }

            std::vector<std::uint16_t> acc(n);
            for (auto& v : acc) {
                v = static_cast<std::uint16_t>(
                    testutil::random_word_element(f, rng));
            }
            const std::vector<std::uint16_t> acc0 = acc;
            eng.addmul_region(prep, src, acc);
            for (std::size_t i = 0; i < n; ++i) {
                ASSERT_EQ(acc[i], acc0[i] ^ f.ops().mul(c, src[i]))
                    << "u16 addmul n=" << n;
            }

            std::vector<std::uint16_t> inplace = src;
            eng.scale_region(prep, inplace);
            std::vector<std::uint16_t> aliased = src;
            eng.mul_region(prep, aliased, aliased);
            for (std::size_t i = 0; i < n; ++i) {
                ASSERT_EQ(inplace[i], dst[i]) << "u16 scale n=" << n;
                ASSERT_EQ(aliased[i], dst[i]) << "u16 aliased n=" << n;
            }
        }
    }
}

// --- u64-layout differential sweep -------------------------------------------

/// Single-word catalog fields plus odd degrees that stress the shift
/// arithmetic of the wide kernel (m = 64 boundary included via Table V).
std::vector<Field> word_fields() {
    std::vector<Field> fields;
    for (const auto& spec : field::table5_fields()) {
        if (spec.m <= 64) {
            fields.push_back(spec.make());
        }
    }
    for (const int m : {13, 33, 63}) {
        const auto mod = gf2::preferred_low_weight_modulus(m);
        if (!mod.has_value()) {
            throw std::runtime_error{"no low-weight modulus for m=" +
                                     std::to_string(m)};
        }
        fields.push_back(Field{*mod});
    }
    return fields;
}

TEST(BulkRegion, WordKernelsBitIdenticalToScalarAllEdgeCases) {
    Xorshift64Star rng{0xC0FFEE0DDBA11ULL};
    for (const Field& f : word_fields()) {
        const RegionEngine scalar{f.ops(), KernelKind::Scalar};
        for (const KernelKind kind : kWordLadder.runnable(detect_cpu())) {
            const RegionEngine eng{f.ops(), kind};
            for (const std::size_t n : edge_lengths()) {
                // +1 element offset: 8-byte aligned, 32-byte unaligned.
                std::vector<std::uint64_t> src_buf(n + 1);
                std::vector<std::uint64_t> dst(n, 0);
                std::vector<std::uint64_t> ref(n, 0);
                std::uint64_t* src = src_buf.data() + 1;
                for (std::size_t i = 0; i < n; ++i) {
                    src[i] = testutil::random_word_element(f, rng);
                }
                const std::uint64_t c = testutil::random_word_element(f, rng);
                const auto prep = eng.prepare(c);
                const auto prep_s = scalar.prepare(c);

                eng.mul_region(prep, {src, n}, dst);
                scalar.mul_region(prep_s, {src, n}, ref);
                for (std::size_t i = 0; i < n; ++i) {
                    ASSERT_EQ(dst[i], ref[i])
                        << f.to_string() << " " << kernel_name(kind)
                        << " mul n=" << n << " i=" << i;
                    ASSERT_EQ(dst[i], f.ops().mul(c, src[i]));
                }

                std::vector<std::uint64_t> acc(n);
                for (auto& v : acc) {
                    v = testutil::random_word_element(f, rng);
                }
                std::vector<std::uint64_t> acc_ref = acc;
                eng.addmul_region(prep, {src, n}, acc);
                scalar.addmul_region(prep_s, {src, n}, acc_ref);
                for (std::size_t i = 0; i < n; ++i) {
                    ASSERT_EQ(acc[i], acc_ref[i]) << "addmul n=" << n;
                }

                std::vector<std::uint64_t> aliased(src, src + n);
                eng.mul_region(prep, aliased, aliased);
                std::vector<std::uint64_t> inplace(src, src + n);
                eng.scale_region(prep, inplace);
                for (std::size_t i = 0; i < n; ++i) {
                    ASSERT_EQ(aliased[i], ref[i]) << "aliased n=" << n;
                    ASSERT_EQ(inplace[i], ref[i]) << "scale n=" << n;
                }

                // Element-wise: canonical AND arbitrary u64 operands — the
                // wide kernel must fall back per group exactly like
                // FieldOps::mul reduces them.
                std::vector<std::uint64_t> b(n);
                for (std::size_t i = 0; i < n; ++i) {
                    b[i] = (i % 3 == 0) ? rng.next()
                                        : testutil::random_word_element(f, rng);
                }
                std::vector<std::uint64_t> ew(n, 0);
                eng.mul_region_elementwise({src, n}, b, ew);
                for (std::size_t i = 0; i < n; ++i) {
                    ASSERT_EQ(ew[i], f.ops().mul(src[i], b[i]))
                        << "elementwise n=" << n << " i=" << i;
                }
            }
        }
    }
}

// --- Multi-word differential sweep -------------------------------------------

TEST(BulkRegion, MultiWordRegionOpsMatchElementArithmetic) {
    Xorshift64Star rng{0x517EAD00F117ULL};
    std::vector<Field> fields;
    for (const auto& spec : field::table5_fields()) {
        if (spec.m > 64) {
            fields.push_back(spec.make());
        }
    }
    fields.push_back(Field{testutil::large_modulus(571)});
    for (const Field& f : fields) {
        const RegionEngine eng{f.ops()};
        const std::size_t mw = f.ops().elem_words();
        field::FieldOps::Scratch scratch;
        const auto cpoly = testutil::random_element(f, rng);
        const auto prep = eng.prepare(cpoly);
        for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                    std::size_t{2}, std::size_t{7}}) {
            std::vector<gf2::Poly> elems;
            std::vector<std::uint64_t> src(n * mw, 0);
            for (std::size_t i = 0; i < n; ++i) {
                elems.push_back(testutil::random_element(f, rng));
                const auto w = elems.back().words();
                std::copy(w.begin(), w.end(), src.begin() + static_cast<long>(i * mw));
            }
            std::vector<std::uint64_t> dst(n * mw, 0);
            eng.mul_region_mw(prep, src, dst, scratch);
            std::vector<std::uint64_t> acc(n * mw);
            for (auto& v : acc) {
                v = 0;
            }
            eng.addmul_region_mw(prep, src, acc, scratch);
            for (std::size_t i = 0; i < n; ++i) {
                const gf2::Poly want = f.mul(cpoly, elems[i]);
                std::vector<std::uint64_t> ww(mw, 0);
                const auto w = want.words();
                std::copy(w.begin(), w.end(), ww.begin());
                for (std::size_t k = 0; k < mw; ++k) {
                    ASSERT_EQ(dst[i * mw + k], ww[k])
                        << f.to_string() << " mw mul elem " << i << " word " << k;
                    ASSERT_EQ(acc[i * mw + k], ww[k]) << "mw addmul from zero";
                }
            }
            // addmul self-inverse: adding the same product twice restores.
            eng.addmul_region_mw(prep, src, acc, scratch);
            for (const std::uint64_t v : acc) {
                ASSERT_EQ(v, 0U);
            }
        }
        // Span validation: length not a multiple of elem_words throws.
        if (mw > 1) {
            std::vector<std::uint64_t> bad(mw + 1, 0);
            std::vector<std::uint64_t> out(mw + 1, 0);
            EXPECT_THROW(eng.mul_region_mw(prep, bad, out, scratch),
                         std::invalid_argument);
        }
    }
}

// --- Routed public APIs ------------------------------------------------------

TEST(BulkRegion, RoutedFieldOpsAndConstMultiplierMatchElementLoop) {
    // The PR-1/PR-2 region APIs kept their signatures but now run through
    // the dispatch; their results must stay exactly what an element loop
    // produces, including at odd lengths and in place.
    Xorshift64Star rng{0xFEEDFACE0101ULL};
    testutil::for_each_table5_field([&](const field::FieldSpec& spec,
                                        const Field& f) {
        if (spec.m > 64) {
            return;
        }
        for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                    std::size_t{3}, std::size_t{31},
                                    std::size_t{130}}) {
            std::vector<std::uint64_t> a(n);
            std::vector<std::uint64_t> b(n);
            for (std::size_t i = 0; i < n; ++i) {
                a[i] = testutil::random_word_element(f, rng);
                b[i] = (i % 5 == 0) ? rng.next()
                                    : testutil::random_word_element(f, rng);
            }
            const std::uint64_t c = testutil::random_word_element(f, rng);

            std::vector<std::uint64_t> out(n, 0);
            f.ops().mul_region(a, b, out);
            for (std::size_t i = 0; i < n; ++i) {
                ASSERT_EQ(out[i], f.ops().mul(a[i], b[i]))
                    << spec.label() << " mul_region n=" << n;
            }

            const field::ConstMultiplier cm{f.ops(), c};
            std::vector<std::uint64_t> r1(a);
            cm.mul_region(r1);  // in place
            std::vector<std::uint64_t> r2(n, 0);
            cm.mul_region(a, r2);
            std::vector<std::uint64_t> r3(a);
            f.ops().mul_region_const(c, r3);
            for (std::size_t i = 0; i < n; ++i) {
                const std::uint64_t want = cm.mul(a[i]);
                ASSERT_EQ(want, f.ops().mul(c, a[i]));
                ASSERT_EQ(r1[i], want) << spec.label() << " in-place";
                ASSERT_EQ(r2[i], want) << spec.label() << " out-of-place";
                ASSERT_EQ(r3[i], want) << spec.label() << " mul_region_const";
            }
        }
    });
}

TEST(BulkRegion, PreparedConstantEdgeCases) {
    const Field f = field::gf256_paper_field();
    const RegionEngine eng{f.ops()};
    Xorshift64Star rng{42};

    std::vector<std::uint8_t> data(37);
    for (auto& v : data) {
        v = static_cast<std::uint8_t>(testutil::random_word_element(f, rng));
    }
    const std::vector<std::uint8_t> orig = data;

    // c = 1 is the identity; addmul by 1 is a region XOR.
    const auto one = eng.prepare(std::uint64_t{1});
    eng.scale_region(one, data);
    EXPECT_EQ(data, orig);
    std::vector<std::uint8_t> acc(data.size(), 0);
    eng.addmul_region(one, data, acc);
    EXPECT_EQ(acc, orig);

    // c = 0 zeroes on mul and is a no-op on addmul.
    const auto zero = eng.prepare(std::uint64_t{0});
    eng.addmul_region(zero, orig, data);
    EXPECT_EQ(data, orig);
    eng.scale_region(zero, data);
    for (const auto v : data) {
        EXPECT_EQ(v, 0);
    }

    // Non-canonical constants are reduced at prepare time; a Poly constant
    // prepares identically to its bit pattern.
    const auto big = eng.prepare(std::uint64_t{0x1234567890ABCDEFULL});
    EXPECT_EQ(big.constant(), f.ops().reduce(0, 0x1234567890ABCDEFULL));
    const auto from_poly = eng.prepare(gf2::Poly::from_exponents({9, 1}));
    EXPECT_EQ(from_poly.constant(),
              f.ops().reduce(0, (std::uint64_t{1} << 9) | 2));

    // Length mismatches throw.
    std::vector<std::uint8_t> short_dst(3);
    EXPECT_THROW(eng.mul_region(one, orig, short_dst), std::invalid_argument);
}

TEST(BulkRegion, PreparedMismatchedEngineThrowsInsteadOfWrongSymbols) {
    // A Prepared carries only the state its preparing engine's kernels
    // need; feeding it to another field, or to an engine with a different
    // kernel selection, must fail loudly.
    const Field f8 = field::gf256_paper_field();
    const Field f64 = Field::type2(64, 23);
    const RegionEngine eng8{f8.ops()};
    const RegionEngine eng64_scalar{f64.ops(), KernelKind::Scalar};

    std::vector<std::uint64_t> buf(8, 1);
    const auto prep8 = eng8.prepare(std::uint64_t{3});
    // Wrong field entirely.
    EXPECT_THROW(eng64_scalar.scale_region(prep8, buf), std::invalid_argument);
    // Same degree, different modulus: the paper field and type2(8,2) are
    // both m=8 but reduce with different tails — tables from one would
    // silently corrupt symbols of the other, so this must throw too.
    const Field f8b = Field::type2(8, 2);
    const RegionEngine eng8b{f8b.ops()};
    std::vector<std::uint8_t> bbuf(8, 1);
    EXPECT_THROW(eng8b.scale_region(prep8, bbuf), std::invalid_argument);
    // Same field, different kernel selection (scalar m>8 needs window
    // tables a wide-kernel engine never builds, and vice versa).
    if (kWordLadder.available(KernelKind::Vpclmul, detect_cpu()) != nullptr) {
        const RegionEngine eng64_wide{f64.ops(), KernelKind::Vpclmul};
        const auto prep_wide = eng64_wide.prepare(std::uint64_t{5});
        const auto prep_scalar = eng64_scalar.prepare(std::uint64_t{5});
        EXPECT_THROW(eng64_scalar.scale_region(prep_wide, buf),
                     std::invalid_argument);
        EXPECT_THROW(eng64_wide.scale_region(prep_scalar, buf),
                     std::invalid_argument);
    }
    // Multi-word engines reject single-word Prepareds too.
    const Field f163 = Field::type2(163, 66);
    const RegionEngine eng163{f163.ops()};
    std::vector<std::uint64_t> mwbuf(3 * f163.ops().elem_words(), 0);
    EXPECT_THROW(eng163.mul_region_mw(prep8, mwbuf, mwbuf),
                 std::invalid_argument);
}

TEST(BulkRegion, AutoEngineReportsSupportedKernels) {
    // Whatever the auto constructor picked must be runnable here — the
    // user-facing face of the never-unsupported-ISA guarantee.
    const CpuFeatures cpu = detect_cpu();
    testutil::for_each_table5_field([&](const field::FieldSpec&, const Field& f) {
        const RegionEngine eng{f.ops()};
        if (eng.byte_capable()) {
            EXPECT_TRUE(kernel_supported(eng.byte_kernel_kind(), cpu));
        }
        if (eng.single_word()) {
            EXPECT_TRUE(kernel_supported(eng.word_kernel_kind(), cpu));
        }
    });
}

}  // namespace
}  // namespace gfr::bulk
