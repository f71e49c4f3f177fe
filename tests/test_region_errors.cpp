// RegionEngine contract violations: every exception path, with its exact
// message pinned (callers and CI logs grep these), plus the ABFT checksum
// lanes (region_checksum / *_region_checked / verify_region).

#include "bulk/region_engine.h"
#include "field/field_catalog.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace gfr {
namespace {

using bulk::KernelKind;
using bulk::RegionEngine;

/// EXPECT_THROW with the exact what() string.
template <typename Fn>
void expect_invalid(Fn&& fn, const std::string& message) {
    try {
        fn();
        ADD_FAILURE() << "expected std::invalid_argument: " << message;
    } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string{e.what()}, message);
    }
}

TEST(RegionErrors, LengthMismatches) {
    const field::Field f = field::gf256_paper_field();
    const RegionEngine eng{f.ops()};
    const auto p = eng.prepare(0x53);
    std::vector<std::uint8_t> b3(3), b4(4);
    expect_invalid([&] { eng.mul_region(p, b3, b4); },
                   "RegionEngine::mul_region: length mismatch");
    expect_invalid([&] { eng.addmul_region(p, b3, b4); },
                   "RegionEngine::addmul_region: length mismatch");
    std::vector<std::uint64_t> w3(3), w4(4);
    expect_invalid([&] { eng.mul_region(p, w3, w4); },
                   "RegionEngine::mul_region: length mismatch");
    expect_invalid([&] { eng.addmul_region(p, w3, w4); },
                   "RegionEngine::addmul_region: length mismatch");
    // Checked variants route through the same validation.
    std::uint64_t sum = 0;
    expect_invalid([&] { eng.mul_region_checked(p, b3, 0, b4, sum); },
                   "RegionEngine::mul_region: length mismatch");
    expect_invalid([&] { eng.addmul_region_checked(p, w3, 0, w4, sum); },
                   "RegionEngine::addmul_region: length mismatch");
}

TEST(RegionErrors, LayoutDegreeGates) {
    const auto& specs = field::table5_fields();
    const field::Field f64 = specs[1].make();   // (64,23)
    const field::Field f163 = specs[7].make();  // (163,66)
    const RegionEngine eng64{f64.ops()};
    const RegionEngine eng163{f163.ops()};
    const auto p64 = eng64.prepare(7);
    std::vector<std::uint8_t> bytes(8);
    expect_invalid([&] { eng64.mul_region(p64, bytes, bytes); },
                   "RegionEngine: byte layout requires m <= 8");
    const auto p163 = eng163.prepare(gf2::Poly::from_exponents({5, 0}));
    std::vector<std::uint64_t> words(6);
    expect_invalid([&] { eng163.mul_region(p163, words, words); },
                   "RegionEngine: u64 layout requires m <= 64; use the _mw calls");
    expect_invalid(
        [&] { static_cast<void>(eng163.prepare(std::uint64_t{3})); },
        "RegionEngine::prepare(uint64): field needs m <= 64; pass a Poly");
}

TEST(RegionErrors, MultiWordSpanShape) {
    const field::Field f = field::table5_fields()[7].make();  // m = 163
    const RegionEngine eng{f.ops()};
    const auto p = eng.prepare(gf2::Poly::from_exponents({1, 0}));
    const std::size_t mw = f.ops().elem_words();
    std::vector<std::uint64_t> a(3 * mw), b(2 * mw), ragged(3 * mw - 1);
    expect_invalid(
        [&] { eng.mul_region_mw(p, a, b); },
        "RegionEngine: multi-word spans must be equal multiples of "
        "elem_words()");
    expect_invalid(
        [&] { eng.addmul_region_mw(p, ragged, ragged); },
        "RegionEngine: multi-word spans must be equal multiples of "
        "elem_words()");
}

TEST(RegionErrors, PreparedProvenance) {
    const field::Field f8 = field::gf256_paper_field();
    const field::Field other8 = field::table5_fields()[0].make();
    const RegionEngine eng{f8.ops()};
    const RegionEngine other{other8.ops()};
    const auto foreign = other.prepare(0x21);
    std::vector<std::uint8_t> bytes(4);
    // Same degree, different FieldOps: caught by pointer identity.
    expect_invalid([&] { eng.mul_region(foreign, bytes, bytes); },
                   "RegionEngine: Prepared was built for a different field");
    // A single-word Prepared carries no multi-word constant: the _mw call
    // on the same engine rejects it.
    const field::Field f64 = field::table5_fields()[1].make();
    const RegionEngine eng64{f64.ops()};
    const auto p64 = eng64.prepare(9);
    std::vector<std::uint64_t> w(2);
    expect_invalid([&] { eng64.mul_region_mw(p64, w, w); },
                   "RegionEngine: Prepared constant does not match this field");
}

TEST(RegionErrors, PreparedKernelSelectionMismatch) {
    // A Prepared built by a SIMD-byte engine carries nibble tables but no
    // window tables; handing it to a scalar engine's u64 path must throw.
    // Both directions need a real SIMD kernel, so gate on this build+CPU.
    const field::Field f8 = field::gf256_paper_field();
    const auto& d = bulk::dispatch();
    const bool have_simd_byte =
        d.byte != nullptr && d.byte->kind != KernelKind::Scalar;
    if (have_simd_byte) {
        const RegionEngine simd{f8.ops(), d.byte->kind};
        const RegionEngine scalar{f8.ops(), KernelKind::Scalar};
        const auto p = simd.prepare(0x35);
        std::vector<std::uint64_t> w(4);
        expect_invalid(
            [&] { scalar.mul_region(p, w, w); },
            "RegionEngine: Prepared lacks window tables for the scalar path "
            "(built by an engine with a different kernel selection)");
    }
    const field::Field f64 = field::table5_fields()[1].make();
    if (d.word != nullptr && f64.ops().fold_bound() <= bulk::kMaxWideFolds) {
        const RegionEngine wide{f64.ops(), KernelKind::Vpclmul};
        const RegionEngine scalar{f64.ops(), KernelKind::Scalar};
        const auto p = scalar.prepare(11);
        std::vector<std::uint64_t> w(4);
        expect_invalid(
            [&] { wide.mul_region(p, w, w); },
            "RegionEngine: Prepared lacks wide-kernel parameters (built by "
            "an engine with a different kernel selection)");
    }
}

TEST(RegionErrors, ForcedKernelConstruction) {
    const field::Field f64 = field::table5_fields()[1].make();
    const field::Field f163 = field::table5_fields()[7].make();
    const field::Field f8 = field::gf256_paper_field();
    // Degree gates fire before compiled/supported checks, so these two are
    // platform-independent.
    expect_invalid(
        [&] { RegionEngine eng{f64.ops(), KernelKind::Ssse3}; },
        "RegionEngine: byte kernels require m <= 8");
    expect_invalid(
        [&] { RegionEngine eng{f163.ops(), KernelKind::Vpclmul}; },
        "RegionEngine: word kernels require m <= 64");
    expect_invalid(
        [&] { RegionEngine eng{f8.ops(), static_cast<KernelKind>(99)}; },
        "RegionEngine: unknown kernel kind");
    // Compiled/supported outcomes depend on the build and CPU; assert the
    // exact message for whichever branch applies here.
    const auto& d = bulk::dispatch();
    if (bulk::ssse3_byte_kernel() == nullptr) {
        expect_invalid(
            [&] { RegionEngine eng{f8.ops(), KernelKind::Ssse3}; },
            "RegionEngine: kernel not compiled into this binary");
    } else if (!bulk::kernel_supported(KernelKind::Ssse3, d.cpu)) {
        expect_invalid(
            [&] { RegionEngine eng{f8.ops(), KernelKind::Ssse3}; },
            "RegionEngine: kernel not supported by this CPU");
    } else {
        EXPECT_NO_THROW(RegionEngine eng(f8.ops(), KernelKind::Ssse3));
    }
}

TEST(RegionErrors, PartialOverlapRejectedOnEveryLayout) {
    // The kernels stream vector-width blocks, so partially-overlapping
    // src/dst would read a mix of stale and fresh symbols; exact aliasing
    // (in place) is the one overlap every kernel guarantees.
    const std::string mul_msg =
        "RegionEngine::mul_region: src and dst overlap partially (dst must "
        "alias src exactly or not at all)";
    const std::string addmul_msg =
        "RegionEngine::addmul_region: src and dst overlap partially (dst "
        "must alias src exactly or not at all)";

    // Byte layout.
    {
        const field::Field f = field::gf256_paper_field();
        const RegionEngine eng{f.ops()};
        const auto p = eng.prepare(0x37);
        std::vector<std::uint8_t> buf(64, 1);
        const std::span<std::uint8_t> whole{buf};
        // In place: allowed, and equal to the out-of-place result.
        std::vector<std::uint8_t> ref(64, 0);
        eng.mul_region(p, whole, ref);
        eng.mul_region(p, whole, whole);
        EXPECT_EQ(buf, ref);
        // Overlapping forward (dst ahead of src) and backward both throw.
        expect_invalid(
            [&] { eng.mul_region(p, whole.subspan(0, 32), whole.subspan(1, 32)); },
            mul_msg);
        expect_invalid(
            [&] { eng.mul_region(p, whole.subspan(1, 32), whole.subspan(0, 32)); },
            mul_msg);
        expect_invalid(
            [&] {
                eng.addmul_region(p, whole.subspan(0, 32), whole.subspan(31, 32));
            },
            addmul_msg);
        expect_invalid(
            [&] {
                eng.addmul_region(p, whole.subspan(31, 32), whole.subspan(0, 32));
            },
            addmul_msg);
        // Checked variants route through the same gate.
        std::uint64_t sum = 0;
        expect_invalid(
            [&] {
                eng.mul_region_checked(p, whole.subspan(0, 32), 0,
                                       whole.subspan(1, 32), sum);
            },
            mul_msg);
    }

    // u16 layout.
    {
        const field::Field f16{gf2::Poly::from_exponents({16, 12, 3, 1, 0})};
        const RegionEngine eng{f16.ops()};
        const auto p = eng.prepare(0x1234);
        std::vector<std::uint16_t> buf(32, 7);
        const std::span<std::uint16_t> whole{buf};
        std::vector<std::uint16_t> ref(32, 0);
        eng.mul_region(p, whole, ref);
        eng.mul_region(p, whole, whole);
        EXPECT_EQ(buf, ref);
        expect_invalid(
            [&] { eng.mul_region(p, whole.subspan(0, 16), whole.subspan(1, 16)); },
            mul_msg);
        expect_invalid(
            [&] {
                eng.addmul_region(p, whole.subspan(15, 16), whole.subspan(0, 16));
            },
            addmul_msg);
    }

    // u64 layout.
    {
        const field::Field f64 = field::table5_fields()[1].make();  // (64,23)
        const RegionEngine eng{f64.ops()};
        const auto p = eng.prepare(0xBEEF);
        std::vector<std::uint64_t> buf(32, 3);
        const std::span<std::uint64_t> whole{buf};
        std::vector<std::uint64_t> ref(32, 0);
        eng.mul_region(p, whole, ref);
        eng.mul_region(p, whole, whole);
        EXPECT_EQ(buf, ref);
        expect_invalid(
            [&] { eng.mul_region(p, whole.subspan(0, 16), whole.subspan(1, 16)); },
            mul_msg);
        expect_invalid(
            [&] { eng.mul_region(p, whole.subspan(1, 16), whole.subspan(0, 16)); },
            mul_msg);
        expect_invalid(
            [&] {
                eng.addmul_region(p, whole.subspan(0, 16), whole.subspan(15, 16));
            },
            addmul_msg);
    }

    // Multi-word layout.
    {
        const field::Field f163 = field::table5_fields()[7].make();
        const RegionEngine eng{f163.ops()};
        const auto p = eng.prepare(gf2::Poly::from_exponents({2, 0}));
        const std::size_t mw = f163.ops().elem_words();
        std::vector<std::uint64_t> buf(4 * mw, 1);
        const std::span<std::uint64_t> whole{buf};
        expect_invalid(
            [&] {
                eng.mul_region_mw(p, whole.subspan(0, 2 * mw),
                                  whole.subspan(mw, 2 * mw));
            },
            "RegionEngine::mul_region_mw: src and dst overlap partially (dst "
            "must alias src exactly or not at all)");
        expect_invalid(
            [&] {
                eng.addmul_region_mw(p, whole.subspan(mw, 2 * mw),
                                     whole.subspan(0, 2 * mw));
            },
            "RegionEngine::addmul_region_mw: src and dst overlap partially "
            "(dst must alias src exactly or not at all)");
    }
}

TEST(RegionErrors, U16LayoutGateAndProvenance) {
    // The dense u16 layout exists only for 8 < m <= 16; byte-capable
    // fields must keep using the byte layout (their prepare never builds
    // split16 tables), and larger fields overflow a u16 symbol.
    const std::string gate_msg =
        "RegionEngine: u16 layout requires 8 < m <= 16 (byte-capable fields "
        "use the byte layout)";
    std::vector<std::uint16_t> buf(8, 1);
    {
        const field::Field f8 = field::gf256_paper_field();
        const RegionEngine eng{f8.ops()};
        const auto p = eng.prepare(0x2A);
        expect_invalid([&] { eng.mul_region(p, buf, buf); }, gate_msg);
        expect_invalid([&] { eng.addmul_region(p, buf, buf); }, gate_msg);
        expect_invalid([&] { eng.scale_region(p, buf); }, gate_msg);
    }
    {
        const field::Field f64 = field::table5_fields()[1].make();  // (64,23)
        const RegionEngine eng{f64.ops()};
        const auto p = eng.prepare(5);
        expect_invalid([&] { eng.mul_region(p, buf, buf); }, gate_msg);
    }
    // Prepared provenance across u16-capable fields: same layout, different
    // modulus — the split tables would silently produce the wrong field's
    // products, so pointer identity must throw first.
    const field::Field f16{gf2::Poly::from_exponents({16, 12, 3, 1, 0})};
    const field::Field f13{gf2::Poly::from_exponents({13, 4, 3, 1, 0})};
    const RegionEngine eng16{f16.ops()};
    const RegionEngine eng13{f13.ops()};
    const auto p13 = eng13.prepare(0x7FF);
    expect_invalid([&] { eng16.mul_region(p13, buf, buf); },
                   "RegionEngine: Prepared was built for a different field");
}

// --- ABFT checksum lanes -----------------------------------------------------

TEST(RegionChecked, ChecksumTracksStreamU16Layout) {
    const field::Field f{gf2::Poly::from_exponents({16, 12, 3, 1, 0})};
    const RegionEngine eng{f.ops()};
    const auto p = eng.prepare(0x1D4B);
    std::vector<std::uint16_t> src(321), dst(321, 0);
    for (std::size_t i = 0; i < src.size(); ++i) {
        src[i] = static_cast<std::uint16_t>(0x9E37 * (i + 1));
    }
    const std::uint64_t src_sum =
        eng.region_checksum(std::span<const std::uint16_t>{src});
    std::uint64_t dst_sum = 0;
    eng.mul_region_checked(p, src, src_sum, dst, dst_sum);
    EXPECT_TRUE(
        eng.verify_region(std::span<const std::uint16_t>{dst}, dst_sum).ok());
    eng.addmul_region_checked(p, src, src_sum, dst, dst_sum);
    // dst = c*src ^ c*src = 0 region-wise; the checksum lane agrees.
    const auto ok = eng.verify_region(std::span<const std::uint16_t>{dst}, dst_sum);
    EXPECT_TRUE(ok.ok()) << ok.to_string();
    EXPECT_EQ(dst_sum, 0U);
    dst[100] ^= 0x800;
    const auto bad =
        eng.verify_region(std::span<const std::uint16_t>{dst}, dst_sum);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.fault, guard::Fault::RegionChecksum);
    EXPECT_NE(bad.detail.find("321 u16 symbols"), std::string::npos)
        << bad.detail;
}

TEST(RegionChecked, ChecksumTracksStreamByteLayout) {
    const field::Field f = field::gf256_paper_field();
    const RegionEngine eng{f.ops()};
    const auto p = eng.prepare(0x1D);
    std::vector<std::uint8_t> src(513), dst(513, 0);
    for (std::size_t i = 0; i < src.size(); ++i) {
        src[i] = static_cast<std::uint8_t>(37 * i + 11);
    }
    const std::uint64_t src_sum = eng.region_checksum(std::span<const std::uint8_t>{src});
    std::uint64_t dst_sum = 0;
    eng.mul_region_checked(p, src, src_sum, dst, dst_sum);
    EXPECT_TRUE(eng.verify_region(std::span<const std::uint8_t>{dst}, dst_sum).ok());
    // Accumulate twice more; the lane follows.
    eng.addmul_region_checked(p, src, src_sum, dst, dst_sum);
    eng.addmul_region_checked(p, src, src_sum, dst, dst_sum);
    const auto ok = eng.verify_region(std::span<const std::uint8_t>{dst}, dst_sum);
    EXPECT_TRUE(ok.ok()) << ok.to_string();
    // A single flipped bit anywhere in the region is detected.
    dst[271] ^= 0x40;
    const auto bad = eng.verify_region(std::span<const std::uint8_t>{dst}, dst_sum);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.fault, guard::Fault::RegionChecksum);
    EXPECT_NE(bad.detail.find("513 byte symbols"), std::string::npos)
        << bad.detail;
}

TEST(RegionChecked, ChecksumTracksStreamWordLayout) {
    const field::Field f = field::table5_fields()[1].make();  // (64,23)
    const RegionEngine eng{f.ops()};
    const auto p = eng.prepare(0x123456789ULL);
    std::vector<std::uint64_t> src(97), dst(97, 0);
    for (std::size_t i = 0; i < src.size(); ++i) {
        src[i] = 0x9E3779B97F4A7C15ULL * (i + 1);
    }
    const std::uint64_t src_sum =
        eng.region_checksum(std::span<const std::uint64_t>{src});
    std::uint64_t dst_sum = 0;
    eng.mul_region_checked(p, src, src_sum, dst, dst_sum);
    eng.addmul_region_checked(p, src, src_sum, dst, dst_sum);
    // dst = c*src ^ c*src = 0 region-wise; the checksum lane agrees.
    const auto ok = eng.verify_region(std::span<const std::uint64_t>{dst}, dst_sum);
    EXPECT_TRUE(ok.ok()) << ok.to_string();
    EXPECT_EQ(dst_sum, 0U);
    dst[42] ^= 1;
    const auto bad =
        eng.verify_region(std::span<const std::uint64_t>{dst}, dst_sum);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.fault, guard::Fault::RegionChecksum);
    EXPECT_NE(bad.detail.find("97 u64 symbols"), std::string::npos) << bad.detail;
}

TEST(RegionChecked, ChecksumIndependentOfKernelSelection) {
    // The checksum lane uses the scalar FieldOps::mul path regardless of
    // which kernel moves the data: forced-scalar and dispatched engines
    // must agree on data AND checksum.
    const field::Field f = field::gf256_paper_field();
    const RegionEngine fast{f.ops()};
    const RegionEngine slow{f.ops(), KernelKind::Scalar};
    const auto pf = fast.prepare(0xA7);
    const auto ps = slow.prepare(0xA7);
    std::vector<std::uint8_t> src(256), d1(256, 0), d2(256, 0);
    for (std::size_t i = 0; i < src.size(); ++i) {
        src[i] = static_cast<std::uint8_t>(i);
    }
    const std::uint64_t src_sum =
        fast.region_checksum(std::span<const std::uint8_t>{src});
    std::uint64_t s1 = 0, s2 = 0;
    fast.mul_region_checked(pf, src, src_sum, d1, s1);
    slow.mul_region_checked(ps, src, src_sum, d2, s2);
    EXPECT_EQ(d1, d2);
    EXPECT_EQ(s1, s2);
    EXPECT_TRUE(fast.verify_region(std::span<const std::uint8_t>{d1}, s1).ok());
}

}  // namespace
}  // namespace gfr
