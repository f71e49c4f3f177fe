#include "bulk/region_engine.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

namespace gfr::bulk {

RegionEngine::RegionEngine(const field::FieldOps& ops)
    : ops_{&ops}, m_{ops.degree()} {
    init_kernels(KernelKind::Scalar, /*have_forced=*/false);
}

RegionEngine::RegionEngine(const field::FieldOps& ops, KernelKind forced)
    : ops_{&ops}, m_{ops.degree()} {
    init_kernels(forced, /*have_forced=*/true);
}

void RegionEngine::init_kernels(KernelKind forced, bool have_forced) {
    const Dispatch& d = dispatch();
    if (!have_forced) {
        // Auto selection.  Byte-capable fields route their u64 layout
        // through the byte kernels too (the nibble shuffle is cheaper per
        // symbol than a carry-less multiply), so word_kernel_ stays null.
        byte_kernel_ = (m_ <= 8) ? d.byte : &kByteScalar;
        word_kernel_ =
            (m_ > 8 && m_ <= 64 && ops_->fold_bound() <= kMaxWideFolds)
                ? d.word
                : nullptr;
        return;
    }
    switch (forced) {
        case KernelKind::Scalar:
            byte_kernel_ = &kByteScalar;
            word_kernel_ = nullptr;
            return;
        case KernelKind::Ssse3:
        case KernelKind::Avx2:
        case KernelKind::Gfni: {
            if (m_ > 8) {
                throw std::invalid_argument{
                    "RegionEngine: byte kernels require m <= 8"};
            }
            const ByteKernel* k = byte_kernel(forced);
            if (k == nullptr) {
                throw std::invalid_argument{
                    "RegionEngine: kernel not compiled into this binary"};
            }
            if (!kernel_supported(forced, d.cpu)) {
                throw std::invalid_argument{
                    "RegionEngine: kernel not supported by this CPU"};
            }
            byte_kernel_ = k;
            word_kernel_ = nullptr;
            return;
        }
        case KernelKind::Vpclmul: {
            if (m_ > 64) {
                throw std::invalid_argument{
                    "RegionEngine: word kernels require m <= 64"};
            }
            const WordKernel* k = word_kernel(forced);
            if (k == nullptr) {
                throw std::invalid_argument{
                    "RegionEngine: kernel not compiled into this binary"};
            }
            if (!kernel_supported(forced, d.cpu)) {
                throw std::invalid_argument{
                    "RegionEngine: kernel not supported by this CPU"};
            }
            byte_kernel_ = &kByteScalar;
            word_kernel_ = k;
            return;
        }
    }
    throw std::invalid_argument{"RegionEngine: unknown kernel kind"};
}

namespace {

/// Byte-kernel state for a canonical constant c (m <= 8): the nibble
/// products lo[v] = c*v and hi[v] = c*(v << 4), plus the same map packed
/// for GF2P8AFFINEQB.
NibbleTables nibble_tables(const field::FieldOps& ops, std::uint64_t c) {
    NibbleTables t;
    for (std::uint64_t v = 0; v < 16; ++v) {
        t.lo[v] = static_cast<std::uint8_t>(ops.mul(c, v));
        t.hi[v] = static_cast<std::uint8_t>(ops.mul(c, v << 4));
    }
    // Matrix byte 7-i is row i, whose bit j is bit i of c * y^j mod f — the
    // columns of the linear map y -> c*y.  Output bit i of the transform is
    // then parity(row i AND input byte), which is that map exactly.
    for (int j = 0; j < 8; ++j) {
        const std::uint64_t col = ops.mul(c, std::uint64_t{1} << j);
        for (int i = 0; i < 8; ++i) {
            if ((col >> i) & 1U) {
                t.matrix |= std::uint64_t{1} << ((7 - i) * 8 + j);
            }
        }
    }
    return t;
}

/// Window tables of the scalar u64 walk for a canonical constant c:
/// ceil(m/4) x 16 entries, table[w*16 + v] = c * (v << 4w) mod f.
std::vector<std::uint64_t> window_tables(const field::FieldOps& ops,
                                         std::uint64_t c) {
    const int windows = (ops.degree() + 3) / 4;
    std::vector<std::uint64_t> table(static_cast<std::size_t>(windows) * 16, 0);
    for (int w = 0; w < windows; ++w) {
        for (std::uint64_t v = 1; v < 16; ++v) {
            table[static_cast<std::size_t>(w) * 16 + v] =
                ops.mul(c, ops.reduce(0, v << (4 * w)));
        }
    }
    return table;
}

}  // namespace

RegionEngine::Prepared RegionEngine::prepare(std::uint64_t c) const {
    if (!single_word()) {
        throw std::invalid_argument{
            "RegionEngine::prepare(uint64): field needs m <= 64; pass a Poly"};
    }
    Prepared p;
    p.c_ = ops_->reduce(0, c);
    p.ops_ = ops_;
    p.m_ = m_;
    if (m_ <= 8) {
        p.nibbles_ = nibble_tables(*ops_, p.c_);
    }
    if (u16_capable()) {
        // Split-byte tables for the u16 layout: symbol s maps to
        // lo[s & 0xFF] ^ hi[s >> 8], both halves canonical products.
        p.split16_.resize(512);
        for (std::uint64_t v = 0; v < 256; ++v) {
            p.split16_[v] = static_cast<std::uint16_t>(ops_->mul(p.c_, v));
            p.split16_[256 + v] =
                static_cast<std::uint16_t>(ops_->mul(p.c_, v << 8));
        }
    }
    if (word_kernel_ != nullptr) {
        p.wide_ = ops_->wide_params(p.c_);
        p.has_wide_ = true;
    } else if (m_ > 8 || byte_kernel_->kind == KernelKind::Scalar) {
        // Scalar u64 path: the 4-bit window walk.  Built for m <= 8 too
        // when the byte dispatch is scalar: the window walk costs 2 lookups
        // per u64 symbol where the scalar byte kernel over the 8-byte
        // layout would pay 16.
        p.n_windows_ = (m_ + 3) / 4;
        p.windows_ = window_tables(*ops_, p.c_);
    }
    return p;
}

RegionEngine::Prepared RegionEngine::prepare(const gf2::Poly& c) const {
    if (single_word()) {
        gf2::Poly reduced = c;
        ops_->reduce_in_place(reduced);
        const auto words = reduced.words();
        return prepare(words.empty() ? 0 : words[0]);
    }
    gf2::Poly reduced = c;
    ops_->reduce_in_place(reduced);
    Prepared p;
    p.ops_ = ops_;
    p.m_ = m_;
    const auto words = reduced.words();
    p.cwords_.assign(ops_->elem_words(), 0);
    std::copy(words.begin(), words.end(), p.cwords_.begin());
    return p;
}

/// A Prepared only carries the state its preparing engine's kernels need,
/// so using one with another field or another kernel selection must fail
/// loudly, not produce wrong symbols.
void RegionEngine::check_prepared(const Prepared& p, bool need_word) const {
    // Pointer identity on the FieldOps: two fields of equal degree but
    // different moduli would pass a degree check and then reduce with the
    // wrong tails — silent corruption.  Field copies share one FieldOps
    // (shared_ptr), so normal sharing is unaffected.
    if (p.ops_ != ops_ || p.m_ != m_) {
        throw std::invalid_argument{
            "RegionEngine: Prepared was built for a different field"};
    }
    if (need_word && word_kernel_ == nullptr &&
        (m_ > 8 || byte_kernel_->kind == KernelKind::Scalar) &&
        p.n_windows_ == 0) {
        throw std::invalid_argument{
            "RegionEngine: Prepared lacks window tables for the scalar path "
            "(built by an engine with a different kernel selection)"};
    }
    if (need_word && word_kernel_ != nullptr && !p.has_wide_) {
        throw std::invalid_argument{
            "RegionEngine: Prepared lacks wide-kernel parameters (built by "
            "an engine with a different kernel selection)"};
    }
}

namespace {

/// Reject partially-overlapping src/dst at the span entry points: the
/// kernels stream vector-width blocks, so a partial overlap reads a mix of
/// stale and freshly-written symbols depending on direction and ISA —
/// silent corruption, refused loudly instead.  Exact aliasing (dst == src,
/// the in-place form every kernel guarantees) passes.
void check_no_partial_overlap(const void* src, const void* dst,
                              std::size_t bytes, const char* fn) {
    if (src == dst || bytes == 0) {
        return;
    }
    const auto s = reinterpret_cast<std::uintptr_t>(src);
    const auto d = reinterpret_cast<std::uintptr_t>(dst);
    if (s < d + bytes && d < s + bytes) {
        throw std::invalid_argument{
            std::string{fn} +
            ": src and dst overlap partially (dst must alias src exactly or "
            "not at all)"};
    }
}

}  // namespace

// --- Byte layout -------------------------------------------------------------

void RegionEngine::byte_call(bool add, const Prepared& p,
                             const std::uint8_t* src, std::uint8_t* dst,
                             std::size_t n) const {
    if (!byte_capable()) {
        throw std::invalid_argument{
            "RegionEngine: byte layout requires m <= 8"};
    }
    check_prepared(p, /*need_word=*/false);
    (add ? byte_kernel_->addmul : byte_kernel_->mul)(p.nibbles_, src, dst, n);
}

void RegionEngine::mul_region(const Prepared& p,
                              std::span<const std::uint8_t> src,
                              std::span<std::uint8_t> dst) const {
    if (src.size() != dst.size()) {
        throw std::invalid_argument{"RegionEngine::mul_region: length mismatch"};
    }
    check_no_partial_overlap(src.data(), dst.data(), src.size_bytes(),
                             "RegionEngine::mul_region");
    byte_call(false, p, src.data(), dst.data(), src.size());
}

void RegionEngine::addmul_region(const Prepared& p,
                                 std::span<const std::uint8_t> src,
                                 std::span<std::uint8_t> dst) const {
    if (src.size() != dst.size()) {
        throw std::invalid_argument{
            "RegionEngine::addmul_region: length mismatch"};
    }
    check_no_partial_overlap(src.data(), dst.data(), src.size_bytes(),
                             "RegionEngine::addmul_region");
    byte_call(true, p, src.data(), dst.data(), src.size());
}

void RegionEngine::scale_region(const Prepared& p,
                                std::span<std::uint8_t> data) const {
    byte_call(false, p, data.data(), data.data(), data.size());
}

// --- u16 layout --------------------------------------------------------------

void RegionEngine::u16_call(bool add, const Prepared& p,
                            const std::uint16_t* src, std::uint16_t* dst,
                            std::size_t n) const {
    if (!u16_capable()) {
        throw std::invalid_argument{
            "RegionEngine: u16 layout requires 8 < m <= 16 (byte-capable "
            "fields use the byte layout)"};
    }
    check_prepared(p, /*need_word=*/false);
    const std::uint16_t* lo = p.split16_.data();
    const std::uint16_t* hi = lo + 256;
    if (add) {
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint16_t s = src[i];
            dst[i] ^= static_cast<std::uint16_t>(lo[s & 0xFF] ^ hi[s >> 8]);
        }
    } else {
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint16_t s = src[i];
            dst[i] = static_cast<std::uint16_t>(lo[s & 0xFF] ^ hi[s >> 8]);
        }
    }
}

void RegionEngine::mul_region(const Prepared& p,
                              std::span<const std::uint16_t> src,
                              std::span<std::uint16_t> dst) const {
    if (src.size() != dst.size()) {
        throw std::invalid_argument{"RegionEngine::mul_region: length mismatch"};
    }
    check_no_partial_overlap(src.data(), dst.data(), src.size_bytes(),
                             "RegionEngine::mul_region");
    u16_call(false, p, src.data(), dst.data(), src.size());
}

void RegionEngine::addmul_region(const Prepared& p,
                                 std::span<const std::uint16_t> src,
                                 std::span<std::uint16_t> dst) const {
    if (src.size() != dst.size()) {
        throw std::invalid_argument{
            "RegionEngine::addmul_region: length mismatch"};
    }
    check_no_partial_overlap(src.data(), dst.data(), src.size_bytes(),
                             "RegionEngine::addmul_region");
    u16_call(true, p, src.data(), dst.data(), src.size());
}

void RegionEngine::scale_region(const Prepared& p,
                                std::span<std::uint16_t> data) const {
    u16_call(false, p, data.data(), data.data(), data.size());
}

// --- u64 layout --------------------------------------------------------------

void RegionEngine::word_call(bool add, const Prepared& p,
                             const std::uint64_t* src, std::uint64_t* dst,
                             std::size_t n) const {
    if (!single_word()) {
        throw std::invalid_argument{
            "RegionEngine: u64 layout requires m <= 64; use the _mw calls"};
    }
    check_prepared(p, /*need_word=*/true);
    if (word_kernel_ != nullptr) {
        (add ? word_kernel_->addmul : word_kernel_->mul)(p.wide_, src, dst, n);
        return;
    }
    if (m_ <= 8 && byte_kernel_->kind != KernelKind::Scalar) {
        // Canonical elements keep their top seven bytes zero, and the
        // nibble tables map zero bytes to zero, so the SIMD byte kernels
        // apply directly to the (little-endian) u64 layout.  The scalar
        // dispatch skips this: two window lookups per symbol beat sixteen
        // nibble lookups over the padding bytes.
        (add ? byte_kernel_->addmul : byte_kernel_->mul)(
            p.nibbles_, reinterpret_cast<const std::uint8_t*>(src),
            reinterpret_cast<std::uint8_t*>(dst), n * sizeof(std::uint64_t));
        return;
    }
    (add ? word_addmul_windows : word_mul_windows)(p.windows_.data(),
                                                   p.n_windows_, src, dst, n);
}

void RegionEngine::mul_region(const Prepared& p,
                              std::span<const std::uint64_t> src,
                              std::span<std::uint64_t> dst) const {
    if (src.size() != dst.size()) {
        throw std::invalid_argument{"RegionEngine::mul_region: length mismatch"};
    }
    check_no_partial_overlap(src.data(), dst.data(), src.size_bytes(),
                             "RegionEngine::mul_region");
    word_call(false, p, src.data(), dst.data(), src.size());
}

void RegionEngine::addmul_region(const Prepared& p,
                                 std::span<const std::uint64_t> src,
                                 std::span<std::uint64_t> dst) const {
    if (src.size() != dst.size()) {
        throw std::invalid_argument{
            "RegionEngine::addmul_region: length mismatch"};
    }
    check_no_partial_overlap(src.data(), dst.data(), src.size_bytes(),
                             "RegionEngine::addmul_region");
    word_call(true, p, src.data(), dst.data(), src.size());
}

void RegionEngine::scale_region(const Prepared& p,
                                std::span<std::uint64_t> data) const {
    word_call(false, p, data.data(), data.data(), data.size());
}

// --- ABFT checksum lanes -----------------------------------------------------

std::uint64_t RegionEngine::region_checksum(
    std::span<const std::uint8_t> data) const noexcept {
    // Byte XOR is position-independent, so fold eight lanes per iteration
    // through a word accumulator and collapse its bytes at the end; the
    // ingest fold then runs at memory speed instead of byte speed.
    std::uint64_t acc = 0;
    std::size_t i = 0;
    for (; i + 8 <= data.size(); i += 8) {
        std::uint64_t w;
        std::memcpy(&w, data.data() + i, 8);
        acc ^= w;
    }
    std::uint8_t sum = 0;
    for (int s = 0; s < 64; s += 8) {
        sum ^= static_cast<std::uint8_t>(acc >> s);
    }
    for (; i < data.size(); ++i) {
        sum ^= data[i];
    }
    return sum;
}

std::uint64_t RegionEngine::region_checksum(
    std::span<const std::uint16_t> data) const noexcept {
    std::uint16_t sum = 0;
    for (const std::uint16_t v : data) {
        sum = static_cast<std::uint16_t>(sum ^ v);
    }
    return sum;
}

std::uint64_t RegionEngine::region_checksum(
    std::span<const std::uint64_t> data) const noexcept {
    std::uint64_t sum = 0;
    for (const std::uint64_t v : data) {
        sum ^= v;
    }
    return sum;
}

void RegionEngine::mul_region_checked(const Prepared& p,
                                      std::span<const std::uint8_t> src,
                                      std::uint64_t src_sum,
                                      std::span<std::uint8_t> dst,
                                      std::uint64_t& dst_sum) const {
    mul_region(p, src, dst);
    dst_sum = ops_->mul(p.c_, src_sum);
}

void RegionEngine::mul_region_checked(const Prepared& p,
                                      std::span<const std::uint16_t> src,
                                      std::uint64_t src_sum,
                                      std::span<std::uint16_t> dst,
                                      std::uint64_t& dst_sum) const {
    mul_region(p, src, dst);
    dst_sum = ops_->mul(p.c_, src_sum);
}

void RegionEngine::mul_region_checked(const Prepared& p,
                                      std::span<const std::uint64_t> src,
                                      std::uint64_t src_sum,
                                      std::span<std::uint64_t> dst,
                                      std::uint64_t& dst_sum) const {
    mul_region(p, src, dst);
    dst_sum = ops_->mul(p.c_, src_sum);
}

void RegionEngine::addmul_region_checked(const Prepared& p,
                                         std::span<const std::uint8_t> src,
                                         std::uint64_t src_sum,
                                         std::span<std::uint8_t> dst,
                                         std::uint64_t& dst_sum) const {
    addmul_region(p, src, dst);
    dst_sum ^= ops_->mul(p.c_, src_sum);
}

void RegionEngine::addmul_region_checked(const Prepared& p,
                                         std::span<const std::uint16_t> src,
                                         std::uint64_t src_sum,
                                         std::span<std::uint16_t> dst,
                                         std::uint64_t& dst_sum) const {
    addmul_region(p, src, dst);
    dst_sum ^= ops_->mul(p.c_, src_sum);
}

void RegionEngine::addmul_region_checked(const Prepared& p,
                                         std::span<const std::uint64_t> src,
                                         std::uint64_t src_sum,
                                         std::span<std::uint64_t> dst,
                                         std::uint64_t& dst_sum) const {
    addmul_region(p, src, dst);
    dst_sum ^= ops_->mul(p.c_, src_sum);
}

namespace {

std::string checksum_hex(std::uint64_t v) {
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(v));
    return buf;
}

guard::Status checksum_verdict(std::uint64_t computed, std::uint64_t expected,
                               std::size_t n, const char* layout) {
    if (computed == expected) {
        return guard::Status::good();
    }
    return guard::Status::fail(
        guard::Fault::RegionChecksum,
        std::string{"region checksum mismatch over "} + std::to_string(n) +
            " " + layout + " symbols: computed " + checksum_hex(computed) +
            ", maintained " + checksum_hex(expected));
}

}  // namespace

guard::Status RegionEngine::verify_region(std::span<const std::uint8_t> data,
                                          std::uint64_t expected_sum) const {
    return checksum_verdict(region_checksum(data), expected_sum, data.size(),
                            "byte");
}

guard::Status RegionEngine::verify_region(std::span<const std::uint16_t> data,
                                          std::uint64_t expected_sum) const {
    return checksum_verdict(region_checksum(data), expected_sum, data.size(),
                            "u16");
}

guard::Status RegionEngine::verify_region(std::span<const std::uint64_t> data,
                                          std::uint64_t expected_sum) const {
    return checksum_verdict(region_checksum(data), expected_sum, data.size(),
                            "u64");
}

// --- Multi-word layout -------------------------------------------------------

void RegionEngine::mw_call(bool add, const Prepared& p,
                           std::span<const std::uint64_t> src,
                           std::span<std::uint64_t> dst,
                           field::FieldOps::Scratch& scratch) const {
    const std::size_t mw = ops_->elem_words();
    if (src.size() != dst.size() || src.size() % mw != 0) {
        throw std::invalid_argument{
            "RegionEngine: multi-word spans must be equal multiples of "
            "elem_words()"};
    }
    check_no_partial_overlap(src.data(), dst.data(), src.size_bytes(),
                             add ? "RegionEngine::addmul_region_mw"
                                 : "RegionEngine::mul_region_mw");
    check_prepared(p, /*need_word=*/false);
    if (p.cwords_.size() != mw) {
        throw std::invalid_argument{
            "RegionEngine: Prepared constant does not match this field"};
    }
    const std::size_t n = src.size() / mw;
    const std::size_t pn = 2 * mw;
    scratch.wprod.assign(pn, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t* e = src.data() + i * mw;
        std::uint64_t* o = dst.data() + i * mw;
        bool zero = true;
        for (std::size_t k = 0; k < mw; ++k) {
            zero = zero && e[k] == 0;
        }
        if (zero) {
            if (!add) {
                std::fill(o, o + mw, 0);
            }
            continue;
        }
        std::fill(scratch.wprod.begin(), scratch.wprod.end(), 0);
        gf2::mul_words(e, mw, p.cwords_.data(), mw, scratch.wprod.data(),
                       scratch.arena);
        ops_->reduce_words(scratch.wprod.data(), pn);
        if (add) {
            for (std::size_t k = 0; k < mw; ++k) {
                o[k] ^= scratch.wprod[k];
            }
        } else {
            std::copy_n(scratch.wprod.begin(), mw, o);
        }
    }
}

void RegionEngine::mul_region_mw(const Prepared& p,
                                 std::span<const std::uint64_t> src,
                                 std::span<std::uint64_t> dst,
                                 field::FieldOps::Scratch& scratch) const {
    mw_call(false, p, src, dst, scratch);
}

void RegionEngine::addmul_region_mw(const Prepared& p,
                                    std::span<const std::uint64_t> src,
                                    std::span<std::uint64_t> dst,
                                    field::FieldOps::Scratch& scratch) const {
    mw_call(true, p, src, dst, scratch);
}

}  // namespace gfr::bulk
