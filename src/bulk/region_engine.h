#ifndef GFR_BULK_REGION_ENGINE_H
#define GFR_BULK_REGION_ENGINE_H

// bulk::RegionEngine — the streaming region API of the bulk subsystem.
//
// The unit of work here is a *buffer*, not an element: Reed-Solomon
// encoders, erasure-coding interleavers and verification sweeps multiply
// one constant across kilobytes of symbols, and the multiply-accumulate
// form `dst ^= c * src` is the inner operation of systematic RS encoding.
// RegionEngine wraps a field::FieldOps with exactly that traffic shape:
//
//   mul_region(prep, src, dst)     dst[i]  = c * src[i]
//   addmul_region(prep, src, dst)  dst[i] ^= c * src[i]
//   scale_region(prep, data)       data[i] = c * data[i]   (in place)
//
// over four element layouts:
//
//   - byte spans (fields with m <= 8): one symbol per byte — the dense
//     layout bulk byte traffic actually uses;
//   - u16 spans (fields with 8 < m <= 16): one symbol per uint16 — the
//     dense layout of the GF(2^16) erasure-codec tier (PAR2-style fields);
//     served by per-constant split-byte tables (lo[v] = c*v, hi[v] =
//     c*(v<<8); two lookups + XOR per symbol);
//   - u64 spans (any single-word field): one canonical element per word;
//   - multi-word spans (m > 64): elem_words() consecutive words per
//     symbol, span length a multiple of elem_words().
//
// Kernel selection happens ONCE, at engine construction, from the
// process-wide bulk::dispatch() (runtime CPUID): AVX2/SSSE3 nibble-shuffle
// kernels for the byte layout, the VPCLMULQDQ wide kernel for u64 spans,
// and the portable scalar kernels (nibble tables / 4-bit window tables)
// everywhere else — always compiled, bit-identical on canonical operands,
// and the reference the differential tests hold every SIMD kernel to.  The
// forcing constructor pins a specific kernel kind (throwing if that kind is
// not compiled into the binary, not supported by the running CPU, or not
// applicable to the field) — tests and benches use it; regular callers use
// the auto-selecting constructor and can never land on an unsupported ISA.
//
// Per-constant state lives in a Prepared (nibble tables, window tables, or
// just the reduction parameters, depending on field and kernel): build one
// per generator coefficient, reuse it for the life of the stream.
//
// Contracts:
//   - Operands must be canonical (degree < m); the table kernels do not
//     reduce higher bits.
//   - dst may equal src exactly (in-place); *partial* overlap is rejected
//     with std::invalid_argument at every span entry point (the kernels
//     would stream stale or freshly-written bytes depending on direction
//     and vector width — silent corruption, so the engine refuses).
//   - The engine borrows the FieldOps (no copy): keep it alive for the
//     engine's lifetime, as Field does for its ops().
//   - Everything is immutable after construction; multi-word calls draw
//     working buffers from a caller FieldOps::Scratch (or the thread-local
//     default), so one engine serves concurrent threads — the FieldOps
//     discipline.

#include "bulk/kernels.h"
#include "field/field_ops.h"
#include "gf2/gf2_poly.h"
#include "guard/status.h"

#include <cstdint>
#include <span>
#include <vector>

namespace gfr::bulk {

class RegionEngine {
public:
    /// Best compiled kernels the running CPU supports (bulk::dispatch()).
    explicit RegionEngine(const field::FieldOps& ops);

    /// Pin one kernel kind for both layouts where applicable (the other
    /// layout falls back to scalar).  Throws std::invalid_argument when the
    /// kind is not compiled, not supported by this CPU, or not applicable
    /// to the field (byte kernels need m <= 8, word kernels m <= 64).
    RegionEngine(const field::FieldOps& ops, KernelKind forced);

    [[nodiscard]] const field::FieldOps& ops() const noexcept { return *ops_; }
    [[nodiscard]] int degree() const noexcept { return m_; }

    /// True when the byte layout applies (every symbol fits one byte).
    [[nodiscard]] bool byte_capable() const noexcept { return m_ <= 8; }
    /// True when the u16 layout applies (byte-capable fields use the byte
    /// layout instead — denser and SIMD-served).
    [[nodiscard]] bool u16_capable() const noexcept {
        return m_ > 8 && m_ <= 16;
    }
    [[nodiscard]] bool single_word() const noexcept { return m_ <= 64; }

    /// Kernel serving byte-layout calls (meaningful when byte_capable()).
    [[nodiscard]] KernelKind byte_kernel_kind() const noexcept {
        return byte_kernel_->kind;
    }
    /// Kernel serving u64-layout calls (meaningful when single_word()):
    /// Scalar means the window-table walk (or, for m <= 8, the scalar
    /// nibble walk over the reinterpreted byte layout).
    [[nodiscard]] KernelKind word_kernel_kind() const noexcept {
        return word_kernel_ != nullptr ? word_kernel_->kind
                                       : KernelKind::Scalar;
    }

    /// Per-constant prepared state.  Immutable; share freely across
    /// threads.  Build via RegionEngine::prepare — the state is tailored to
    /// that engine's field and kernel selection, and every region call
    /// validates the match (a Prepared from another field, or from an
    /// engine with a different kernel selection, throws instead of
    /// producing wrong symbols).
    class Prepared {
    public:
        [[nodiscard]] std::uint64_t constant() const noexcept { return c_; }

    private:
        friend class RegionEngine;
        std::uint64_t c_ = 0;             ///< canonical constant, m <= 64
        const field::FieldOps* ops_ = nullptr;  ///< preparing engine's field
        int m_ = -1;                      ///< degree of the preparing engine
        bool has_wide_ = false;           ///< wide_ filled (word kernel)
        NibbleTables nibbles_{};          ///< m <= 8
        WideParams wide_{};               ///< single-word carry-less kernel
        std::vector<std::uint64_t> windows_;  ///< scalar m > 8 fallback
        int n_windows_ = 0;
        std::vector<std::uint64_t> cwords_;   ///< m > 64: elem_words() words
        /// u16 layout (8 < m <= 16): 512 entries, lo half c*v, hi half
        /// c*(v<<8) for every byte v.
        std::vector<std::uint16_t> split16_;
    };

    /// Prepare a constant given as bits (requires single_word()).
    [[nodiscard]] Prepared prepare(std::uint64_t c) const;

    /// Prepare a constant given as a polynomial (any field; reduced first).
    [[nodiscard]] Prepared prepare(const gf2::Poly& c) const;

    // --- Byte layout (m <= 8): one symbol per byte ---------------------------

    void mul_region(const Prepared& p, std::span<const std::uint8_t> src,
                    std::span<std::uint8_t> dst) const;
    void addmul_region(const Prepared& p, std::span<const std::uint8_t> src,
                       std::span<std::uint8_t> dst) const;
    void scale_region(const Prepared& p, std::span<std::uint8_t> data) const;

    // --- u16 layout (8 < m <= 16): one symbol per uint16 ---------------------
    // The GF(2^16) erasure-codec layout: dense (no u64 padding), served by
    // the Prepared's split-byte tables.  Always available — no SIMD tier
    // yet, so forced-kernel engines serve it identically.

    void mul_region(const Prepared& p, std::span<const std::uint16_t> src,
                    std::span<std::uint16_t> dst) const;
    void addmul_region(const Prepared& p, std::span<const std::uint16_t> src,
                       std::span<std::uint16_t> dst) const;
    void scale_region(const Prepared& p, std::span<std::uint16_t> data) const;

    // --- u64 layout (m <= 64): one canonical element per word ----------------

    void mul_region(const Prepared& p, std::span<const std::uint64_t> src,
                    std::span<std::uint64_t> dst) const;
    void addmul_region(const Prepared& p, std::span<const std::uint64_t> src,
                       std::span<std::uint64_t> dst) const;
    void scale_region(const Prepared& p, std::span<std::uint64_t> data) const;

    // --- ABFT checksum lanes (single-word layouts) ---------------------------
    // Algorithm-based fault tolerance over the linearity of the region ops:
    // with S(r) = the XOR-fold (field sum) of region r, multiplication
    // commutes with the fold — S(c*src) = c*S(src) — so ONE independent
    // scalar multiply per region call maintains a running checksum of an
    // entire stream.  The _checked calls run the (possibly SIMD) kernel
    // over the data and update the checksum through FieldOps::mul, a
    // disjoint scalar code path; verify_region recomputes the fold and
    // compares.  A mismatch is a detected data fault (memory bit flip, DMA
    // corruption, kernel miscompute), not a programming error, so it comes
    // back as a guard::Status instead of an exception.  Cost: O(1) per
    // region call plus one O(n) fold per verification point — a few percent
    // on streaming workloads, against re-running the stream for detection.

    /// The ABFT checksum: XOR-fold (field sum) of a region.
    [[nodiscard]] std::uint64_t region_checksum(
        std::span<const std::uint8_t> data) const noexcept;
    [[nodiscard]] std::uint64_t region_checksum(
        std::span<const std::uint16_t> data) const noexcept;
    [[nodiscard]] std::uint64_t region_checksum(
        std::span<const std::uint64_t> data) const noexcept;

    /// dst[i] = c * src[i] and dst_sum = c * src_sum, the latter via the
    /// independent scalar multiply.  `src_sum` must be the maintained
    /// checksum of `src` for the lane to stay sound.
    void mul_region_checked(const Prepared& p,
                            std::span<const std::uint8_t> src,
                            std::uint64_t src_sum, std::span<std::uint8_t> dst,
                            std::uint64_t& dst_sum) const;
    void mul_region_checked(const Prepared& p,
                            std::span<const std::uint16_t> src,
                            std::uint64_t src_sum, std::span<std::uint16_t> dst,
                            std::uint64_t& dst_sum) const;
    void mul_region_checked(const Prepared& p,
                            std::span<const std::uint64_t> src,
                            std::uint64_t src_sum, std::span<std::uint64_t> dst,
                            std::uint64_t& dst_sum) const;

    /// dst[i] ^= c * src[i] and dst_sum ^= c * src_sum.
    void addmul_region_checked(const Prepared& p,
                               std::span<const std::uint8_t> src,
                               std::uint64_t src_sum,
                               std::span<std::uint8_t> dst,
                               std::uint64_t& dst_sum) const;
    void addmul_region_checked(const Prepared& p,
                               std::span<const std::uint16_t> src,
                               std::uint64_t src_sum,
                               std::span<std::uint16_t> dst,
                               std::uint64_t& dst_sum) const;
    void addmul_region_checked(const Prepared& p,
                               std::span<const std::uint64_t> src,
                               std::uint64_t src_sum,
                               std::span<std::uint64_t> dst,
                               std::uint64_t& dst_sum) const;

    /// Recompute the fold of `data` and compare against the maintained
    /// checksum.  Ok, or a Fault::RegionChecksum Status with coordinates.
    [[nodiscard]] guard::Status verify_region(std::span<const std::uint8_t> data,
                                              std::uint64_t expected_sum) const;
    [[nodiscard]] guard::Status verify_region(std::span<const std::uint16_t> data,
                                              std::uint64_t expected_sum) const;
    [[nodiscard]] guard::Status verify_region(std::span<const std::uint64_t> data,
                                              std::uint64_t expected_sum) const;

    // --- Multi-word layout (m > 64): elem_words() words per symbol -----------
    // Span lengths must be equal multiples of ops().elem_words().  The
    // carry-less word-level product/reduction kernels (PCLMUL-backed on
    // those builds) run element by element with zero steady-state
    // allocation; `scratch` must not be shared between threads.

    void mul_region_mw(const Prepared& p, std::span<const std::uint64_t> src,
                       std::span<std::uint64_t> dst,
                       field::FieldOps::Scratch& scratch) const;
    void mul_region_mw(const Prepared& p, std::span<const std::uint64_t> src,
                       std::span<std::uint64_t> dst) const {
        mul_region_mw(p, src, dst, field::FieldOps::thread_scratch());
    }
    void addmul_region_mw(const Prepared& p, std::span<const std::uint64_t> src,
                          std::span<std::uint64_t> dst,
                          field::FieldOps::Scratch& scratch) const;
    void addmul_region_mw(const Prepared& p, std::span<const std::uint64_t> src,
                          std::span<std::uint64_t> dst) const {
        addmul_region_mw(p, src, dst, field::FieldOps::thread_scratch());
    }

private:
    void init_kernels(KernelKind forced, bool have_forced);
    void check_prepared(const Prepared& p, bool need_word) const;
    void byte_call(bool add, const Prepared& p, const std::uint8_t* src,
                   std::uint8_t* dst, std::size_t n) const;
    void u16_call(bool add, const Prepared& p, const std::uint16_t* src,
                  std::uint16_t* dst, std::size_t n) const;
    void word_call(bool add, const Prepared& p, const std::uint64_t* src,
                   std::uint64_t* dst, std::size_t n) const;
    void mw_call(bool add, const Prepared& p, std::span<const std::uint64_t> src,
                 std::span<std::uint64_t> dst,
                 field::FieldOps::Scratch& scratch) const;

    const field::FieldOps* ops_;
    int m_ = 0;
    const ByteKernel* byte_kernel_ = nullptr;  ///< non-null when m <= 8
    const WordKernel* word_kernel_ = nullptr;  ///< null → scalar u64 path
};

}  // namespace gfr::bulk

#endif  // GFR_BULK_REGION_ENGINE_H
