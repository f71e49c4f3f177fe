#ifndef GFR_BULK_KERNELS_H
#define GFR_BULK_KERNELS_H

// Bulk region kernels: the ISA-specific inner loops of the streaming
// GF(2^m) engine, plus the process-wide runtime dispatch that selects them.
//
// This header includes only bulk/cpu.h and guard/ladder.h (which itself
// includes only bulk/cpu.h and guard/status.h).  src/field names one type
// from it — WideParams, which FieldOps::wide_params() fills — and calls
// nothing here.  bulk::RegionEngine (bulk/region_engine.h), the streaming
// API on top of FieldOps, is the one route from callers to these kernels
// and the one builder of their per-constant state.
//
// Kernel families and the per-constant state they consume:
//
//   - Byte kernels (fields with m <= 8, one symbol per byte): split 4-bit
//     shuffle tables — NibbleTables holds c*v and c*(v<<4) for every nibble
//     v, and a multiply is two table lookups XORed.  The SSSE3/AVX2 kernels
//     do 16/32 lookups per PSHUFB; the scalar kernel is the same two loads
//     per byte.  Because table[0] == 0, these kernels are also correct on
//     u64-layout regions of canonical elements reinterpreted as bytes (the
//     seven zero padding bytes of each element multiply to zero).
//     The GFNI kernel is the same family with different per-constant state:
//     multiplication by a fixed constant is GF(2)-linear in the input byte,
//     so it is one 8x8 bit-matrix transform — GF2P8AFFINEQB applies it to 32
//     bytes per instruction under *any* degree-<=8 modulus (the instruction's
//     baked-in AES polynomial is only used by its sibling GF2P8MULB, which we
//     deliberately do not use).  NibbleTables carries the matrix alongside
//     the nibble tables; both describe the same linear map.
//   - Word kernels (any single-word field, one canonical element per u64):
//     wide carry-less multiply — each element is CLMULed by the constant and
//     the 128-bit product folded down through the modulus tails, four
//     elements per pass on the 256-bit VPCLMULQDQ path.  WideParams carries
//     the reduction structure; no per-constant tables.
//   - The portable scalar u64 kernel is the 4-bit window-table walk
//     (word_mul_windows / word_addmul_windows): per-constant tables of
//     c * (v << 4w), one lookup per window — always compiled, bit-identical
//     reference for every SIMD kernel.
//
// Aliasing contract (all kernels): dst may equal src exactly (in-place), or
// the two regions must not overlap at all.  Partial overlap is undefined.
//
// Dispatch: bulk::dispatch() probes the CPU once (bulk/cpu.h) and pins the
// best compiled-and-supported kernel per family through the two guard
// ladders below.  A kernel is only eligible when (a) its translation unit
// was compiled (GFR_BULK_HAVE_* — off on non-x86 targets or with
// -DGFR_BULK_PORTABLE_ONLY=ON) and (b) the running CPU+OS report the ISA,
// so the dispatch can never select an unsupported instruction set.
// Setting the environment variable GFR_BULK_FORCE_SCALAR before first use
// pins the portable scalar kernels (empty, "0", "off", "false" and "no"
// mean unset) — the CI fallback job and A/B benchmarking both use it.

#include "bulk/cpu.h"
#include "guard/ladder.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gfr::bulk {

/// Which ISA a kernel is built on.  Scalar is always available.
/// Adding an enumerator is a compile error (-Werror=switch, no defaults)
/// until every dispatch table in dispatch.cpp handles it; a new rung also
/// needs its place in kByteLadder or kWordLadder.
enum class KernelKind : std::uint8_t { Scalar, Ssse3, Avx2, Vpclmul, Gfni };

[[nodiscard]] const char* kernel_name(KernelKind kind) noexcept;

/// True when the running CPU (per `f`) can execute kernels of this kind.
[[nodiscard]] bool kernel_supported(KernelKind kind, const CpuFeatures& f) noexcept;

/// Per-constant state of the byte kernels: lo[v] = c*v, hi[v] = c*(v<<4)
/// for every 4-bit v, all canonical field bytes.  `matrix` is the same
/// linear map y -> c*y packed for GF2P8AFFINEQB: byte 7-i of the qword is
/// row i, whose bit j is bit i of c*y^j mod f — so output bit i is the
/// parity of (row i AND input byte).  The builder (RegionEngine::prepare)
/// must keep matrix and lo/hi consistent; the GFNI kernel uses the matrix
/// for its vector body and the tables for the scalar tail.
struct NibbleTables {
    std::uint8_t lo[16];
    std::uint8_t hi[16];
    std::uint64_t matrix = 0;
};

/// Per-field (and per-constant) state of the carry-less word kernels.
/// `folds` is the fold-iteration count that provably cancels every excess
/// bit of a product of canonical operands — the vector loop runs exactly
/// that many, branch-free, and a residual check catches (rare,
/// out-of-contract) non-canonical inputs, which are redone scalar.
struct WideParams {
    std::uint64_t c = 0;           ///< canonical constant (const-mul kernels)
    std::uint64_t tails_mask = 0;  ///< f - y^m as a bit mask
    std::uint64_t elem_mask = 0;   ///< low-m ones (all ones when m == 64)
    int m = 0;
    int folds = 1;
};

/// Wide-kernel eligibility bound for RegionEngine's u64 routing: past this
/// fold count the window-table walk beats the branch-free wide kernel
/// (dense or high-tailed moduli; every paper-catalog field folds in 2-3).
inline constexpr int kMaxWideFolds = 4;

/// dst[i] = table-product of src[i]; `addmul` variants XOR into dst instead.
using ByteRegionFn = void (*)(const NibbleTables& t, const std::uint8_t* src,
                              std::uint8_t* dst, std::size_t n);

/// dst[i] = c * src[i] (or ^= for addmul) over canonical u64 elements.
using WordRegionFn = void (*)(const WideParams& p, const std::uint64_t* src,
                              std::uint64_t* dst, std::size_t n);

struct ByteKernel {
    KernelKind kind = KernelKind::Scalar;
    ByteRegionFn mul = nullptr;
    ByteRegionFn addmul = nullptr;
};

struct WordKernel {
    KernelKind kind = KernelKind::Scalar;
    WordRegionFn mul = nullptr;
    WordRegionFn addmul = nullptr;
};

// --- Portable scalar kernels (always compiled) -------------------------------

/// The scalar byte kernel (two nibble-table loads + XOR per byte).
extern const ByteKernel kByteScalar;

/// Scalar u64 const-multiply via per-constant 4-bit window tables
/// (`table[w*16 + v]` = c * (v << 4w) mod f, `windows` = ceil(m/4) of them):
/// RegionEngine's scalar u64 rung and the word family's floor.
void word_mul_windows(const std::uint64_t* table, int windows,
                      const std::uint64_t* src, std::uint64_t* dst,
                      std::size_t n) noexcept;
void word_addmul_windows(const std::uint64_t* table, int windows,
                         const std::uint64_t* src, std::uint64_t* dst,
                         std::size_t n) noexcept;

// --- ISA kernel registries ---------------------------------------------------
// Defined by their translation units; return nullptr when the TU was
// compiled without its ISA (non-x86 target or GFR_BULK_PORTABLE_ONLY).

[[nodiscard]] const ByteKernel* ssse3_byte_kernel() noexcept;
[[nodiscard]] const ByteKernel* avx2_byte_kernel() noexcept;
[[nodiscard]] const ByteKernel* gfni_byte_kernel() noexcept;
[[nodiscard]] const WordKernel* vpclmul_word_kernel() noexcept;

/// The compiled byte kernel of `kind` (Scalar included), or nullptr.
[[nodiscard]] const ByteKernel* byte_kernel(KernelKind kind) noexcept;

/// The compiled non-scalar word kernel of `kind`, or nullptr (the scalar
/// u64 path is the window-table walk above, which needs no WideParams).
[[nodiscard]] const WordKernel* word_kernel(KernelKind kind) noexcept;

// --- Runtime dispatch --------------------------------------------------------

/// Byte family: gfni > avx2 > ssse3 over the kByteScalar floor.  GFNI does
/// one affine transform where the shuffle kernels do two lookups + XOR.
extern const guard::Ladder<KernelKind, ByteKernel> kByteLadder;

/// Word family: vpclmul over a null floor — the window-table walk.
extern const guard::Ladder<KernelKind, WordKernel> kWordLadder;

/// The kernel selection for one (CPU, policy, fault spec).  `byte` always
/// points at a kernel (scalar at worst); `word` is null when no wide
/// carry-less kernel is compiled+supported+healthy, in which case u64
/// callers keep the window walk.
struct Dispatch {
    CpuFeatures cpu;
    bool forced_scalar = false;
    const ByteKernel* byte = nullptr;
    const WordKernel* word = nullptr;
    std::vector<guard::Quarantine> quarantined;  ///< byte rungs, then word
};

/// Screen both ladders over `cpu`: the selection callers may use, with
/// every rung that failed its self-test on the way down.
[[nodiscard]] Dispatch screen_dispatch(const CpuFeatures& cpu, bool force_scalar,
                                       const char* fault_spec);

/// The process-wide dispatch: screen_dispatch over the probed CPU,
/// GFR_BULK_FORCE_SCALAR and GFR_GUARD_FAULT, run once on first call, so
/// callers can never observe a kernel that failed its golden vectors
/// (guard/kernel_check.h).
[[nodiscard]] const Dispatch& dispatch();

}  // namespace gfr::bulk

#endif  // GFR_BULK_KERNELS_H
