#ifndef GFR_GUARD_KERNEL_CHECK_H
#define GFR_GUARD_KERNEL_CHECK_H

// Golden-vector self-tests for the bulk kernel ladders (bulk::kByteLadder,
// bulk::kWordLadder; the walk itself is guard/ladder.h).
//
// Every non-scalar kernel the runtime dispatch selects is screened ONCE, at
// first dispatch, against an implementation-independent reference:
//
//   - byte kernels against a direct two-nibble-table evaluation (the
//     definition, written out here rather than calling kByteScalar, so the
//     reference shares no code with any kernel under test), over
//     deterministic pseudo-random tables and operands, lengths straddling
//     every vector width / tail / alignment case, plus in-place calls;
//   - the wide carry-less word kernel against a Russian-peasant shift-XOR
//     multiplier over GF(2^64)/(y^64 + y^4 + y^3 + y + 1), with
//     WideParams.folds pinned to kMaxWideFolds so the branch-free vector
//     path (not the scalar residual fallback, which shares its translation
//     unit with the kernel) produces every checked value.
//
// A kernel that fails is QUARANTINED: the dispatch is downgraded one rung
// (gfni -> avx2 -> ssse3 -> scalar for bytes; vpclmul -> window-table walk
// for words) and the next rung is screened in turn.  The scalar kernels are
// the reference semantics and are never screened.  Since RegionEngine, the
// one route from callers to these kernels, takes them from
// bulk::dispatch(), a quarantined kernel can never touch user data, and the
// scalar fallback is bit-identical by the engine's differential tests.
//
// GFR_GUARD_FAULT deliberately fails self-tests (a bit flipped in the
// kernel output before comparison) to exercise the quarantine path
// end-to-end in CI: set it to a kernel name ("gfni", "avx2", "ssse3",
// "vpclmul"), a comma-separated list of names, or "all"/"simd"/"1" for
// every non-scalar kernel.

#include "bulk/kernels.h"
#include "guard/status.h"

#include <vector>

namespace gfr::guard {

/// Screen one byte kernel against the direct nibble-table reference.
/// `force_fault` flips one output bit before the first comparison.
[[nodiscard]] Status selftest_byte_kernel(const bulk::ByteKernel& k,
                                          bool force_fault = false);

/// Screen one word kernel (mul / addmul) against the peasant-multiply
/// reference.  `force_fault` as above.
[[nodiscard]] Status selftest_word_kernel(const bulk::WordKernel& k,
                                          bool force_fault = false);

/// Kernels quarantined by the process-wide bulk::dispatch() (empty in a
/// healthy process): byte rungs first, then the word rung.
[[nodiscard]] const std::vector<Quarantine>& quarantine_report();

}  // namespace gfr::guard

#endif  // GFR_GUARD_KERNEL_CHECK_H
