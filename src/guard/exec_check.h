#ifndef GFR_GUARD_EXEC_CHECK_H
#define GFR_GUARD_EXEC_CHECK_H

// Golden-tape self-test for the exec tape ladder (exec::kTapeLadder; the
// walk itself is guard/ladder.h) — the tape-execution rung of the guard
// discipline in kernel_check.h.
//
// Every non-scalar tape executor exec::dispatch() selects is screened ONCE,
// at first dispatch, by running synthetic golden tapes (an AND/XOR netlist
// shaped to exercise every fused instruction form, and a LUT network with
// cones of every width 0..6 including non-parity truth tables) through the
// candidate backend and comparing bit-exactly against the scalar executor at
// every block width 1..kMaxBlocks.  The backend's fused sweep oracle
// (TapeKernel::oracle) is screened on the same rung: synthetic reduction
// structures at full-row, ragged-tail and sub-vector degrees, diffed
// word-exactly against the scalar oracle with true-product, flipped-bit and
// random got-words at every width.  The scalar executor is the reference
// semantics — pinned by the exec differential tests — and is never screened.
//
// A backend that fails is QUARANTINED: the dispatch downgrades one rung
// (avx512 -> avx2 -> scalar) and the next rung is screened in turn, so a
// faulty vector backend degrades to scalar, never to wrong answers.
//
// GFR_GUARD_FAULT drills the ladder end-to-end in CI with the same spec
// grammar as the bulk kernels (guard::fault_spec_hits): the exec tokens are
// "exec-avx2" / "exec-avx512", and the umbrella tokens ("all", "simd", "1",
// "on", "true", "yes") hit the exec rungs too.

#include "exec/run_kernels.h"
#include "guard/status.h"

#include <vector>

namespace gfr::guard {

/// Screen one tape executor against the scalar reference on the golden
/// tapes, all block widths.  `force_fault` flips one output bit before the
/// first comparison.  The kernel is executed directly — callers must only
/// pass kernels the running CPU supports.
[[nodiscard]] Status selftest_tape_kernel(const exec::TapeKernel& k,
                                          bool force_fault = false);

/// Backends quarantined by the process-wide exec::dispatch() (empty in a
/// healthy process).
[[nodiscard]] const std::vector<Quarantine>& exec_quarantine_report();

}  // namespace gfr::guard

#endif  // GFR_GUARD_EXEC_CHECK_H
