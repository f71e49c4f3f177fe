// Portable scalar tape executor — the reference rung of the exec backend
// ladder: the shared interpreter (run_kernels_generic.h) on plain u64 words,
// one word per block, so the slot stride is exactly the block count.  Every
// vector backend is screened against this rung by the guard tier, and the
// differential tests anchor it to netlist::simulate_interpreted.

#include "exec/run_kernels_generic.h"

#include <cstddef>
#include <cstdint>

namespace gfr::exec {

namespace {

/// Fused sweep oracle, scalar rung: bit-for-bit the word-op sequence of
/// verify::LaneReference::products followed by the m-word compare, per
/// block.  This is the reference the vector oracle rungs are screened
/// against (guard/exec_check.h) and the authority behind every verdict —
/// check_sweep re-extracts any flagged block through the scalar
/// LaneReference before reporting a failure.
void oracle_scalar(const SweepOracleView& ov, const std::uint64_t* in,
                   const std::uint64_t* got, std::uint64_t* diff,
                   std::uint64_t* dwork, int blocks) {
    const auto m = static_cast<std::size_t>(ov.m);
    for (int blk = 0; blk < blocks; ++blk) {
        const std::uint64_t* a = in + static_cast<std::size_t>(blk) * 2 * m;
        const std::uint64_t* b = a + m;
        const std::uint64_t* g = got + static_cast<std::size_t>(blk) * m;
        for (std::size_t t = 0; t < 2 * m - 1; ++t) {
            dwork[t] = 0;
        }
        for (std::size_t i = 0; i < m; ++i) {
            const std::uint64_t ai = a[i];
            if (ai == 0) {
                continue;
            }
            std::uint64_t* row = dwork + i;
            for (std::size_t j = 0; j < m; ++j) {
                row[j] ^= ai & b[j];
            }
        }
        std::uint64_t any = 0;
        for (std::size_t k = 0; k < m; ++k) {
            std::uint64_t c = dwork[k];
            const std::int32_t lo = ov.red_offsets[k];
            const std::int32_t hi = ov.red_offsets[k + 1];
            for (std::int32_t t = lo; t < hi; ++t) {
                c ^= dwork[m + static_cast<std::size_t>(ov.red_indices[t])];
            }
            any |= c ^ g[k];
        }
        diff[blk] = any;
    }
}

}  // namespace

const TapeKernel kTapeScalar{Backend::Scalar, /*word_lanes=*/1,
                             &run<std::uint64_t>, &oracle_scalar};

}  // namespace gfr::exec
