#ifndef GFR_VERIFY_LANE_REFERENCE_H
#define GFR_VERIFY_LANE_REFERENCE_H

// Bitsliced (lane-parallel) reference multiplier for verification sweeps.
//
// A verification sweep carries 64 independent operand pairs in lane-major
// words: word i holds bit i of A across all 64 lanes, word m+j holds bit j
// of B.  Instead of transposing lanes out and multiplying them one element
// at a time, LaneReference evaluates the schoolbook product and the
// Mastrovito reduction directly on the lane words —
//
//     d_k = sum_{i+j=k} a_i & b_j            (partial products, bitwise)
//     c_k = d_k  ^  sum_{i in T(k)} d_{m+i}  (reduction-matrix columns)
//
// — computing all 64 reference products in m^2 word operations with no
// per-lane work at all.  The output is already lane-major, so comparing
// against a simulated netlist is m word XORs.  Nothing here depends on the
// field fitting one machine word (one *word per bit*, not per element), so
// it is the sweep oracle at every degree: per-lane engine products would
// pay 2m bit-extractions per lane to transpose operands out and m more to
// gather the netlist output back, which dominates the engine muls at every
// practical degree (BENCH_4 measured that 26x slower at m=163, 8x at m=571).
//
// The arithmetic here shares nothing with FieldOps (no clmul, no window
// tables, no fold clusters) — it is an independent implementation derived
// only from the reduction matrix, which keeps the verification oracle
// structurally separate from the engine it helps check.

#include "field/gf2m.h"

#include <cstdint>
#include <span>
#include <vector>

namespace gfr::verify {

class LaneReference {
public:
    /// Precomputes the reduction-column supports T(k) for the field's
    /// modulus.  Immutable afterwards; share one instance across threads or
    /// give each worker its own (products() needs a caller-owned scratch
    /// either way).
    explicit LaneReference(const field::Field& field);

    [[nodiscard]] int m() const noexcept { return m_; }

    /// The flattened reduction structure, exactly as exec::SweepOracleView
    /// wants it: indices[offsets[k] .. offsets[k+1]) are the i with
    /// Q[i][k] = 1.  Exposed so verify sweeps can hand the structure to the
    /// fused sweep-oracle kernels; the kernels recompute this class's exact
    /// word-op sequence, and products() below stays the scalar authority
    /// for failure extraction.
    [[nodiscard]] std::span<const std::int32_t> reduction_indices() const noexcept {
        return reduction_indices_;
    }
    [[nodiscard]] std::span<const std::int32_t> reduction_offsets() const noexcept {
        return reduction_offsets_;
    }

    /// Scratch for products(): the 2m-1 partial-product words.  One per
    /// worker; reused allocation-free across sweeps.
    struct Scratch {
        std::vector<std::uint64_t> d;
    };

    /// in_words: 2m lane-major words (a0..a(m-1), b0..b(m-1)).
    /// out_words: m lane-major product words c0..c(m-1) (resized on first
    /// use).  Every lane's product is the full reference C = A*B mod f.
    void products(std::span<const std::uint64_t> in_words,
                  std::vector<std::uint64_t>& out_words, Scratch& scratch) const;

private:
    int m_ = 0;
    // T(k) flattened: reduction_indices_[reduction_offsets_[k] ..
    // reduction_offsets_[k+1]) are the i with Q[i][k] = 1.
    std::vector<std::int32_t> reduction_indices_;
    std::vector<std::int32_t> reduction_offsets_;
};

}  // namespace gfr::verify

#endif  // GFR_VERIFY_LANE_REFERENCE_H
