#ifndef GFR_RS_CODEC_H
#define GFR_RS_CODEC_H

// rs::Codec — the systematic Reed-Solomon erasure codec over the bulk
// region engine.  This is the storage-workload face of the paper's
// reconfigurable GF(2^m) multipliers: one codec instance is an (n, k) MDS
// code over a caller-chosen field (any irreducible modulus with m <= 64 —
// reconfigurability is the point), encoding k data shards into n-k parity
// shards and reconstructing ANY <= n-k lost shards from the survivors.
//
//   encode:  parity[r] = sum_c P[r][c] * data[c]   (region addmuls)
//   decode:  pick k surviving rows of [I ; P], invert that k x k matrix
//            over GF(2^m) (rs_matrix.h), and region-multiply the survivor
//            shards by the inverse rows to rebuild each lost data shard;
//            lost parity is then re-encoded from the completed data.
//
// Shard layouts follow the field degree, one symbol per element:
//   - m <= 8:       std::uint8_t shards (byte layout; SSSE3/AVX2/GFNI
//                   kernels via bulk::dispatch)
//   - 8 < m <= 16:  std::uint16_t shards (the GF(2^16) tier's dense
//                   layout; split-byte tables)
//   - m <= 64:      std::uint64_t shards (one canonical element per word;
//                   VPCLMULQDQ or window-walk kernels)
//
// All region traffic goes through ONE RegionEngine constructed with the
// codec (kernel selection happens once); the forcing constructor pins a
// kernel kind exactly like RegionEngine's, which is how the tests and
// perfbench `rs` hold every SIMD path bit-identical to forced-scalar.
//
// Thread-safety: immutable after construction; decode builds its survivor
// inverse on the stack, so const calls are safe concurrently.

#include "bulk/region_engine.h"
#include "rs/rs_matrix.h"

#include <cstdint>
#include <span>
#include <vector>

namespace gfr::rs {

/// Which MDS generator family builds the parity matrix (rs_matrix.h).
enum class GeneratorKind { Cauchy, Vandermonde };

class Codec {
public:
    /// (n, k) code over ops' field, auto-selected region kernels.
    /// Throws std::invalid_argument unless 1 <= k < n, n <= 2^m, m <= 64.
    Codec(const field::FieldOps& ops, int n, int k,
          GeneratorKind kind = GeneratorKind::Cauchy);

    /// Same, but pins the region-kernel kind (tests/benches); throws what
    /// RegionEngine's forcing constructor throws for bad kinds.
    Codec(const field::FieldOps& ops, int n, int k, GeneratorKind kind,
          bulk::KernelKind forced);

    [[nodiscard]] int n() const noexcept { return n_; }
    [[nodiscard]] int k() const noexcept { return k_; }
    [[nodiscard]] int parity_shards() const noexcept { return n_ - k_; }
    [[nodiscard]] GeneratorKind generator_kind() const noexcept { return kind_; }
    [[nodiscard]] const Matrix& parity_matrix() const noexcept { return parity_; }
    [[nodiscard]] const bulk::RegionEngine& engine() const noexcept {
        return engine_;
    }

    // --- encode: data.size() == k, parity.size() == n-k, equal lengths ----
    // Layout must match the field degree (see the header comment); the
    // wrong layout throws the RegionEngine's layout gate.

    void encode(const std::vector<std::span<const std::uint8_t>>& data,
                const std::vector<std::span<std::uint8_t>>& parity) const;
    void encode(const std::vector<std::span<const std::uint16_t>>& data,
                const std::vector<std::span<std::uint16_t>>& parity) const;
    void encode(const std::vector<std::span<const std::uint64_t>>& data,
                const std::vector<std::span<std::uint64_t>>& parity) const;

    // --- decode: shards.size() == n (data then parity), present.size() == n
    // Every shard span must be allocated (equal lengths) — missing shards'
    // contents are ignored on input and fully rewritten.  Reconstructs all
    // absent shards in place; throws std::invalid_argument when fewer than
    // k shards are present (more than n-k erasures is beyond any MDS code).

    void decode(const std::vector<std::span<std::uint8_t>>& shards,
                const std::vector<bool>& present) const;
    void decode(const std::vector<std::span<std::uint16_t>>& shards,
                const std::vector<bool>& present) const;
    void decode(const std::vector<std::span<std::uint64_t>>& shards,
                const std::vector<bool>& present) const;

private:
    template <typename T>
    void encode_impl(const std::vector<std::span<const T>>& data,
                     const std::vector<std::span<T>>& parity) const;
    template <typename T>
    void decode_impl(const std::vector<std::span<T>>& shards,
                     const std::vector<bool>& present) const;

    const field::FieldOps* ops_;
    int n_;
    int k_;
    GeneratorKind kind_;
    bulk::RegionEngine engine_;
    Matrix parity_;  ///< (n-k) x k
    /// Prepared per parity coefficient, row-major (n-k) x k — built once,
    /// shared by every encode call and the parity-regeneration decode step.
    std::vector<bulk::RegionEngine::Prepared> prepared_;
};

}  // namespace gfr::rs

#endif  // GFR_RS_CODEC_H
