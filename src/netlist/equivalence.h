#ifndef GFR_NETLIST_EQUIVALENCE_H
#define GFR_NETLIST_EQUIVALENCE_H

// Combinational equivalence checking between two netlists.
//
// Netlists are compared on matching input/output *names* (order may differ).
// For small input counts the check is exhaustive (64 assignments per
// block); beyond the threshold it falls back to dense random
// vectors.  Random simulation over tens of thousands of lanes is a strong
// filter for XOR/AND logic of this shape: any single wrong product term
// flips ~half of all lanes.
//
// Both netlists compile once into exec::Program tapes.  The blocks, their
// batching into tape passes, the sharding across worker threads and the
// counterexample's coordinates belong to verify::BlockSweep
// (verify/block_sweep.h), the driver mult::MultiplierVerifier shares, so
// verdict and counterexample are identical at any thread count.

#include "netlist/netlist.h"

#include <cstdint>
#include <optional>
#include <string>

namespace gfr::netlist {

/// A concrete counterexample: input assignment plus the differing output.
///
/// input_bits is indexed like lhs.inputs() — NOT like rhs.inputs(), whose
/// declaration order may differ.  input_names carries the matching lhs input
/// names so the assignment is unambiguous however the ports are ordered;
/// to_string() prints name=value pairs.
struct Mismatch {
    std::vector<std::uint8_t> input_bits;  // indexed like lhs.inputs()
    std::vector<std::string> input_names;  // lhs.inputs() names, same indexing
    std::string output_name;
    bool lhs_value = false;
    bool rhs_value = false;

    /// Reproduction coordinates: the campaign seed and the failing sweep
    /// index.  Filled by check_equivalence; to_string() renders them as a
    /// one-line repro recipe (random regime: the per-sweep PRNG seed via
    /// Campaign::derive_sweep_seed is printed too, since that plus the
    /// sweep index pins the exact vectors forever).
    std::uint64_t campaign_seed = 0;
    std::uint64_t sweep_index = ~std::uint64_t{0};  ///< ~0 = not recorded
    bool random_regime = false;

    [[nodiscard]] std::string to_string() const;
};

struct EquivalenceOptions {
    int max_exhaustive_inputs = 22;   ///< exhaustive up to 2^22 assignments
    int random_sweeps = 256;          ///< 64 lanes per sweep when random
    std::uint64_t seed = 0x5eed5eedULL;
    int threads = 0;  ///< campaign workers; <= 0 = hardware concurrency
};

/// Returns std::nullopt when equivalent (under the chosen regime), or the
/// first mismatch found.  Throws std::invalid_argument when the interfaces
/// (input/output name sets) do not match, when the random regime has
/// random_sweeps < 1, or when the exhaustive regime would cover more than
/// 69 inputs.
std::optional<Mismatch> check_equivalence(const Netlist& lhs, const Netlist& rhs,
                                          const EquivalenceOptions& options = {});

}  // namespace gfr::netlist

#endif  // GFR_NETLIST_EQUIVALENCE_H
