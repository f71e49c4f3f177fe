#ifndef GFR_OPT_XAG_DB_H
#define GFR_OPT_XAG_DB_H

// Precomputed optimal-subcircuit database for <=4-input functions in the
// AND/XOR basis (an inverter-free XAG).  Because the basis has no
// inverters, the NPN orbit machinery of a full rewriting engine collapses:
// every representable function f satisfies f(0,0,0,0) = 0 and every input
// permutation of a representable function is enumerated directly, so the
// database keys on the raw 16-bit truth table — no canonicalisation on
// lookup.
//
// Construction is a layered BFS over tree cost: layer 0 holds the four
// input projections and the constant 0; layer c holds every function first
// expressible as AND/XOR of two earlier-layer functions with cost sum
// c - 1.  First discovery is minimal under the tree-cost metric (costs are
// additive and positive).  Tree cost ignores sharing between the two
// operand cones — the rewriter prices real DAG cost at rewrite time by
// dry-running candidates against the destination netlist's structural
// hash, so the database only has to propose good structures, not certify
// their cost.

#include <array>
#include <cstdint>

namespace gfr::opt::internal {

/// Largest tree cost the database enumerates, so one structure has at most
/// this many gates.
inline constexpr int kMaxDatabaseGates = 5;

/// Truth tables of the four leaf variables in 4-variable (16-row) space.
inline constexpr std::array<std::uint16_t, 4> kLeafTruth = {0xAAAA, 0xCCCC,
                                                            0xF0F0, 0xFF00};

class XagDatabase {
public:
    struct Entry {
        std::int8_t cost = -1;  ///< -1 = function not in the database
        bool is_and = false;    ///< root gate kind (meaningful when cost > 0)
        std::uint16_t fa = 0;   ///< fanin truth tables (cost > 0)
        std::uint16_t fb = 0;
    };

    /// The shared database, enumerated up to kMaxDatabaseGates tree cost
    /// on first use (a function-local static, so thread-safe); it builds in
    /// milliseconds.
    static const XagDatabase& instance();

    /// Entry for a truth table; entry.cost < 0 when the function needs more
    /// than kMaxDatabaseGates gates.  Leaves and the constant have cost 0.
    [[nodiscard]] const Entry& entry(std::uint16_t tt) const noexcept {
        return entries_[tt];
    }

private:
    XagDatabase();

    std::array<Entry, 65536> entries_{};
};

}  // namespace gfr::opt::internal

#endif  // GFR_OPT_XAG_DB_H
