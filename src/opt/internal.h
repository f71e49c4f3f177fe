#ifndef GFR_OPT_INTERNAL_H
#define GFR_OPT_INTERNAL_H

// Shared helpers of the optimization passes (not part of the public API).

#include "netlist/netlist.h"
#include "opt/opt.h"

#include <cstdint>
#include <vector>

namespace gfr::opt::internal {

/// strash(nl) with every node v that has subst[v] set replaced by the
/// image of subst[v]; an empty subst substitutes nothing.  Reachability is
/// nl's, so logic the substitution orphans survives until the next strash.
[[nodiscard]] PassResult strash_substituted(const netlist::Netlist& nl,
                                            const std::vector<netlist::NodeId>& subst);

/// Node-for-node identity: the same node count, the same (kind, a, b) at
/// every id, and the same input and output ports (nodes and names, in
/// order).  Identical netlists compute the same function by construction.
[[nodiscard]] bool identical(const netlist::Netlist& x, const netlist::Netlist& y);

/// splitmix64 — deterministic signature/seed derivation for the passes.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30U)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27U)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31U);
}

}  // namespace gfr::opt::internal

#endif  // GFR_OPT_INTERNAL_H
