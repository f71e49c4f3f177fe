#ifndef GFR_NETLIST_CLONE_H
#define GFR_NETLIST_CLONE_H

// Netlist cloning with fault-injection hooks — the mutation substrate of
// the verification tier (tests/testutil.h, perfbench's seeded mutants) and
// the optimizer's starting copy.
//
// Two cloning modes:
//
//   - interned (default): gates are rebuilt through make_and/make_xor, so
//     structural hashing in the destination may merge or simplify rewritten
//     gates.  This is the historical mutation-test behaviour: the copy is
//     functionally faithful to the rewrites, and a rewrite that simplifies
//     to an existing node models a wiring fault rather than a gate fault.
//   - verbatim (intern = false): a node-for-node replica built with the
//     fresh (non-interned) gate API.  Node ids map 1:1 (map[id] == id for
//     every source node), so opt::optimize seeds its composed node map
//     with the identity, and injected gates stay live even when degenerate
//     (XOR(a,a) remains an evaluable gate computing 0).

#include "netlist/netlist.h"

#include <functional>
#include <span>

namespace gfr::netlist {

/// May rewrite one logic gate during clone_netlist: kind and fanins are the
/// *source* netlist's values; rewritten fanins must reference source nodes
/// created before `id` (the clone maps them bottom-up).
using GateHook = std::function<void(NodeId id, GateKind& kind, NodeId& a,
                                    NodeId& b)>;

/// May redirect outputs during clone_netlist: receives the output index,
/// the mapped drivers of ALL outputs (same order as src.outputs()), and the
/// destination netlist (for building extra gates); returns the node to
/// register under this index's original name.  Returning mapped[other]
/// swaps output drivers — the classic transcription fault.
using OutputHook = std::function<NodeId(
    std::size_t index, std::span<const NodeId> mapped, Netlist& dst)>;

struct CloneOptions {
    /// Rebuild gates through the interning builders (see header comment).
    /// Set false for a verbatim replica with 1:1 node ids.
    bool intern = true;
};

/// Structural gate-for-gate copy of `src` with optional fault-injection
/// hooks.  Input/output names and order are preserved.
Netlist clone_netlist(const Netlist& src, const CloneOptions& options = {},
                      const GateHook& gate_hook = nullptr,
                      const OutputHook& output_hook = nullptr);

}  // namespace gfr::netlist

#endif  // GFR_NETLIST_CLONE_H
