#ifndef GFR_NETLIST_PASSES_H
#define GFR_NETLIST_PASSES_H

// Logic-synthesis passes over the netlist IR.
//
// These passes model what the paper's synthesis tool (Xilinx XST) is free to
// do with the *unparenthesised* coefficient equations of Table IV:
//
//   * dce                      — drop logic not reachable from an output
//   * balance_xor_trees        — rebuild XOR trees depth-optimally, preserving
//                                shared (multi-fanout) subterms as units
//   * flatten_to_anf           — collapse each output to its flat XOR of
//                                AND-level leaves, rebuilt as LUT-aware trees
//   * group_common_cones       — flat ANF leaves grouped by the set of
//                                outputs they feed, one shared LUT-aware
//                                tree per group
//   * extract_common_xor_pairs — greedy "fast-extract": repeatedly factor the
//                                XOR pair occurring in the most coefficient
//                                equations into a shared gate (the paper's
//                                "terms that appear in more than one
//                                coefficient could be shared")
//   * synthesize               — the pipeline used by the FPGA flow when a
//                                netlist is mapped with "synthesis freedom"
//
// All passes are pure: they return a new netlist and never mutate the input.
// Every pass preserves functional equivalence (asserted by the test suite).
//
// flatten_to_anf and group_common_cones rebuild each sum with a LUT-aware
// tree builder that packs items into 6-input chunks, each step absorbing the
// item sharing the most wires with the chunk.  It reaches those items
// through per-wire lists, so a sum of L leaves costs O(L log L) plus the
// items met on the chunk's wires; flat ANF at m = 409 sums about 1,000
// leaves per output.

#include "netlist/netlist.h"

namespace gfr::netlist {

struct SynthOptions {
    bool flatten_anf = false;   ///< collapse each output to its flat XOR-of-ANDs
    bool group_cones = false;   ///< regroup ANF leaves by shared output signature
    bool extract_pairs = true;  ///< run fast-extract XOR-pair sharing
    int cse_min_count = 2;      ///< extract only pairs appearing in >= this many sums
    bool balance = true;        ///< rebuild XOR trees depth-optimally
};

/// Rebuild only the logic reachable from outputs.  Inputs are preserved in
/// order even when unused (multiplier verification relies on input order).
Netlist dce(const Netlist& nl);

/// Depth-optimal rebuild of every XOR tree.  Trees are flattened through
/// single-fanout XOR nodes (multi-fanout nodes stay shared units) and rebuilt
/// height-aware (Huffman on leaf depths, so a deep shared unit sits near the
/// root); duplicate leaves cancel mod 2.
Netlist balance_xor_trees(const Netlist& nl);

/// Collapse every output to its flat reduced ANF — an XOR of AND-level
/// leaves — erasing all intermediate XOR structure, then rebuild each output
/// as one complete tree over id-sorted leaves.  This models what a synthesis
/// tool does with the paper's unparenthesised Table IV equations: the source
/// structure is gone and only the Boolean sum remains; identical subtrees
/// across outputs still unify through structural hashing.
Netlist flatten_to_anf(const Netlist& nl);

/// Flatten to reduced ANF, then group leaves by *output signature*: leaves
/// feeding exactly the same set of outputs form one shared XOR unit (built
/// once, used by all of them).  On the paper's multipliers this transform
/// recovers the S_i/T_i function structure from the flat Table IV equations
/// — every product of T_i feeds precisely the coefficients selected by the
/// reduction matrix, so T_i reappears as one group.  A generic, structural
/// stand-in for the sharing a synthesis tool discovers in flat equations.
Netlist group_common_cones(const Netlist& nl);

/// Greedy common-pair extraction across output equations, followed by a
/// balanced rebuild.  Leaves are the non-XOR nodes and the shared XOR
/// subterms; only leaves appearing in at least two output equations are
/// candidates for pairing.  Each equation's leaf list is kept a set:
/// leaves that rebuild onto one node cancel pairwise, and an extracted pair
/// gate already in a list cancels with it instead of entering twice.
Netlist extract_common_xor_pairs(const Netlist& nl);

/// As above with an explicit occurrence threshold: only pairs appearing in
/// at least `min_count` output sums are extracted (higher thresholds share
/// only strongly-reused pairs and fragment the netlist less).
Netlist extract_common_xor_pairs(const Netlist& nl, int min_count);

/// The "synthesis freedom" pipeline: DCE first, then signature grouping or
/// ANF flattening (group_cones wins when both are set), optional pair
/// extraction, and balancing only when neither grouping nor flattening ran
/// (their LUT-aware rebuilds are already min-depth).  No DCE runs after.
Netlist synthesize(const Netlist& nl, const SynthOptions& options);

}  // namespace gfr::netlist

#endif  // GFR_NETLIST_PASSES_H
