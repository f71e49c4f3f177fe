#ifndef GFR_OPT_OPT_H
#define GFR_OPT_OPT_H

// Netlist optimization pipeline: three mockturtle-style passes over the
// AND/XOR IR.
//
//   strash             — re-intern an arbitrary netlist bottom-up: constant
//                        folding, duplicate-gate merging (structural
//                        hashing) and dead-logic sweep in one pass.  This
//                        also interns fresh gates (verbatim clones, parsed
//                        VHDL, literal elaborations) and sweeps any logic a
//                        pass left dead.
//   rewrite_cuts       — DAG-aware rewriting of <=4-input cuts against a
//                        precomputed optimal-subcircuit database (XAG
//                        functions enumerated to minimal tree cost; the
//                        AND/XOR basis has no inverters, so truth tables
//                        are keyed directly, no NPN canonicalisation
//                        needed).  A candidate is priced by dry-running it
//                        against the destination's structural hash
//                        (find_gate), so sharing with logic that already
//                        exists counts as free — replacements win either by
//                        needing fewer gates or by reusing gates other
//                        cones already built.  Every node's cuts live in
//                        one pool, so the pass allocates per buffer growth,
//                        not per node or candidate.
//   restructure        — global XOR restructuring reusing the synthesis
//                        passes (group_common_cones / fast-extract pair
//                        CSE / depth balancing), best-of over strategies.
//
// optimize() chains them, with strash first and a strash sweep last on
// every call, and gates EVERY pass with the equivalence campaign
// (netlist::check_equivalence rides verify::BlockSweep): a pass whose output
// is not equivalent to its input throws VerificationError and nothing
// downstream ever sees the bad netlist.  The mutation tier proves the gate
// bites (RewriteOptions::unsound_for_test).  The campaign is skipped only
// for output node-for-node identical to the pass input (same node count,
// the same (kind, a, b) at every id, the same ports with the same names),
// which is equivalent by construction; never on gate count alone.  The
// gates compare each pass with its input, not with a spec: to prove an
// optimized multiplier computes A*B mod f, call acv::prove_multiplier on
// the result.

#include "netlist/equivalence.h"
#include "netlist/netlist.h"

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace gfr::opt {

/// Result of one pass: the rebuilt netlist plus an old-id -> new-id map
/// (kInvalidNode for source nodes the pass dropped as dead).  Input and
/// output ports keep their names and order, so any pass output is a drop-in
/// for the original everywhere in the repo.
struct PassResult {
    netlist::Netlist netlist;
    std::vector<netlist::NodeId> node_map;
};

/// Strash/sweep: bottom-up re-intern of the whole netlist.
PassResult strash(const netlist::Netlist& nl);

struct RewriteOptions {
    /// Mutation-tier hook: XOR output 0's driver with primary input 0, a
    /// deliberately unsound rewrite the post-pass campaign must catch.
    bool unsound_for_test = false;
};

/// DAG-aware <=4-cut database rewriting.
PassResult rewrite_cuts(const netlist::Netlist& nl,
                        const RewriteOptions& options = {});

/// One pipeline stage's before/after record.
struct PassReport {
    std::string pass;
    std::int64_t gates_before = 0;
    std::int64_t gates_after = 0;
    std::int64_t xor_depth_before = 0;
    std::int64_t xor_depth_after = 0;
    /// Equivalence campaign ran and passed, or the output is node-for-node
    /// identical to the input.
    bool verified = false;
};

/// A pass produced a netlist that is NOT equivalent to its input.  Carries
/// the failing pass name and the campaign's counterexample.
class VerificationError : public std::runtime_error {
public:
    VerificationError(std::string pass, const std::string& detail)
        : std::runtime_error("opt: pass '" + pass +
                             "' failed post-pass verification: " + detail),
          pass_(std::move(pass)) {}

    [[nodiscard]] const std::string& pass() const noexcept { return pass_; }

private:
    std::string pass_;
};

struct OptOptions {
    /// Global XOR restructuring via the synthesis passes.  When it commits,
    /// it invalidates the node map (see OptResult::node_map_valid).
    bool restructure = true;
    /// Cut-rewriting rounds (0 disables); rounds stop early when a round
    /// stops improving the gate count.
    int rewrite_rounds = 2;
    RewriteOptions rewrite{};
    /// Gate every pass with the equivalence campaign.  Leave on; the off
    /// switch exists for benchmarking the passes themselves.
    bool verify_each_pass = true;
    netlist::EquivalenceOptions verify{};
};

struct OptResult {
    netlist::Netlist netlist;
    std::vector<PassReport> passes;
    /// Composed old-id -> new-id map across all executed passes, valid only
    /// when node_map_valid (the restructure stage rebuilds from flattened
    /// equations and cannot produce one, so it is valid whenever
    /// restructure is off or committed nothing).
    std::vector<netlist::NodeId> node_map;
    bool node_map_valid = false;

    /// Total gate delta across the pipeline.
    [[nodiscard]] std::int64_t gates_before() const noexcept {
        return passes.empty() ? 0 : passes.front().gates_before;
    }
    [[nodiscard]] std::int64_t gates_after() const noexcept {
        return passes.empty() ? 0 : passes.back().gates_after;
    }
};

/// Run the full campaign-gated pipeline.  Throws VerificationError if any
/// pass fails its equivalence check.
OptResult optimize(const netlist::Netlist& nl, const OptOptions& options = {});

}  // namespace gfr::opt

#endif  // GFR_OPT_OPT_H
