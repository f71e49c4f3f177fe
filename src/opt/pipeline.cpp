// The campaign-gated pipeline: strash -> restructure -> rewrite rounds ->
// final strash (the sweep).  Strash and sweep run on every call; the
// options can only turn restructuring and rewriting off.  After every stage
// the candidate is checked for combinational equivalence against the
// stage's input; a failing stage throws VerificationError and its output is
// discarded, so nothing downstream (mappers, emitters, reports) ever
// consumes an unverified netlist.  A candidate node-for-node identical to
// the stage's input is equivalent by construction and skips the campaign;
// a gate count alone never does.

#include "opt/opt.h"

#include "netlist/clone.h"
#include "netlist/equivalence.h"
#include "netlist/passes.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace gfr::opt {

using netlist::kInvalidNode;
using netlist::Netlist;
using netlist::NodeId;

namespace {

/// Node-for-node identity: the same node count, the same (kind, a, b) at
/// every id, and the same input and output ports (nodes and names, in
/// order).  Identical netlists compute the same function by construction.
bool identical(const Netlist& x, const Netlist& y) {
    if (x.node_count() != y.node_count() || x.inputs().size() != y.inputs().size() ||
        x.outputs().size() != y.outputs().size()) {
        return false;
    }
    for (NodeId id = 0; id < x.node_count(); ++id) {
        const auto& u = x.node(id);
        const auto& v = y.node(id);
        if (u.kind != v.kind || u.a != v.a || u.b != v.b) {
            return false;
        }
    }
    const auto same_ports = [](const std::vector<netlist::Port>& p,
                               const std::vector<netlist::Port>& q) {
        return std::equal(p.begin(), p.end(), q.begin(), [](const auto& s, const auto& t) {
            return s.node == t.node && s.name == t.name;
        });
    };
    return same_ports(x.inputs(), y.inputs()) && same_ports(x.outputs(), y.outputs());
}

std::vector<NodeId> compose_maps(const std::vector<NodeId>& first,
                                 const std::vector<NodeId>& second) {
    std::vector<NodeId> out(first.size(), kInvalidNode);
    for (std::size_t i = 0; i < first.size(); ++i) {
        const NodeId mid = first[i];
        if (mid != kInvalidNode && mid < second.size()) {
            out[i] = second[mid];
        }
    }
    return out;
}

}  // namespace

OptResult optimize(const Netlist& nl, const OptOptions& options) {
    OptResult result;
    // Verbatim replica: 1:1 node ids seed the composed map.
    result.netlist = netlist::clone_netlist(nl, {.intern = false});
    result.node_map.resize(nl.node_count());
    for (NodeId id = 0; id < nl.node_count(); ++id) {
        result.node_map[id] = id;
    }
    result.node_map_valid = true;
    netlist::NetlistStats current = result.netlist.stats();  // of result.netlist

    // Run one stage: verify candidate against the current netlist, record
    // the report, and commit.  `map` is the stage's old->new map, or empty
    // when the stage cannot produce one (restructure); `after` is the
    // candidate's stats.
    const auto commit = [&](const char* name, Netlist&& candidate,
                            std::vector<NodeId>&& map,
                            const netlist::NetlistStats& after) {
        PassReport report;
        report.pass = name;
        const netlist::NetlistStats before = current;
        report.gates_before = before.gates();
        report.gates_after = after.gates();
        report.xor_depth_before = before.xor_depth;
        report.xor_depth_after = after.xor_depth;
        if (options.verify_each_pass) {
            if (!identical(result.netlist, candidate)) {
                const auto mismatch =
                    netlist::check_equivalence(result.netlist, candidate,
                                               options.verify);
                if (mismatch) {
                    throw VerificationError(name, mismatch->to_string());
                }
            }
            report.verified = true;
        }
        if (map.empty()) {
            result.node_map_valid = false;
        } else if (result.node_map_valid) {
            result.node_map = compose_maps(result.node_map, map);
        }
        result.netlist = std::move(candidate);
        current = after;
        result.passes.push_back(std::move(report));
    };

    // Strash (and, at the end, the sweep): re-intern the current netlist.
    const auto strash_stage = [&](const char* name) {
        PassResult r = strash(result.netlist);
        const auto after = r.netlist.stats();
        commit(name, std::move(r.netlist), std::move(r.node_map), after);
    };

    strash_stage("strash");

    if (options.restructure) {
        // Global XOR restructuring via the synthesis passes: best-of over
        // two strategies (ANF regrouping by output signature, and plain
        // fast-extract), mirroring the FPGA flow's strategy search.  Each
        // is what netlist::synthesize builds for it, from one shared dce.
        // These rebuild from flattened equations, so no node map survives.
        const Netlist cleaned = netlist::dce(result.netlist);
        Netlist best = netlist::extract_common_xor_pairs(netlist::group_common_cones(cleaned), 2);
        netlist::NetlistStats best_stats = best.stats();
        Netlist extracted =
            netlist::balance_xor_trees(netlist::extract_common_xor_pairs(cleaned, 2));
        if (const auto stats = extracted.stats(); stats.gates() < best_stats.gates()) {
            best = std::move(extracted);
            best_stats = stats;
        }
        if (best_stats.gates() < current.gates()) {
            commit("restructure", std::move(best), {}, best_stats);
        }
    }

    for (int round = 0; round < options.rewrite_rounds; ++round) {
        const std::int64_t before = current.gates();
        PassResult r = rewrite_cuts(result.netlist, options.rewrite);
        const auto after = r.netlist.stats();
        // Commit even a non-improving round: the result must still pass
        // through the equivalence gate (this is what catches the
        // unsound_for_test hook, whose "rewrite" never improves anything).
        commit("rewrite", std::move(r.netlist), std::move(r.node_map), after);
        if (after.gates() >= before) {
            break;
        }
    }

    strash_stage("sweep");

    return result;
}

}  // namespace gfr::opt
