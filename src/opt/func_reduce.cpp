// Functional reduction: random-pattern simulation signatures propose
// equivalences the structural hash cannot see (differently-shaped cones
// computing the same function); every proposed merge is confirmed by
// netlist::check_equivalence on the two extracted cones before it is
// applied.  Signatures are 64-lane words, so the default 4 words filter
// candidates through 256 random patterns — for AND/XOR logic of this shape
// a single wrong product term flips about half of all lanes, so surviving
// pairs are almost always genuinely equivalent and the confirmation step
// is cheap in aggregate.
//
// The merge direction is always later-node-into-earlier-representative,
// which keeps the substitution acyclic in the topological node order.
//
// Candidate classes are runs of equal signature hashes in one sorted array
// of (hash, id) pairs, so classes are confirmed in ascending hash order
// (which decides what merges only when max_confirmations binds).  When
// nothing merges, the pass costs one strash: see the rebuild step.

#include "opt/internal.h"
#include "opt/opt.h"

#include "netlist/equivalence.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

namespace gfr::opt {

using netlist::GateKind;
using netlist::kInvalidNode;
using netlist::Netlist;
using netlist::NodeId;

namespace {

/// Primary-input support of a cone, as source input node ids (ascending).
std::vector<NodeId> cone_support(const Netlist& nl, NodeId root) {
    std::vector<NodeId> support;
    std::vector<std::uint8_t> seen(nl.node_count(), 0);
    std::vector<NodeId> stack{root};
    seen[root] = 1;
    while (!stack.empty()) {
        const NodeId v = stack.back();
        stack.pop_back();
        const auto& node = nl.node(v);
        if (node.kind == GateKind::Input) {
            support.push_back(v);
            continue;
        }
        if (node.kind != GateKind::And2 && node.kind != GateKind::Xor2) {
            continue;
        }
        for (const NodeId f : {node.a, node.b}) {
            if (!seen[f]) {
                seen[f] = 1;
                stack.push_back(f);
            }
        }
    }
    std::sort(support.begin(), support.end());
    return support;
}

/// Extract the cone of `root` into a standalone netlist whose inputs are
/// exactly `shared_inputs` (source input ids, in source declaration order)
/// and whose single output is named "y".  Giving both cones of a candidate
/// pair the same input interface makes them directly comparable by
/// check_equivalence even when their supports differ.
Netlist extract_cone(const Netlist& nl, NodeId root,
                     const std::vector<NodeId>& shared_inputs) {
    Netlist cone;
    std::unordered_map<NodeId, NodeId> memo;
    for (const NodeId iid : shared_inputs) {
        NodeId mapped = kInvalidNode;
        for (const auto& port : nl.inputs()) {
            if (port.node == iid) {
                mapped = cone.add_input(port.name);
                break;
            }
        }
        memo.emplace(iid, mapped);
    }
    // Iterative post-order build (cones of generated multipliers can be
    // thousands of levels deep before balancing).
    std::vector<std::pair<NodeId, bool>> stack{{root, false}};
    while (!stack.empty()) {
        const auto [v, expanded] = stack.back();
        stack.pop_back();
        if (memo.contains(v)) {
            continue;
        }
        const auto& node = nl.node(v);
        if (node.kind == GateKind::Const0) {
            memo.emplace(v, cone.const0());
            continue;
        }
        if (node.kind == GateKind::Input) {
            // Inputs outside shared_inputs cannot occur: shared_inputs is
            // the union of both cones' supports.
            memo.emplace(v, cone.add_input("unreferenced"));
            continue;
        }
        if (!expanded) {
            stack.push_back({v, true});
            stack.push_back({node.a, false});
            stack.push_back({node.b, false});
            continue;
        }
        const NodeId fa = memo.at(node.a);
        const NodeId fb = memo.at(node.b);
        memo.emplace(v, node.kind == GateKind::And2 ? cone.make_and(fa, fb)
                                                    : cone.make_xor(fa, fb));
    }
    cone.add_output("y", memo.at(root));
    return cone;
}

bool is_identity(const PassResult& r, const Netlist& nl) {
    for (NodeId id = 0; id < r.node_map.size(); ++id) {
        if (r.node_map[id] != id) {
            return false;
        }
    }
    return internal::identical(r.netlist, nl);
}

}  // namespace

PassResult reduce_functional(const Netlist& nl, const ReduceOptions& options) {
    const std::size_t n = nl.node_count();
    const auto reachable = nl.reachable_from_outputs();
    const int words = std::clamp(options.signature_words, 1, 16);

    // --- Signatures ------------------------------------------------------
    std::vector<std::uint64_t> sig(n * static_cast<std::size_t>(words), 0);
    const auto sig_at = [&](NodeId id) {
        return sig.data() + static_cast<std::size_t>(id) * words;
    };
    for (NodeId id = 0; id < n; ++id) {
        const auto& node = nl.node(id);
        auto* s = sig_at(id);
        switch (node.kind) {
            case GateKind::Input: {
                const std::uint64_t stream =
                    internal::splitmix64(options.seed ^ (0xA5A5ULL + id));
                for (int w = 0; w < words; ++w) {
                    s[w] = internal::splitmix64(stream +
                                                static_cast<std::uint64_t>(w));
                }
                break;
            }
            case GateKind::Const0:
                break;  // all-zero lanes
            case GateKind::And2:
            case GateKind::Xor2: {
                const auto* sa = sig_at(node.a);
                const auto* sb = sig_at(node.b);
                for (int w = 0; w < words; ++w) {
                    s[w] = (node.kind == GateKind::And2) ? (sa[w] & sb[w])
                                                         : (sa[w] ^ sb[w]);
                }
                break;
            }
        }
    }

    // --- Candidate classes ----------------------------------------------
    // A class is a run of equal signature hashes among the sorted (hash,
    // id) pairs: members in ascending id (topological) order, classes in
    // ascending hash order.  Exact signature equality is re-checked
    // pairwise, so hash collisions only waste a confirmation.
    struct Candidate {
        std::uint64_t hash = 0;
        NodeId id = kInvalidNode;
    };
    std::vector<Candidate> candidates;
    candidates.reserve(n);
    for (NodeId id = 0; id < n; ++id) {
        const auto& node = nl.node(id);
        const bool is_gate =
            node.kind == GateKind::And2 || node.kind == GateKind::Xor2;
        if (!is_gate && node.kind != GateKind::Input &&
            node.kind != GateKind::Const0) {
            continue;
        }
        if (is_gate && !reachable[id]) {
            continue;
        }
        std::uint64_t h = 0x12345678ULL;
        const auto* s = sig_at(id);
        for (int w = 0; w < words; ++w) {
            h = internal::splitmix64(h ^ s[w]);
        }
        candidates.push_back({h, id});
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& x, const Candidate& y) {
                  return x.hash != y.hash ? x.hash < y.hash : x.id < y.id;
              });

    // --- Confirmation ----------------------------------------------------
    std::vector<NodeId> subst(n, kInvalidNode);
    int confirmations = 0;
    netlist::EquivalenceOptions eq;
    eq.seed = internal::splitmix64(options.seed ^ 0xC0FEULL);
    eq.threads = 1;  // cones are small; avoid per-pair pool spin-up
    for (std::size_t lo = 0, hi = 0; lo < candidates.size(); lo = hi) {
        hi = lo + 1;
        while (hi < candidates.size() && candidates[hi].hash == candidates[lo].hash) {
            ++hi;
        }
        for (std::size_t i = lo + 1; i < hi; ++i) {
            const NodeId cand = candidates[i].id;
            const auto& cnode = nl.node(cand);
            if (cnode.kind != GateKind::And2 && cnode.kind != GateKind::Xor2) {
                continue;  // only gates are merged away
            }
            if (confirmations >= options.max_confirmations) {
                break;
            }
            for (std::size_t j = lo; j < i; ++j) {
                NodeId rep = candidates[j].id;
                if (subst[rep] != kInvalidNode) {
                    rep = subst[rep];  // follow an earlier merge
                }
                if (rep >= cand) {
                    continue;
                }
                if (std::memcmp(sig_at(rep), sig_at(cand),
                                static_cast<std::size_t>(words) * 8) != 0) {
                    continue;  // hash collision, not a real candidate
                }
                auto shared = cone_support(nl, rep);
                {
                    const auto extra = cone_support(nl, cand);
                    std::vector<NodeId> merged;
                    std::set_union(shared.begin(), shared.end(), extra.begin(),
                                   extra.end(), std::back_inserter(merged));
                    shared = std::move(merged);
                }
                const Netlist lhs = extract_cone(nl, rep, shared);
                const Netlist rhs = extract_cone(nl, cand, shared);
                ++confirmations;
                if (!netlist::check_equivalence(lhs, rhs, eq)) {
                    subst[cand] = rep;
                    break;
                }
            }
        }
    }

    // --- Rebuild with the substitution applied ---------------------------
    // With nothing merged the rebuild is strash(nl).  When it is the
    // identity on nl (nothing merged and nl already strashed), so is the
    // sweep below, a strash of the same netlist: return it as is.
    PassResult rebuilt = internal::strash_substituted(nl, subst);
    if (is_identity(rebuilt, nl)) {
        return rebuilt;
    }

    // Sweep cones orphaned by the merges; compose the maps.
    PassResult swept = strash(rebuilt.netlist);
    PassResult out;
    out.netlist = std::move(swept.netlist);
    out.node_map.assign(n, kInvalidNode);
    for (NodeId id = 0; id < n; ++id) {
        if (rebuilt.node_map[id] != kInvalidNode) {
            out.node_map[id] = swept.node_map[rebuilt.node_map[id]];
        }
    }
    return out;
}

}  // namespace gfr::opt
