// DAG-aware <=4-input cut rewriting (mockturtle-style, adapted to the
// inverter-free AND/XOR basis).
//
// For every reachable gate, processed in topological order while the
// destination netlist is rebuilt bottom-up, the pass enumerates up to
// kCutsPerNode cuts of at most four leaves (truth tables stitched during
// the merge), looks each cut function up in the optimal-subcircuit
// database, and prices the candidate implementation by *dry-running* it
// against the destination's structural hash: a candidate gate that already
// exists (built by another cone, or by an earlier rewrite) costs nothing.
// The benefit side counts the gate the default rebuild would add plus the
// cut's MFFC — interior cone nodes whose every fanout lies inside the cone
// and whose destination image serves no other source node; those become
// dead the moment the root stops referencing them and the final sweep
// collects them.  A candidate is committed only when benefit exceeds cost,
// so a round can only shrink the reachable gate count.
//
// Storage follows mockturtle's pooled cut enumeration: every node's cut
// list sits in one pool with a (begin, count) range per node, fanouts are
// one CSR array, and the size buckets, cone walk and truth-table memos are
// scratch reused across nodes and candidates.  The pass allocates when a
// buffer grows, never per node or per candidate.

#include "opt/opt.h"
#include "opt/xag_db.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace gfr::opt {

using netlist::GateKind;
using netlist::kInvalidNode;
using netlist::Netlist;
using netlist::NodeId;

namespace {

constexpr int kMaxLeaves = 4;
constexpr std::size_t kCutsPerNode = 8;    ///< cuts kept per node
constexpr std::size_t kMaxConeNodes = 64;  ///< skip cuts with larger cones

struct Cut {
    std::uint8_t size = 0;
    std::uint16_t tt = 0;  ///< function over leaves in 4-var space
    std::array<NodeId, kMaxLeaves> leaves{};  ///< ascending node ids, then 0s
};

Cut trivial_cut(NodeId id) {
    Cut c;
    c.size = 1;
    c.leaves[0] = id;
    c.tt = internal::kLeafTruth[0];
    return c;
}

/// A node's cut list in the pool: its kept cuts, then its trivial cut.
/// Const0 and dead nodes have none.
struct CutRange {
    std::size_t begin = 0;
    std::size_t count = 0;
};

/// table[mask][bits]: a cut function moved from its own leaf positions to
/// the positions its leaves take in a merged leaf list.  Bit j of mask is
/// set when merged leaf j is one of the cut's; both lists ascend, so the
/// cut's leaf i lands on the i-th set bit.  `bits` are the function's low
/// 2^s truth bits, s = popcount(mask) < 4 (at s = 4 nothing moves).
using StitchTable = std::array<std::array<std::uint16_t, 256>, 16>;

const StitchTable& stitch_table() {
    static const StitchTable table = [] {
        StitchTable t{};
        for (unsigned mask = 1; mask < 15; ++mask) {
            std::array<unsigned, kMaxLeaves> pos{};
            unsigned size = 0;
            for (unsigned j = 0; j < kMaxLeaves; ++j) {
                if ((mask >> j) & 1U) {
                    pos[size++] = j;
                }
            }
            for (unsigned bits = 0; bits < (1U << (1U << size)); ++bits) {
                std::uint16_t out = 0;
                for (unsigned m = 0; m < 16; ++m) {
                    unsigned idx = 0;
                    for (unsigned i = 0; i < size; ++i) {
                        if ((m >> pos[i]) & 1U) {
                            idx |= 1U << i;
                        }
                    }
                    if ((bits >> idx) & 1U) {
                        out |= static_cast<std::uint16_t>(1U << m);
                    }
                }
                t[mask][bits] = out;
            }
        }
        return t;
    }();
    return table;
}

std::uint16_t stitch(const StitchTable& table, const Cut& cut, unsigned mask) {
    if (cut.size == kMaxLeaves) {
        return cut.tt;
    }
    return table[mask][cut.tt & ((1U << (1U << cut.size)) - 1U)];
}

/// Sorted union of two cuts' leaves into `out` when it has at most
/// kMaxLeaves; mask_a / mask_b get bit j when union leaf j comes from a / b.
bool merge_leaves(const Cut& a, const Cut& b, Cut& out, unsigned& mask_a,
                  unsigned& mask_b) {
    std::size_t i = 0;
    std::size_t j = 0;
    unsigned k = 0;
    mask_a = 0;
    mask_b = 0;
    while (i < a.size || j < b.size) {
        if (k == kMaxLeaves) {
            return false;
        }
        const bool take_a = j == b.size || (i < a.size && a.leaves[i] <= b.leaves[j]);
        const bool take_b = i == a.size || (j < b.size && b.leaves[j] <= a.leaves[i]);
        if (take_a) {
            out.leaves[k] = a.leaves[i++];
            mask_a |= 1U << k;
        }
        if (take_b) {
            out.leaves[k] = b.leaves[j++];
            mask_b |= 1U << k;
        }
        ++k;
    }
    out.size = static_cast<std::uint8_t>(k);
    return true;
}

/// Truth-table memo for one database structure.  A structure has at most
/// kMaxDatabaseGates gates, so the memo never holds more entries.
template <typename Value>
class TruthMemo {
public:
    void clear() noexcept { size_ = 0; }

    [[nodiscard]] const Value* find(std::uint16_t tt) const noexcept {
        for (std::size_t i = 0; i < size_; ++i) {
            if (tts_[i] == tt) {
                return &values_[i];
            }
        }
        return nullptr;
    }

    void insert(std::uint16_t tt, const Value& value) noexcept {
        tts_[size_] = tt;
        values_[size_] = value;
        ++size_;
    }

private:
    std::array<std::uint16_t, internal::kMaxDatabaseGates> tts_{};
    std::array<Value, internal::kMaxDatabaseGates> values_{};
    std::size_t size_ = 0;
};

struct DryResult {
    NodeId node = kInvalidNode;  ///< resolved existing dst node, if any
    int new_gates = 0;
};

/// One candidate's dry run: its memo, and every existing dst node it would
/// reuse (so the MFFC estimate can exclude them from "freed").  Nodes are
/// recorded on memo misses only, at most one per structure gate.
struct DryRun {
    TruthMemo<DryResult> memo;
    std::array<NodeId, internal::kMaxDatabaseGates> resolved{};
    std::size_t n_resolved = 0;

    void clear() noexcept {
        memo.clear();
        n_resolved = 0;
    }
    [[nodiscard]] bool reuses(NodeId v) const noexcept {
        return std::find(resolved.begin(), resolved.begin() + n_resolved, v) !=
               resolved.begin() + n_resolved;
    }
};

/// Price a database structure against the destination netlist without
/// building anything.  `leaf_node[j]` is the dst image of merged leaf j.
DryResult dry_run(std::uint16_t tt, const internal::XagDatabase& db,
                  const std::array<NodeId, kMaxLeaves>& leaf_node,
                  NodeId dst_zero, const Netlist& dst, DryRun& run) {
    if (tt == 0) {
        return DryResult{dst_zero, 0};
    }
    for (int j = 0; j < kMaxLeaves; ++j) {
        if (tt == internal::kLeafTruth[static_cast<std::size_t>(j)]) {
            return DryResult{leaf_node[static_cast<std::size_t>(j)], 0};
        }
    }
    if (const DryResult* hit = run.memo.find(tt)) {
        return *hit;
    }
    const auto& e = db.entry(tt);
    DryResult r;
    const DryResult la = dry_run(e.fa, db, leaf_node, dst_zero, dst, run);
    const DryResult lb = dry_run(e.fb, db, leaf_node, dst_zero, dst, run);
    r.new_gates = la.new_gates + lb.new_gates;
    NodeId hit = kInvalidNode;
    if (la.node != kInvalidNode && lb.node != kInvalidNode) {
        hit = dst.find_gate(e.is_and ? GateKind::And2 : GateKind::Xor2, la.node, lb.node);
    }
    if (hit != kInvalidNode) {
        r.node = hit;
        run.resolved[run.n_resolved++] = hit;
    } else {
        ++r.new_gates;
    }
    run.memo.insert(tt, r);
    return r;
}

/// Build a database structure for real (memoized per call, interned).
NodeId build_structure(std::uint16_t tt, const internal::XagDatabase& db,
                       const std::array<NodeId, kMaxLeaves>& leaf_node,
                       Netlist& dst, TruthMemo<NodeId>& memo) {
    if (tt == 0) {
        return dst.const0();
    }
    for (int j = 0; j < kMaxLeaves; ++j) {
        if (tt == internal::kLeafTruth[static_cast<std::size_t>(j)]) {
            return leaf_node[static_cast<std::size_t>(j)];
        }
    }
    if (const NodeId* hit = memo.find(tt)) {
        return *hit;
    }
    const auto& e = db.entry(tt);
    const NodeId a = build_structure(e.fa, db, leaf_node, dst, memo);
    const NodeId b = build_structure(e.fb, db, leaf_node, dst, memo);
    const NodeId out = e.is_and ? dst.make_and(a, b) : dst.make_xor(a, b);
    memo.insert(tt, out);
    return out;
}

bool is_leaf(const Cut& c, NodeId v) {
    for (int j = 0; j < c.size; ++j) {
        if (c.leaves[static_cast<std::size_t>(j)] == v) {
            return true;
        }
    }
    return false;
}

bool is_gate(const netlist::Node& node) {
    return node.kind == GateKind::And2 || node.kind == GateKind::Xor2;
}

}  // namespace

PassResult rewrite_cuts(const Netlist& nl, const RewriteOptions& options) {
    const std::size_t n = nl.node_count();
    const auto reachable = nl.reachable_from_outputs();
    const auto& db = internal::XagDatabase::instance();
    const StitchTable& stitch_tt = stitch_table();

    // Source-side fanouts of the reachable gates, one CSR array: node v's
    // fanouts are fanout[fanout_begin[v] .. fanout_begin[v + 1]).  Output
    // ports count as one extra (non-removable) fanout.
    std::vector<std::uint32_t> fanout_begin(n + 1, 0);
    std::size_t listed = 0;  // nodes that will hold a cut list
    for (NodeId id = 0; id < n; ++id) {
        const auto& node = nl.node(id);
        if (node.kind == GateKind::Input) {
            ++listed;
        } else if (is_gate(node) && reachable[id]) {
            ++listed;
            ++fanout_begin[node.a];
            ++fanout_begin[node.b];
        }
    }
    for (std::size_t v = 1; v < n; ++v) {
        fanout_begin[v] += fanout_begin[v - 1];  // end of v's fanout list
    }
    std::vector<NodeId> fanout(n == 0 ? 0 : fanout_begin[n - 1]);
    fanout_begin[n] = static_cast<std::uint32_t>(fanout.size());
    for (NodeId id = 0; id < n; ++id) {
        const auto& node = nl.node(id);
        if (reachable[id] && is_gate(node)) {
            fanout[--fanout_begin[node.a]] = id;
            fanout[--fanout_begin[node.b]] = id;
        }
    }
    std::vector<std::uint32_t> output_refs(n, 0);
    for (const auto& port : nl.outputs()) {
        ++output_refs[port.node];
    }

    Netlist dst;
    const NodeId dst_zero = dst.const0();
    std::vector<NodeId> memo(n, kInvalidNode);
    std::vector<std::uint32_t> dst_src_count{1};  // const0 counts as shared
    dst_src_count.reserve(n + 1);
    const auto note_mapping = [&](NodeId dst_id) {
        if (dst_id >= dst_src_count.size()) {
            dst_src_count.resize(static_cast<std::size_t>(dst_id) + 1, 0);
        }
        ++dst_src_count[dst_id];
    };

    std::vector<const std::string*> input_name(n, nullptr);
    for (const auto& port : nl.inputs()) {
        input_name[port.node] = &port.name;
    }

    // Every node's cut list, back to back: at most kCutsPerNode cuts plus
    // the trivial cut at every listed node.
    std::vector<CutRange> ranges(n);
    std::vector<Cut> pool;
    pool.reserve(listed * (kCutsPerNode + 1));

    // Scratch reused across nodes and candidates.
    std::array<std::vector<Cut>, kMaxLeaves> by_size;  // merged cuts per leaf count
    std::vector<NodeId> stack;
    std::vector<NodeId> cone;
    std::vector<std::uint8_t> in_cone(n, 0);
    std::vector<std::uint8_t> in_mffc(n, 0);
    DryRun run;
    TruthMemo<NodeId> build_memo;

    for (NodeId id = 0; id < n; ++id) {
        const auto& node = nl.node(id);
        if (node.kind == GateKind::Input) {
            memo[id] = dst.add_input(*input_name[id]);
            note_mapping(memo[id]);
            ranges[id] = {pool.size(), 1};
            pool.push_back(trivial_cut(id));
            continue;
        }
        if (node.kind == GateKind::Const0) {
            if (reachable[id]) {
                memo[id] = dst_zero;
                note_mapping(dst_zero);
            }
            continue;  // const0 never appears as a cut leaf (tt handles it)
        }
        if (!reachable[id]) {
            continue;  // dead
        }
        const NodeId fa = memo[node.a];
        const NodeId fb = memo[node.b];
        // A fanin may be a dead Const0 sibling only when unreachable; both
        // fanins of a reachable gate are mapped here.

        // --- Cut enumeration (source side) -------------------------------
        // Fanin pairs in stored order; a leaf set keeps its first
        // occurrence.  Equal leaf sets have equal sizes, so deduping within
        // a size bucket is a global dedupe, and reading the buckets in size
        // order is a stable sort by leaf count.
        for (auto& bucket : by_size) {
            bucket.clear();
        }
        const CutRange ra = ranges[node.a];
        const CutRange rb = ranges[node.b];
        for (std::size_t ia = 0; ia < ra.count; ++ia) {
            const Cut& ca = pool[ra.begin + ia];
            for (std::size_t ib = 0; ib < rb.count; ++ib) {
                const Cut& cb = pool[rb.begin + ib];
                Cut c;
                unsigned mask_a = 0;
                unsigned mask_b = 0;
                if (!merge_leaves(ca, cb, c, mask_a, mask_b)) {
                    continue;
                }
                auto& bucket = by_size[c.size - 1U];
                if (std::any_of(bucket.begin(), bucket.end(), [&](const Cut& seen) {
                        return seen.leaves == c.leaves;
                    })) {
                    continue;
                }
                const std::uint16_t ta = stitch(stitch_tt, ca, mask_a);
                const std::uint16_t tb = stitch(stitch_tt, cb, mask_b);
                c.tt = (node.kind == GateKind::And2) ? static_cast<std::uint16_t>(ta & tb)
                                                     : static_cast<std::uint16_t>(ta ^ tb);
                bucket.push_back(c);
            }
        }
        // Keep the first kCutsPerNode cuts, then the trivial cut.
        const std::size_t begin = pool.size();
        for (const auto& bucket : by_size) {
            for (const Cut& c : bucket) {
                if (pool.size() - begin == kCutsPerNode) {
                    break;
                }
                pool.push_back(c);
            }
        }
        const std::size_t kept = pool.size() - begin;
        pool.push_back(trivial_cut(id));
        ranges[id] = {begin, kept + 1};

        // --- Default rebuild price ---------------------------------------
        const GateKind kind = node.kind;
        NodeId default_node = kInvalidNode;
        if (fa == fb) {
            default_node = (kind == GateKind::And2) ? fa : dst_zero;
        } else if (fa == dst_zero || fb == dst_zero) {
            default_node =
                (kind == GateKind::And2) ? dst_zero : (fa == dst_zero ? fb : fa);
        } else {
            default_node = dst.find_gate(kind, fa, fb);
        }
        if (default_node != kInvalidNode) {
            // Sharing or simplification makes the default free; no
            // candidate can beat cost zero plus an intact cone.
            memo[id] = default_node;
            note_mapping(default_node);
            continue;
        }

        // --- Candidate evaluation ----------------------------------------
        int best_gain = 0;
        std::uint16_t best_tt = 0;
        std::array<NodeId, kMaxLeaves> best_leaf_node{};
        for (std::size_t ci = begin; ci < begin + kept; ++ci) {
            const Cut& c = pool[ci];
            const auto& entry = db.entry(c.tt);
            if (entry.cost < 0) {
                continue;  // function beyond the database bound
            }
            std::array<NodeId, kMaxLeaves> leaf_node{};
            leaf_node.fill(kInvalidNode);
            for (int j = 0; j < c.size; ++j) {
                leaf_node[static_cast<std::size_t>(j)] =
                    memo[c.leaves[static_cast<std::size_t>(j)]];
            }
            run.clear();
            const DryResult priced = dry_run(c.tt, db, leaf_node, dst_zero, dst, run);

            // MFFC of id w.r.t. this cut: interior cone nodes every one of
            // whose fanouts stays inside the cone (output-driving and
            // candidate-reused nodes excluded) — dead after rewrite.
            // Depth-first from the root, pushing fanin a then b.
            cone.clear();
            stack.clear();
            bool cone_ok = true;
            stack.push_back(id);
            in_cone[id] = 1;
            while (!stack.empty()) {
                const NodeId v = stack.back();
                stack.pop_back();
                cone.push_back(v);
                if (cone.size() > kMaxConeNodes) {
                    // Oversized cone: the cut is skipped.  Only `cone` is
                    // unmarked below, so the nodes still on the stack keep
                    // in_cone set for the rest of the pass and later walks
                    // stop at them.  MFFC membership is monotone in the cone
                    // set, so those walks can only under-count freed gates
                    // and the pass stays sound.  Kept as is: clearing the
                    // stack changes the result on deep reconvergent logic
                    // (mostly for the worse).
                    cone_ok = false;
                    break;
                }
                if (is_leaf(c, v)) {
                    continue;
                }
                const auto& vn = nl.node(v);
                if (!is_gate(vn)) {
                    continue;
                }
                for (const NodeId f : {vn.a, vn.b}) {
                    if (!in_cone[f]) {
                        in_cone[f] = 1;
                        stack.push_back(f);
                    }
                }
            }
            int freed = 0;
            if (cone_ok) {
                // Descending id order: fanouts have larger ids, so their
                // MFFC status is known before their fanins are visited.
                std::sort(cone.begin(), cone.end(),
                          [](NodeId x, NodeId y) { return x > y; });
                for (const NodeId v : cone) {
                    if (v == id) {
                        in_mffc[v] = 1;
                        continue;
                    }
                    if (is_leaf(c, v) || !is_gate(nl.node(v)) || output_refs[v] > 0) {
                        in_mffc[v] = 0;
                        continue;
                    }
                    bool all_inside = true;
                    for (std::uint32_t k = fanout_begin[v]; k < fanout_begin[v + 1]; ++k) {
                        const NodeId f = fanout[k];
                        if (!in_cone[f] || !in_mffc[f]) {
                            all_inside = false;
                            break;
                        }
                    }
                    in_mffc[v] = all_inside ? 1 : 0;
                    if (all_inside && memo[v] != kInvalidNode &&
                        dst_src_count[memo[v]] == 1 && !run.reuses(memo[v])) {
                        ++freed;
                    }
                }
            }
            for (const NodeId v : cone) {
                in_cone[v] = 0;
                in_mffc[v] = 0;
            }
            if (!cone_ok) {
                continue;
            }

            const int gain = 1 + freed - priced.new_gates;
            if (gain > best_gain) {
                best_gain = gain;
                best_tt = c.tt;
                best_leaf_node = leaf_node;
            }
        }

        if (best_gain > 0) {
            build_memo.clear();
            memo[id] = build_structure(best_tt, db, best_leaf_node, dst, build_memo);
        } else {
            memo[id] = (kind == GateKind::And2) ? dst.make_and(fa, fb)
                                                : dst.make_xor(fa, fb);
        }
        note_mapping(memo[id]);
    }

    for (const auto& port : nl.outputs()) {
        NodeId driver = memo[port.node];
        if (options.unsound_for_test && &port == &nl.outputs().front() &&
            !nl.inputs().empty()) {
            // Mutation-tier hook: a deliberately wrong rewrite the
            // post-pass campaign must catch (flips output 0 whenever
            // input 0 is 1).
            driver = dst.make_xor(driver, memo[nl.inputs().front().node]);
        }
        dst.add_output(port.name, driver);
    }

    // Sweep the garbage the rewrites orphaned (and the eager const0 when
    // unused) and compose the maps.
    PassResult swept = strash(dst);
    PassResult out;
    out.netlist = std::move(swept.netlist);
    out.node_map.assign(n, kInvalidNode);
    for (NodeId id = 0; id < n; ++id) {
        if (memo[id] != kInvalidNode) {
            out.node_map[id] = swept.node_map[memo[id]];
        }
    }
    return out;
}

}  // namespace gfr::opt
