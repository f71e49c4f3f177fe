#include "fpga/priority_cuts.h"

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

namespace gfr::fpga {

using netlist::GateKind;
using netlist::Netlist;
using netlist::NodeId;

namespace {

constexpr int kInfinity = std::numeric_limits<int>::max() / 2;

/// The classic 6-variable minterm masks: variable v of a <= 6-input cone.
constexpr std::uint64_t kVarMask[6] = {
    0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
    0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};

/// Forward-pass quality of one node, read by every fanout's candidates.
struct NodeState {
    double area_flow = 0;
    int best_depth = 0;
    int est_refs = 1;
};

/// A node's priority list in the cut pool; the trivial cut is last.
struct CutRange {
    std::size_t begin = 0;
    std::size_t count = 0;
};

/// What the forward pass sorts instead of the 48-byte cuts: the comparator's
/// three values and the candidate's index.  `rank` packs depth above the
/// leaf count, so on equal depths it orders by leaf count.
struct CandidateKey {
    double area_flow = 0;
    std::uint32_t rank = 0;   // depth << 3 | size
    std::uint32_t index = 0;  // into the candidate array
};
static_assert(sizeof(CandidateKey) == 16);

/// Depths must leave room for the leaf count in CandidateKey::rank.
constexpr int kMaxDepth = (1 << 28) - 1;

/// Evaluates cones over the 6-variable minterm masks.  One value slot per
/// netlist node; a slot is valid for the current cone only when its stamp
/// equals the current epoch, so no per-cone clearing is needed.  The walk is
/// iterative: a cone may be as deep as the netlist.
class ConeEvaluator {
public:
    explicit ConeEvaluator(const Netlist& nl)
        : nl_{&nl}, value_(nl.node_count()), stamp_(nl.node_count(), 0) {}

    /// Truth table of the cone rooted at `root` with the given leaves.
    std::uint64_t truth(NodeId root, const Cut& cut) {
        ++epoch_;
        for (int i = 0; i < cut.size; ++i) {
            set(cut.leaves[static_cast<std::size_t>(i)], kVarMask[i]);
        }
        stack_.assign(1, root);
        while (!stack_.empty()) {
            const NodeId id = stack_.back();
            if (known(id)) {
                stack_.pop_back();
                continue;
            }
            const auto& n = nl_->node(id);
            switch (n.kind) {
                case GateKind::Const0:
                    set(id, 0);
                    break;
                case GateKind::Input:
                    throw std::logic_error{"cone_truth: reached an input that is not a leaf"};
                case GateKind::And2:
                case GateKind::Xor2:
                    if (!known(n.a)) {
                        stack_.push_back(n.a);
                        continue;
                    }
                    if (!known(n.b)) {
                        stack_.push_back(n.b);
                        continue;
                    }
                    set(id, n.kind == GateKind::And2 ? value_[n.a] & value_[n.b]
                                                     : value_[n.a] ^ value_[n.b]);
                    break;
            }
            stack_.pop_back();
        }
        return value_[root];
    }

private:
    [[nodiscard]] bool known(NodeId id) const { return stamp_[id] == epoch_; }

    void set(NodeId id, std::uint64_t v) {
        value_[id] = v;
        stamp_[id] = epoch_;
    }

    const Netlist* nl_;
    std::vector<std::uint64_t> value_;
    std::vector<std::uint32_t> stamp_;
    std::vector<NodeId> stack_;
    std::uint32_t epoch_ = 0;
};

}  // namespace

LutNetwork map_to_luts(const Netlist& nl, const MapperOptions& options) {
    if (options.lut_inputs < 2 || options.lut_inputs > Cut::kMaxLeaves) {
        throw std::invalid_argument{"map_to_luts: lut_inputs must be in [2,6]"};
    }
    if (options.cuts_per_node < 1) {
        throw std::invalid_argument{"map_to_luts: cuts_per_node must be >= 1"};
    }
    const int k = options.lut_inputs;
    const auto reachable = nl.reachable_from_outputs();
    const auto fanout = nl.fanout_counts();

    std::vector<NodeState> state(nl.node_count());
    std::vector<CutRange> ranges(nl.node_count());
    // Every node's cut list, back to back; a node's list is complete before
    // any fanout reads it, and the pool stops growing after the forward pass.
    std::vector<Cut> pool;
    // Room for the most a node keeps at the default list length (plus its
    // trivial cut) at every reachable node, so at that length the pool never
    // reallocates and only the used part of the reservation is touched.  A
    // longer list only grows the pool by the cuts actually kept: fanin spans
    // are re-read from pool.data() at every node.
    const int reserved_per_node =
        std::min(options.cuts_per_node, MapperOptions{}.cuts_per_node) + 1;
    pool.reserve(static_cast<std::size_t>(std::count(reachable.begin(), reachable.end(), true)) *
                 static_cast<std::size_t>(reserved_per_node));
    auto cuts_of = [&](NodeId id) -> std::span<const Cut> {
        return {pool.data() + ranges[id].begin, ranges[id].count};
    };
    std::vector<Cut> candidates;
    std::vector<CandidateKey> keys;
    std::vector<std::uint32_t> kept;  // indices into candidates

    // ---- Forward pass: priority cuts, depth-first ordering. ----
    for (NodeId id = 0; id < nl.node_count(); ++id) {
        if (!reachable[id]) {
            continue;
        }
        auto& st = state[id];
        st.est_refs = std::max(1, fanout[id]);
        ranges[id].begin = pool.size();
        const auto& n = nl.node(id);
        if (n.kind == GateKind::Input || n.kind == GateKind::Const0) {
            st.best_depth = 0;
            st.area_flow = 0;
            pool.push_back(Cut::trivial(id));
            ranges[id].count = 1;
            continue;
        }

        // With hard boundaries, a multi-fanout gate fanin is only visible as
        // a leaf: its logic is instantiated once and never duplicated.
        const Cut trivial_a = Cut::trivial(n.a);
        const Cut trivial_b = Cut::trivial(n.b);
        auto fanin_cuts = [&](NodeId fanin,
                              const Cut& trivial) -> std::span<const Cut> {
            const auto& fn = nl.node(fanin);
            const bool boundary = options.respect_fanout_boundaries &&
                                  fanout[fanin] > 1 &&
                                  (fn.kind == GateKind::And2 || fn.kind == GateKind::Xor2);
            if (boundary) {
                return {&trivial, 1};
            }
            return cuts_of(fanin);
        };

        // Candidates in (ca, cb) order, each merged straight into its slot.
        const auto cuts_a = fanin_cuts(n.a, trivial_a);
        const auto cuts_b = fanin_cuts(n.b, trivial_b);
        candidates.resize(std::max(candidates.size(), cuts_a.size() * cuts_b.size()));
        keys.clear();
        for (const auto& ca : cuts_a) {
            for (const auto& cb : cuts_b) {
                Cut& cut = candidates[keys.size()];
                // Depth is 1 + the deepest leaf; area flow is this LUT plus
                // the leaves' flows, summed in ascending id order.
                int depth = 0;
                double area_flow = 1.0;
                if (Cut::merge_into(ca, cb, k, cut, [&](NodeId leaf) {
                        depth = std::max(depth, state[leaf].best_depth);
                        area_flow += state[leaf].area_flow;
                    })) {
                    cut.depth = depth + 1;
                    cut.area_flow = area_flow;
                    keys.push_back({cut.area_flow,
                                    static_cast<std::uint32_t>(cut.depth) << 3U | cut.size,
                                    static_cast<std::uint32_t>(keys.size())});
                }
            }
        }
        if (keys.empty()) {
            throw std::logic_error{"map_to_luts: node has no feasible cut"};
        }
        // Order by (depth, area flow, leaf count).  std::sort permutes by
        // comparison results alone, so the keys land exactly where the cuts
        // themselves would.
        std::sort(keys.begin(), keys.end(), [](const CandidateKey& x, const CandidateKey& y) {
            if ((x.rank >> 3U) != (y.rank >> 3U)) {
                return x.rank < y.rank;
            }
            if (x.area_flow != y.area_flow) {
                return x.area_flow < y.area_flow;
            }
            return x.rank < y.rank;
        });
        // Dedupe identical leaf sets and drop dominated cuts.  A kept cut
        // sorts first, so its depth is never larger: a subset (equal sets
        // included) is all that makes a later candidate redundant.
        kept.clear();
        for (const auto& key : keys) {
            const Cut& c = candidates[key.index];
            bool redundant = false;
            for (const std::uint32_t kc : kept) {
                if (candidates[kc].subset_of(c)) {
                    redundant = true;
                    break;
                }
            }
            if (!redundant) {
                kept.push_back(key.index);
                if (static_cast<int>(kept.size()) >= options.cuts_per_node) {
                    break;
                }
            }
        }
        // Guarantee an area-cheap alternative survives the depth-first prune,
        // so area recovery has something to pick on non-critical paths: the
        // first candidate of minimal area flow in sorted order.
        const CandidateKey* cheapest = &keys.front();
        for (const auto& key : keys) {
            if (key.area_flow < cheapest->area_flow) {
                cheapest = &key;
            }
        }
        bool have_cheapest = false;
        for (const std::uint32_t kc : kept) {
            if (candidates[kc].same_leaves(candidates[cheapest->index])) {
                have_cheapest = true;
                break;
            }
        }
        if (!have_cheapest) {
            kept.back() = cheapest->index;
        }
        const Cut& best = candidates[kept.front()];
        if (best.depth > kMaxDepth) {
            throw std::length_error{"map_to_luts: LUT depth exceeds 2^28 - 1"};
        }
        st.best_depth = best.depth;
        st.area_flow = best.area_flow / st.est_refs;
        for (const std::uint32_t kc : kept) {
            pool.push_back(candidates[kc]);
        }
        pool.push_back(Cut::trivial(id));  // visible to fanouts as a leaf
        ranges[id].count = kept.size() + 1;
    }

    // ---- Required times. ----
    int global_depth = 0;
    for (const auto& out : nl.outputs()) {
        global_depth = std::max(global_depth, state[out.node].best_depth);
    }

    // ---- Backward covering with iterated area recovery. ----
    // Each round chooses, per required node, the min-area cut still meeting
    // its required time; leaf "area" is an area-flow estimate whose reference
    // counts come from the previous round's actual cover (classic if-mapper
    // area iteration).  Depth never degrades: the depth-best cut always
    // satisfies the required time.
    // A gate's cuts without its trailing trivial cut, which cannot
    // implement the gate itself.
    auto gate_cuts = [&](NodeId id) { return cuts_of(id).first(ranges[id].count - 1); };
    std::vector<bool> used(nl.node_count(), false);
    std::vector<const Cut*> chosen(nl.node_count(), nullptr);
    std::vector<double> area_est(nl.node_count(), 0.0);
    std::vector<int> required(nl.node_count());
    std::vector<int> refs(nl.node_count());
    const int rounds = options.area_recovery ? 3 : 1;

    for (int round = 0; round < rounds; ++round) {
        // Refresh per-node area estimates with current est_refs.
        for (NodeId id = 0; id < nl.node_count(); ++id) {
            if (!reachable[id]) {
                continue;
            }
            const auto& n = nl.node(id);
            if (n.kind == GateKind::Input || n.kind == GateKind::Const0) {
                area_est[id] = 0.0;
                continue;
            }
            double best = 0.0;
            bool first = true;
            for (const auto& c : gate_cuts(id)) {
                double af = 1.0;
                for (int i = 0; i < c.size; ++i) {
                    af += area_est[c.leaves[static_cast<std::size_t>(i)]];
                }
                if (first || af < best) {
                    best = af;
                    first = false;
                }
            }
            area_est[id] = best / state[id].est_refs;
        }

        std::fill(required.begin(), required.end(), kInfinity);
        std::fill(used.begin(), used.end(), false);
        for (const auto& out : nl.outputs()) {
            required[out.node] = global_depth;
            const auto& n = nl.node(out.node);
            if (n.kind != GateKind::Input && n.kind != GateKind::Const0) {
                used[out.node] = true;
            }
        }
        for (NodeId idp = static_cast<NodeId>(nl.node_count()); idp-- > 0;) {
            if (!used[idp]) {
                continue;
            }
            const auto cuts = gate_cuts(idp);
            const Cut* pick = nullptr;
            double pick_area = 0.0;
            for (const auto& c : cuts) {
                if (!options.area_recovery) {
                    pick = &c;  // cuts are depth-sorted; first is depth-best
                    break;
                }
                if (c.depth > required[idp]) {
                    continue;
                }
                double af = 1.0;
                for (int i = 0; i < c.size; ++i) {
                    af += area_est[c.leaves[static_cast<std::size_t>(i)]];
                }
                if (pick == nullptr || af < pick_area ||
                    (af == pick_area && c.depth < pick->depth)) {
                    pick = &c;
                    pick_area = af;
                }
            }
            if (pick == nullptr) {
                pick = &cuts.front();  // depth-best always meets required
            }
            chosen[idp] = pick;
            for (int i = 0; i < pick->size; ++i) {
                const NodeId leaf = pick->leaves[static_cast<std::size_t>(i)];
                const auto& ln = nl.node(leaf);
                if (ln.kind != GateKind::Input && ln.kind != GateKind::Const0) {
                    used[leaf] = true;
                }
                required[leaf] = std::min(required[leaf], required[idp] - 1);
            }
        }

        if (round + 1 < rounds) {
            // Re-estimate reference counts from the actual cover.
            std::fill(refs.begin(), refs.end(), 0);
            for (NodeId id = 0; id < nl.node_count(); ++id) {
                if (!used[id] || chosen[id] == nullptr) {
                    continue;
                }
                for (int i = 0; i < chosen[id]->size; ++i) {
                    ++refs[chosen[id]->leaves[static_cast<std::size_t>(i)]];
                }
            }
            for (const auto& out : nl.outputs()) {
                ++refs[out.node];
            }
            for (NodeId id = 0; id < nl.node_count(); ++id) {
                if (reachable[id]) {
                    state[id].est_refs = std::max(1, refs[id]);
                }
            }
        }
    }

    // ---- Emit the LUT network. ----
    LutNetwork net;
    net.input_names.reserve(nl.inputs().size());
    net.luts.reserve(static_cast<std::size_t>(std::count(used.begin(), used.end(), true)));
    ConeEvaluator cone{nl};
    std::vector<std::int32_t> ref(nl.node_count(), LutNetwork::kConst0Ref);
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
        net.input_names.push_back(nl.inputs()[i].name);
        ref[nl.inputs()[i].node] = static_cast<std::int32_t>(i);
    }
    for (NodeId id = 0; id < nl.node_count(); ++id) {
        if (!used[id]) {
            continue;
        }
        const Cut& cut = *chosen[id];
        LutNetwork::Lut lut;
        lut.fanins.reserve(static_cast<std::size_t>(cut.size));
        for (int i = 0; i < cut.size; ++i) {
            lut.fanins.push_back(ref[cut.leaves[static_cast<std::size_t>(i)]]);
        }
        lut.truth = cone.truth(id, cut);
        ref[id] = static_cast<std::int32_t>(net.input_names.size() + net.luts.size());
        net.luts.push_back(std::move(lut));
    }
    for (const auto& out : nl.outputs()) {
        net.outputs.emplace_back(out.name, ref[out.node]);
    }
    return net;
}

}  // namespace gfr::fpga
