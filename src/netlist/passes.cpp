#include "netlist/passes.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <queue>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
#include <vector>

namespace gfr::netlist {

namespace {

/// Copies all inputs of `src` into `dst` (same order) and returns the
/// old-id -> new-id map seeded with those inputs.
std::vector<NodeId> seed_inputs(const Netlist& src, Netlist& dst) {
    std::vector<NodeId> memo(src.node_count(), kInvalidNode);
    for (const auto& port : src.inputs()) {
        memo[port.node] = dst.add_input(port.name);
    }
    return memo;
}

/// Plain structural rebuild (no restructuring) of `id` into `dst`.  Walks
/// the cone iteratively on `stack` (caller-owned scratch, so deep chains
/// never touch the call stack) and creates nodes in post-order, fanin b's
/// cone before fanin a's.
NodeId rebuild_plain(const Netlist& src, Netlist& dst, std::vector<NodeId>& memo,
                     std::vector<NodeId>& stack, NodeId id) {
    stack.assign(1, id);
    while (!stack.empty()) {
        const NodeId top = stack.back();
        if (memo[top] != kInvalidNode) {
            stack.pop_back();
            continue;
        }
        const Node& n = src.node(top);
        switch (n.kind) {
            case GateKind::Input:
                throw std::logic_error{"rebuild_plain: input was not seeded"};
            case GateKind::Const0:
                memo[top] = dst.const0();
                break;
            case GateKind::And2:
            case GateKind::Xor2:
                if (memo[n.b] == kInvalidNode) {
                    stack.push_back(n.b);
                    continue;
                }
                if (memo[n.a] == kInvalidNode) {
                    stack.push_back(n.a);
                    continue;
                }
                memo[top] = n.kind == GateKind::And2 ? dst.make_and(memo[n.a], memo[n.b])
                                                     : dst.make_xor(memo[n.a], memo[n.b]);
                break;
        }
        stack.pop_back();
    }
    return memo[id];
}

/// Collect the leaves of the XOR tree rooted at `root`, flattening through
/// XOR nodes that satisfy `expand(id)`; the root itself is always expanded
/// if it is an XOR.  Duplicate leaves cancel pairwise (x ^ x = 0).
template <typename ExpandPred>
std::vector<NodeId> xor_leaves(const Netlist& src, NodeId root, ExpandPred expand) {
    std::vector<NodeId> leaves;
    std::vector<NodeId> stack{root};
    while (!stack.empty()) {
        const NodeId id = stack.back();
        stack.pop_back();
        const Node& n = src.node(id);
        const bool is_xor = n.kind == GateKind::Xor2;
        if (is_xor && (id == root || expand(id))) {
            stack.push_back(n.a);
            stack.push_back(n.b);
        } else {
            leaves.push_back(id);
        }
    }
    std::sort(leaves.begin(), leaves.end());
    // Cancel equal pairs mod 2.
    std::vector<NodeId> out;
    for (std::size_t i = 0; i < leaves.size();) {
        std::size_t j = i;
        while (j < leaves.size() && leaves[j] == leaves[i]) {
            ++j;
        }
        if ((j - i) % 2 == 1) {
            out.push_back(leaves[i]);
        }
        i = j;
    }
    return out;
}

std::uint64_t pair_key(NodeId u, NodeId v) {
    if (u > v) {
        std::swap(u, v);
    }
    return (static_cast<std::uint64_t>(u) << 32U) | v;
}

/// Builds XOR trees of minimum depth over leaves of mixed heights: Huffman
/// on (xor-depth, insertion order).  Tracks xor-depths of the growing output
/// netlist lazily so repeated calls stay linear overall.
class MinDepthXorBuilder {
public:
    explicit MinDepthXorBuilder(Netlist& nl) : nl_{&nl} {}

    NodeId build(const std::vector<NodeId>& leaves) {
        if (leaves.empty()) {
            return nl_->const0();
        }
        sync();
        using Item = std::tuple<int, int, NodeId>;  // (depth, tiebreak, node)
        const auto cmp = [](const Item& a, const Item& b) {
            return std::tie(std::get<0>(a), std::get<1>(a)) >
                   std::tie(std::get<0>(b), std::get<1>(b));
        };
        std::priority_queue<Item, std::vector<Item>, decltype(cmp)> heap{cmp};
        int seq = 0;
        for (const NodeId leaf : leaves) {
            heap.emplace(depth_[leaf], seq++, leaf);
        }
        while (heap.size() > 1) {
            const auto [da, sa, na] = heap.top();
            heap.pop();
            const auto [db, sb, nb] = heap.top();
            heap.pop();
            const NodeId combined = nl_->make_xor(na, nb);
            heap.emplace(std::max(da, db) + 1, seq++, combined);
        }
        const NodeId root = std::get<2>(heap.top());
        sync();
        return root;
    }

private:
    void sync() {
        for (NodeId id = static_cast<NodeId>(depth_.size()); id < nl_->node_count();
             ++id) {
            const Node& n = nl_->node(id);
            int d = 0;
            switch (n.kind) {
                case GateKind::Input:
                case GateKind::Const0:
                    break;
                case GateKind::And2:
                    d = std::max(depth_[n.a], depth_[n.b]);
                    break;
                case GateKind::Xor2:
                    d = 1 + std::max(depth_[n.a], depth_[n.b]);
                    break;
            }
            depth_.push_back(d);
        }
    }

    Netlist* nl_;
    std::vector<int> depth_;
};

/// The input wires of a cone that fits one 6-LUT: at most six sorted ids
/// plus a bloom signature (bit id % 64 per wire) that rejects most
/// oversized unions by popcount before any merge — the shape of fpga::Cut,
/// which this layer cannot include.  size == kUnknown marks an entry of the
/// builder's per-node table that has not been computed yet.
struct WireSet {
    static constexpr std::uint8_t kMax = 6;
    static constexpr std::uint8_t kUnknown = 0xFF;

    std::array<NodeId, kMax> ids{};
    std::uint8_t size = kUnknown;
    std::uint64_t signature = 0;

    static WireSet single(NodeId id) {
        WireSet w;
        w.ids[0] = id;
        w.size = 1;
        w.signature = std::uint64_t{1} << (id % 64);
        return w;
    }

    /// Sorted union of `a` and `b` into `out`; false when it needs more
    /// than kMax wires (`out` is then unspecified).
    static bool merge(const WireSet& a, const WireSet& b, WireSet& out) {
        if (std::popcount(a.signature | b.signature) > kMax) {
            return false;  // at least popcount distinct wires
        }
        std::uint8_t ia = 0;
        std::uint8_t ib = 0;
        std::uint8_t n = 0;
        while (ia < a.size || ib < b.size) {
            NodeId next = 0;
            if (ib == b.size || (ia < a.size && a.ids[ia] < b.ids[ib])) {
                next = a.ids[ia++];
            } else if (ia == a.size || b.ids[ib] < a.ids[ia]) {
                next = b.ids[ib++];
            } else {
                next = a.ids[ia++];
                ++ib;
            }
            if (n == kMax) {
                return false;
            }
            out.ids[n++] = next;
        }
        out.size = n;
        out.signature = a.signature | b.signature;
        return true;
    }
};

/// Builds XOR trees that map *perfectly* onto K-input LUTs: leaves are
/// greedily packed into chunks whose combined input support stays within 6
/// wires (one LUT), then chunk roots are packed 6-at-a-time, 6-ary-Huffman
/// style (lowest LUT level first).  This is technology-aware tree
/// construction — the restructuring a LUT-oriented synthesis tool performs
/// on flat XOR equations.
///
/// Supports and levels live in tables indexed by the output netlist's
/// NodeId, grown with it and shared by every build() call on one netlist.
/// A chunk root's entries are assigned (overwriting any earlier value);
/// every other entry is computed from its fanins the first time it is read.
class LutAwareXorBuilder {
public:
    explicit LutAwareXorBuilder(Netlist& nl) : nl_{&nl} {}

    NodeId build(const std::vector<NodeId>& leaves) {
        if (leaves.empty()) {
            return nl_->const0();
        }
        grow();
        // Kept sorted by (lut level, insertion order); each item carries its
        // support, computed once as it enters.
        items_.clear();
        int seq = 0;
        for (const NodeId leaf : leaves) {
            const int level = level_of(leaf);
            items_.push_back(Item{level, seq++, leaf, false, effective_support(leaf)});
        }
        std::sort(items_.begin(), items_.end(), [](const Item& x, const Item& y) {
            return std::tie(x.level, x.seq) < std::tie(y.level, y.seq);
        });
        while (items_.size() > 1) {
            // Seed the chunk with the shallowest item, then repeatedly absorb
            // the remaining item sharing the most wires with the chunk (e.g.
            // several partial products over the same few a/b wires land in
            // one LUT), while the union support fits.  Ties go to the lowest
            // index.
            Item& seed = items_[0];
            seed.taken = true;
            chunk_.assign(1, seed.node);
            WireSet support = seed.support;
            int chunk_level = seed.level;
            while (support.size < WireSet::kMax) {
                std::size_t best = 0;
                int best_overlap = -1;
                WireSet best_merged;
                WireSet merged;
                for (std::size_t i = 1; i < items_.size(); ++i) {
                    const Item& item = items_[i];
                    if (item.taken ||
                        // Disjoint signatures mean overlap 0, which cannot
                        // beat an item that already fits.
                        (best_overlap >= 0 &&
                         (support.signature & item.support.signature) == 0) ||
                        !WireSet::merge(support, item.support, merged)) {
                        continue;
                    }
                    const int overlap = support.size + item.support.size - merged.size;
                    if (overlap > best_overlap) {
                        best_overlap = overlap;
                        best = i;
                        best_merged = merged;
                        if (overlap == support.size) {
                            break;  // a full overlap cannot be beaten
                        }
                    }
                }
                if (best == 0) {
                    break;  // nothing else fits
                }
                items_[best].taken = true;
                support = best_merged;
                chunk_.push_back(items_[best].node);
                chunk_level = std::max(chunk_level, items_[best].level);
            }
            NodeId root = kInvalidNode;
            int root_level = 0;
            if (chunk_.size() == 1) {
                // Nothing fits beside it (an already-wide wire): pair the two
                // shallowest wires instead so the loop always progresses.
                root = nl_->make_xor(items_[0].node, items_[1].node);
                root_level = std::max(items_[0].level, items_[1].level) + 1;
                items_[1].taken = true;
                grow();
            } else {
                root = nl_->make_xor_tree(chunk_, TreeShape::Balanced);
                root_level = chunk_level + 1;
                grow();
                support_[root] = support;  // chunk root cone fits one LUT
            }
            level_[root] = root_level;
            // Drop the consumed items, then insert the new root where a sort
            // by (level, seq) would put it: its seq is the largest so far.
            std::erase_if(items_, [](const Item& item) { return item.taken; });
            const auto pos = std::upper_bound(
                items_.begin(), items_.end(), root_level,
                [](int level, const Item& item) { return level < item.level; });
            items_.insert(pos, Item{root_level, seq++, root, false, effective_support(root)});
        }
        return items_[0].node;
    }

private:
    struct Item {
        int level = 0;
        int seq = 0;
        NodeId node = kInvalidNode;
        bool taken = false;
        WireSet support;
    };

    static constexpr int kUnknownLevel = -1;

    /// Extends the per-node tables to the netlist's current size.
    void grow() {
        support_.resize(nl_->node_count());
        level_.resize(nl_->node_count(), kUnknownLevel);
    }

    /// Input wires a cone needs if absorbed into a LUT; {self} when the cone
    /// is already wider than one LUT (it becomes a LUT output wire).
    const WireSet& effective_support(NodeId id) {
        WireSet& entry = support_[id];
        if (entry.size != WireSet::kUnknown) {
            return entry;
        }
        const Node& n = nl_->node(id);
        switch (n.kind) {
            case GateKind::Input:
                entry = WireSet::single(id);
                break;
            case GateKind::Const0:
                entry.size = 0;
                break;
            case GateKind::And2:
            case GateKind::Xor2:
                if (!WireSet::merge(effective_support(n.a), effective_support(n.b), entry)) {
                    entry = WireSet::single(id);  // too wide: a LUT boundary forms here
                }
                break;
        }
        return entry;
    }

    /// LUT levels this cone needs (0 = wire/input, 1 = fits one LUT, ...).
    int level_of(NodeId id) {
        if (level_[id] != kUnknownLevel) {
            return level_[id];
        }
        const Node& n = nl_->node(id);
        int level = 0;
        if (n.kind == GateKind::And2 || n.kind == GateKind::Xor2) {
            const WireSet& support = effective_support(id);
            if (!(support.size == 1 && support.ids[0] == id)) {
                level = 1;  // whole cone absorbable into one LUT
            } else {
                level = 1 + std::max(level_of(n.a), level_of(n.b));
            }
        }
        level_[id] = level;
        return level;
    }

    Netlist* nl_;
    std::vector<WireSet> support_;
    std::vector<int> level_;
    std::vector<Item> items_;   // build() scratch, reused across calls
    std::vector<NodeId> chunk_;
};

}  // namespace

Netlist dce(const Netlist& nl) {
    Netlist out;
    auto memo = seed_inputs(nl, out);
    std::vector<NodeId> stack;
    for (const auto& port : nl.outputs()) {
        out.add_output(port.name, rebuild_plain(nl, out, memo, stack, port.node));
    }
    return out;
}

Netlist balance_xor_trees(const Netlist& nl) {
    Netlist out;
    auto memo = seed_inputs(nl, out);
    const auto fanout = nl.fanout_counts();
    MinDepthXorBuilder builder{out};

    // Recursive rebuild; XOR roots are flattened through single-fanout XOR
    // children and rebuilt depth-optimally over their (possibly deep) units.
    auto rebuild = [&](auto&& self, NodeId id) -> NodeId {
        if (memo[id] != kInvalidNode) {
            return memo[id];
        }
        const Node& n = nl.node(id);
        NodeId result = kInvalidNode;
        switch (n.kind) {
            case GateKind::Input:
                result = memo[id];
                break;
            case GateKind::Const0:
                result = out.const0();
                break;
            case GateKind::And2: {
                // b's cone first, as in rebuild_plain; sequenced because
                // argument evaluation order is unspecified.
                const NodeId b = self(self, n.b);
                result = out.make_and(self(self, n.a), b);
                break;
            }
            case GateKind::Xor2: {
                const auto leaves = xor_leaves(
                    nl, id, [&](NodeId x) { return fanout[x] <= 1; });
                std::vector<NodeId> new_leaves;
                new_leaves.reserve(leaves.size());
                for (const NodeId leaf : leaves) {
                    new_leaves.push_back(self(self, leaf));
                }
                result = builder.build(new_leaves);
                break;
            }
        }
        memo[id] = result;
        return result;
    };

    for (const auto& port : nl.outputs()) {
        out.add_output(port.name, rebuild(rebuild, port.node));
    }
    return out;
}

Netlist flatten_to_anf(const Netlist& nl) {
    Netlist out;
    auto memo = seed_inputs(nl, out);
    std::vector<NodeId> stack;
    LutAwareXorBuilder builder{out};

    for (const auto& port : nl.outputs()) {
        const Node& n = nl.node(port.node);
        if (n.kind != GateKind::Xor2) {
            out.add_output(port.name, rebuild_plain(nl, out, memo, stack, port.node));
            continue;
        }
        // Expand through EVERY XOR node (shared or not): only the AND-level
        // leaves of the reduced ANF survive.
        const auto leaves = xor_leaves(nl, port.node, [](NodeId) { return true; });
        std::vector<NodeId> new_leaves;
        new_leaves.reserve(leaves.size());
        for (const NodeId leaf : leaves) {
            new_leaves.push_back(rebuild_plain(nl, out, memo, stack, leaf));
        }
        // Id order == creation order: products created together (e.g. the two
        // halves of a z term) stay adjacent, so identical subtrees reappear
        // across outputs and unify in the structural hash.
        std::sort(new_leaves.begin(), new_leaves.end());
        out.add_output(port.name, builder.build(new_leaves));
    }
    return out;
}

Netlist group_common_cones(const Netlist& nl) {
    Netlist out;
    auto memo = seed_inputs(nl, out);
    std::vector<NodeId> stack;
    LutAwareXorBuilder builder{out};

    // 1. Full ANF leaf lists per output (old ids), duplicates cancelled.
    const int n_outputs = static_cast<int>(nl.outputs().size());
    std::vector<std::vector<NodeId>> old_lists(static_cast<std::size_t>(n_outputs));
    std::vector<NodeId> plain_outputs(static_cast<std::size_t>(n_outputs), kInvalidNode);
    for (int oi = 0; oi < n_outputs; ++oi) {
        const NodeId root = nl.outputs()[static_cast<std::size_t>(oi)].node;
        if (nl.node(root).kind == GateKind::Xor2) {
            old_lists[static_cast<std::size_t>(oi)] =
                xor_leaves(nl, root, [](NodeId) { return true; });
        } else {
            plain_outputs[static_cast<std::size_t>(oi)] =
                rebuild_plain(nl, out, memo, stack, root);
        }
    }

    // 2. Output signature per leaf.
    std::unordered_map<NodeId, std::vector<int>> signature;
    for (int oi = 0; oi < n_outputs; ++oi) {
        for (const NodeId leaf : old_lists[static_cast<std::size_t>(oi)]) {
            signature[leaf].push_back(oi);
        }
    }

    // 3. Leaves sharing a signature become one group, built once.
    std::map<std::vector<int>, std::vector<NodeId>> groups;
    for (auto& [leaf, sig] : signature) {
        groups[sig].push_back(leaf);
    }
    std::vector<std::vector<NodeId>> final_lists(static_cast<std::size_t>(n_outputs));
    for (auto& [sig, leaves] : groups) {
        std::sort(leaves.begin(), leaves.end());  // old-id order: pairs stay adjacent
        std::vector<NodeId> new_leaves;
        new_leaves.reserve(leaves.size());
        for (const NodeId leaf : leaves) {
            new_leaves.push_back(rebuild_plain(nl, out, memo, stack, leaf));
        }
        std::sort(new_leaves.begin(), new_leaves.end());
        const NodeId unit = builder.build(new_leaves);
        for (const int oi : sig) {
            final_lists[static_cast<std::size_t>(oi)].push_back(unit);
        }
    }

    // 4. Rebuild each output over its group units.
    for (int oi = 0; oi < n_outputs; ++oi) {
        const auto& port = nl.outputs()[static_cast<std::size_t>(oi)];
        if (plain_outputs[static_cast<std::size_t>(oi)] != kInvalidNode) {
            out.add_output(port.name, plain_outputs[static_cast<std::size_t>(oi)]);
        } else {
            out.add_output(port.name,
                           builder.build(final_lists[static_cast<std::size_t>(oi)]));
        }
    }
    return out;
}

Netlist extract_common_xor_pairs(const Netlist& nl) { return extract_common_xor_pairs(nl, 2); }

Netlist extract_common_xor_pairs(const Netlist& nl, int min_count) {
    Netlist out;
    auto memo = seed_inputs(nl, out);
    const auto fanout = nl.fanout_counts();
    MinDepthXorBuilder builder{out};

    // 1. Flatten every output into a list of leaves in the *new* netlist.
    //    Expansion stops at non-XOR nodes and at shared (multi-fanout) XOR
    //    subterms, which are rebuilt as units via balance-style recursion.
    auto rebuild_leaf = [&](auto&& self, NodeId id) -> NodeId {
        if (memo[id] != kInvalidNode) {
            return memo[id];
        }
        const Node& n = nl.node(id);
        NodeId result = kInvalidNode;
        switch (n.kind) {
            case GateKind::Input:
                result = memo[id];
                break;
            case GateKind::Const0:
                result = out.const0();
                break;
            case GateKind::And2: {
                // b's cone first, as in rebuild_plain; sequenced because
                // argument evaluation order is unspecified.
                const NodeId b = self(self, n.b);
                result = out.make_and(self(self, n.a), b);
                break;
            }
            case GateKind::Xor2: {
                const auto leaves = xor_leaves(
                    nl, id, [&](NodeId x) { return fanout[x] <= 1; });
                std::vector<NodeId> new_leaves;
                new_leaves.reserve(leaves.size());
                for (const NodeId leaf : leaves) {
                    new_leaves.push_back(self(self, leaf));
                }
                result = builder.build(new_leaves);
                break;
            }
        }
        memo[id] = result;
        return result;
    };

    std::vector<std::vector<NodeId>> lists;   // sorted leaf lists, new ids
    lists.reserve(nl.outputs().size());
    for (const auto& port : nl.outputs()) {
        const Node& n = nl.node(port.node);
        std::vector<NodeId> new_leaves;
        if (n.kind == GateKind::Xor2) {
            const auto leaves =
                xor_leaves(nl, port.node, [&](NodeId x) { return fanout[x] <= 1; });
            for (const NodeId leaf : leaves) {
                new_leaves.push_back(rebuild_leaf(rebuild_leaf, leaf));
            }
        } else {
            new_leaves.push_back(rebuild_leaf(rebuild_leaf, port.node));
        }
        std::sort(new_leaves.begin(), new_leaves.end());
        lists.push_back(std::move(new_leaves));
    }

    // 2. Greedy fast-extract.  Only leaves appearing in >= 2 lists can form a
    //    pair with count >= 2, so everything else is skipped when counting.
    std::unordered_map<NodeId, std::vector<int>> occ;  // leaf -> list indices
    for (int li = 0; li < static_cast<int>(lists.size()); ++li) {
        for (const NodeId leaf : lists[li]) {
            occ[leaf].push_back(li);
        }
    }
    auto is_shared = [&](NodeId leaf) {
        const auto it = occ.find(leaf);
        return it != occ.end() && it->second.size() >= 2;
    };
    auto list_contains = [&](int li, NodeId leaf) {
        return std::binary_search(lists[li].begin(), lists[li].end(), leaf);
    };

    std::unordered_map<std::uint64_t, int> pair_count;
    for (const auto& list : lists) {
        for (std::size_t i = 0; i < list.size(); ++i) {
            if (!is_shared(list[i])) {
                continue;
            }
            for (std::size_t j = i + 1; j < list.size(); ++j) {
                if (is_shared(list[j])) {
                    ++pair_count[pair_key(list[i], list[j])];
                }
            }
        }
    }

    using HeapItem = std::pair<int, std::uint64_t>;  // (count, pair key)
    std::priority_queue<HeapItem> heap;
    for (const auto& [key, count] : pair_count) {
        if (count >= 2) {
            heap.emplace(count, key);
        }
    }

    auto erase_from_list = [](std::vector<NodeId>& list, NodeId leaf) {
        const auto it = std::lower_bound(list.begin(), list.end(), leaf);
        if (it != list.end() && *it == leaf) {
            list.erase(it);
        }
    };
    auto insert_into_list = [](std::vector<NodeId>& list, NodeId leaf) {
        list.insert(std::lower_bound(list.begin(), list.end(), leaf), leaf);
    };

    constexpr int kMaxExtractions = 1 << 18;  // safety valve
    for (int round = 0; round < kMaxExtractions && !heap.empty();) {
        const auto [count, key] = heap.top();
        heap.pop();
        const auto it = pair_count.find(key);
        if (it == pair_count.end()) {
            continue;
        }
        if (it->second != count) {
            if (it->second >= 2) {
                heap.emplace(it->second, key);  // re-queue with current count
            }
            continue;
        }
        if (count < min_count) {
            break;
        }
        const NodeId u = static_cast<NodeId>(key >> 32U);
        const NodeId v = static_cast<NodeId>(key & 0xFFFFFFFFU);

        // Lists containing both u and v.
        std::vector<int> hits;
        for (const int li : occ[u]) {
            if (list_contains(li, u) && list_contains(li, v)) {
                hits.push_back(li);
            }
        }
        std::sort(hits.begin(), hits.end());
        hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
        if (static_cast<int>(hits.size()) < min_count) {
            pair_count.erase(key);
            continue;  // counts went stale; re-derive lazily
        }

        const NodeId w = out.make_xor(u, v);
        for (const int li : hits) {
            auto& list = lists[li];
            // Remove stale pair contributions of u and v with this list.
            for (const NodeId x : list) {
                if (x == u || x == v || !is_shared(x)) {
                    continue;
                }
                for (const NodeId y : {u, v}) {
                    const auto pit = pair_count.find(pair_key(x, y));
                    if (pit != pair_count.end()) {
                        --pit->second;
                    }
                }
            }
            const auto uv = pair_count.find(pair_key(u, v));
            if (uv != pair_count.end()) {
                --uv->second;
            }
            erase_from_list(list, u);
            erase_from_list(list, v);
            // New pairs with w.
            for (const NodeId x : list) {
                if (is_shared(x) || x == w) {
                    const int c = ++pair_count[pair_key(x, w)];
                    if (c >= 2) {
                        heap.emplace(c, pair_key(x, w));
                    }
                }
            }
            insert_into_list(list, w);
            occ[w].push_back(li);
        }
        ++round;
    }

    // 3. Depth-aware rebuild of every output over its final leaf list.
    for (std::size_t oi = 0; oi < nl.outputs().size(); ++oi) {
        out.add_output(nl.outputs()[oi].name, builder.build(lists[oi]));
    }
    return out;
}

Netlist synthesize(const Netlist& nl, const SynthOptions& options) {
    Netlist current = dce(nl);
    if (options.group_cones) {
        current = group_common_cones(current);
    } else if (options.flatten_anf) {
        current = flatten_to_anf(current);
    }
    if (options.extract_pairs) {
        current = extract_common_xor_pairs(current, options.cse_min_count);
    }
    if (options.balance && !(options.flatten_anf || options.group_cones)) {
        current = balance_xor_trees(current);  // the rebuilds above are min-depth
    }
    return current;
}

}  // namespace gfr::netlist
