#include "netlist/passes.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <queue>
#include <span>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
#include <vector>

namespace gfr::netlist {

namespace {

/// Sort `leaves` and cancel equal leaves pairwise (x ^ x = 0), in place.
void cancel_pairs(std::vector<NodeId>& leaves) {
    std::sort(leaves.begin(), leaves.end());
    std::size_t kept = 0;
    for (std::size_t i = 0; i < leaves.size();) {
        std::size_t j = i;
        while (j < leaves.size() && leaves[j] == leaves[i]) {
            ++j;
        }
        if ((j - i) % 2 == 1) {
            leaves[kept++] = leaves[i];
        }
        i = j;
    }
    leaves.resize(kept);
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
    cancel_pairs(leaves);
    return leaves;
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

    NodeId build(std::span<const NodeId> leaves) {
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

/// Rebuilds cones of `src` into `dst`, memoised per node, with the inputs
/// copied first in their order.  Plain, it copies every gate; balancing,
/// it flattens each XOR through its single-fanout XOR children
/// (xor_leaves) and builds a depth-optimal tree over the rebuilt leaves.
/// It walks iteratively on frames_ (deep chains never touch the call
/// stack) and creates nodes in the order of the recursion it stands for:
/// a gate's b cone before its a cone, an XOR's leaves in xor_leaves order.
class Rebuilder {
public:
    Rebuilder(const Netlist& src, Netlist& dst, bool balance)
        : src_{&src},
          dst_{&dst},
          balance_{balance},
          memo_(src.node_count(), kInvalidNode),
          fanout_{balance ? src.fanout_counts() : std::vector<int>{}},
          builder_{dst} {
        for (const auto& port : src.inputs()) {
            memo_[port.node] = dst.add_input(port.name);
        }
    }

    /// The leaves of the XOR tree at `root`, through single-fanout XORs.
    [[nodiscard]] std::vector<NodeId> leaves(NodeId root) const {
        return xor_leaves(*src_, root, [this](NodeId x) { return fanout_[x] <= 1; });
    }

    [[nodiscard]] MinDepthXorBuilder& builder() noexcept { return builder_; }

    NodeId operator()(NodeId id) {
        enter(id);
        while (!frames_.empty()) {
            // The top frame's children are the tail of pool_, from `begin`.
            Frame& frame = frames_.back();
            while (frame.next < pool_.size() && memo_[pool_[frame.next]] != kInvalidNode) {
                ++frame.next;
            }
            if (frame.next < pool_.size()) {
                enter(pool_[frame.next]);
                continue;
            }
            const Node& n = src_->node(frame.id);
            if (n.kind == GateKind::And2) {
                memo_[frame.id] = dst_->make_and(memo_[n.a], memo_[n.b]);
            } else if (!balance_) {
                memo_[frame.id] = dst_->make_xor(memo_[n.a], memo_[n.b]);
            } else {
                const auto units = std::span{pool_}.subspan(frame.begin);
                for (NodeId& unit : units) {
                    unit = memo_[unit];
                }
                memo_[frame.id] = builder_.build(units);
            }
            pool_.resize(frame.begin);
            frames_.pop_back();
        }
        return memo_[id];
    }

private:
    /// A gate being rebuilt: its children (b then a, or its XOR leaves)
    /// start at pool_[begin], and those before `next` are rebuilt.
    struct Frame {
        NodeId id = kInvalidNode;
        std::size_t begin = 0;
        std::size_t next = 0;
    };

    /// Starts rebuilding `id` unless it is rebuilt: a constant at once, a
    /// gate as a new frame over its children.
    void enter(NodeId id) {
        if (memo_[id] != kInvalidNode) {
            return;
        }
        const std::size_t begin = pool_.size();
        const Node& n = src_->node(id);
        switch (n.kind) {
            case GateKind::Input:
                throw std::logic_error{"Rebuilder: input was not seeded"};
            case GateKind::Const0:
                memo_[id] = dst_->const0();
                return;
            case GateKind::And2:
            case GateKind::Xor2:
                if (n.kind == GateKind::Xor2 && balance_) {
                    const auto units = leaves(id);
                    pool_.insert(pool_.end(), units.begin(), units.end());
                } else {
                    pool_.insert(pool_.end(), {n.b, n.a});
                }
                break;
        }
        frames_.push_back(Frame{id, begin, begin});
    }

    const Netlist* src_;
    Netlist* dst_;
    bool balance_;
    std::vector<NodeId> memo_;  ///< old id -> new id
    std::vector<int> fanout_;   ///< src's fanout counts when balancing
    MinDepthXorBuilder builder_;
    std::vector<Frame> frames_;
    std::vector<NodeId> pool_;  ///< the open frames' children
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
///
/// Only an item that shares a wire with the chunk can overlap it, so each
/// wire lists the items whose support holds it, and an absorb step visits
/// just those.  When none of them fits, the pick is the first item in
/// (level, seq) order whose support fits the room left: the least top of
/// the min-heaps for support sizes up to that room.  A sum of L leaves
/// costs O(L log L) plus the items met through the chunk's wires.
class LutAwareXorBuilder {
public:
    explicit LutAwareXorBuilder(Netlist& nl) : nl_{&nl} {}

    NodeId build(const std::vector<NodeId>& leaves) {
        if (leaves.empty()) {
            return nl_->const0();
        }
        grow();
        // Items are ordered by (lut level, seq), seq being the insertion
        // order (the item's index); each carries its support, computed once
        // as it enters.
        items_.clear();
        for (const NodeId leaf : leaves) {
            const int level = level_of(leaf);
            add_item(level, leaf, effective_support(leaf));
        }
        while (live_ > 1) {
            // Seed the chunk with the shallowest item, then repeatedly absorb
            // the item sharing the most wires with the chunk (e.g. several
            // partial products over the same few a/b wires land in one LUT),
            // while the union support fits.  Ties go to the lowest
            // (level, seq).
            const std::uint32_t seed = first_fitting(WireSet::kMax);
            take(seed);
            chunk_.assign(1, items_[seed].node);
            WireSet support = items_[seed].support;
            int chunk_level = items_[seed].level;
            for (std::uint8_t k = 0; k < support.size; ++k) {
                count_wire(support.ids[k]);
            }
            while (support.size < WireSet::kMax) {
                const std::uint32_t best = best_fitting(support);
                if (best == kNone) {
                    break;  // nothing else fits
                }
                const WireSet before = support;
                WireSet::merge(before, items_[best].support, support);
                take(best);
                chunk_.push_back(items_[best].node);
                chunk_level = std::max(chunk_level, items_[best].level);
                const WireSet& added = items_[best].support;
                for (std::uint8_t k = 0; k < added.size; ++k) {
                    if (!std::binary_search(before.ids.begin(), before.ids.begin() + before.size,
                                            added.ids[k])) {
                        count_wire(added.ids[k]);
                    }
                }
            }
            for (const std::uint32_t i : touched_) {
                items_[i].overlap = 0;
            }
            touched_.clear();
            NodeId root = kInvalidNode;
            int root_level = 0;
            if (chunk_.size() == 1) {
                // Nothing fits beside it (an already-wide wire): pair the two
                // shallowest wires instead so the loop always progresses.
                const std::uint32_t next = first_fitting(WireSet::kMax);
                take(next);
                root = nl_->make_xor(items_[seed].node, items_[next].node);
                root_level = std::max(items_[seed].level, items_[next].level) + 1;
                grow();
            } else {
                root = nl_->make_xor_tree(chunk_, TreeShape::Balanced);
                root_level = chunk_level + 1;
                grow();
                support_[root] = support;  // chunk root cone fits one LUT
            }
            level_[root] = root_level;
            add_item(root_level, root, effective_support(root));
        }
        const NodeId result = items_[first_fitting(WireSet::kMax)].node;
        for (const Item& item : items_) {
            for (std::uint8_t k = 0; k < item.support.size; ++k) {
                wire_head_[item.support.ids[k]] = kNone;
            }
        }
        entries_.clear();
        for (auto& heap : heaps_) {
            heap.clear();
        }
        live_ = 0;
        return result;
    }

private:
    struct Item {
        int level = 0;
        NodeId node = kInvalidNode;
        bool live = true;
        std::uint8_t overlap = 0;  ///< wires shared with the current chunk
        WireSet support;
    };

    /// One item on one wire's list: the lists are singly linked through
    /// entries_, and an entry of a taken item is unlinked when next walked.
    struct Entry {
        std::uint32_t item = 0;
        std::uint32_t next = 0;
    };

    static constexpr int kUnknownLevel = -1;
    static constexpr std::uint32_t kNone = 0xFFFFFFFFU;

    /// (level, seq) as one integer: its order is the items' order.
    [[nodiscard]] std::uint64_t order_key(std::uint32_t i) const {
        return (static_cast<std::uint64_t>(items_[i].level) << 32U) | i;
    }

    /// Extends the per-node tables to the netlist's current size.
    void grow() {
        support_.resize(nl_->node_count());
        level_.resize(nl_->node_count(), kUnknownLevel);
        wire_head_.resize(nl_->node_count(), kNone);
    }

    void add_item(int level, NodeId node, const WireSet& support) {
        const auto i = static_cast<std::uint32_t>(items_.size());
        items_.push_back(Item{level, node, true, 0, support});
        ++live_;
        auto& heap = heaps_[support.size];
        heap.push_back(order_key(i));
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
        for (std::uint8_t k = 0; k < support.size; ++k) {
            std::uint32_t& head = wire_head_[support.ids[k]];
            entries_.push_back(Entry{i, head});
            head = static_cast<std::uint32_t>(entries_.size() - 1);
        }
    }

    void take(std::uint32_t i) {
        items_[i].live = false;
        --live_;
    }

    /// Adds one to the overlap of every live item on `wire`'s list.
    void count_wire(NodeId wire) {
        std::uint32_t* link = &wire_head_[wire];
        while (*link != kNone) {
            Entry& entry = entries_[*link];
            Item& item = items_[entry.item];
            if (!item.live) {
                *link = entry.next;
                continue;
            }
            if (item.overlap++ == 0) {
                touched_.push_back(entry.item);
            }
            link = &entry.next;
        }
    }

    /// The fitting item with the largest overlap with `support`, the lowest
    /// (level, seq) on ties; kNone when nothing fits.
    std::uint32_t best_fitting(const WireSet& support) {
        std::uint32_t best = kNone;
        int best_overlap = 0;
        for (const std::uint32_t i : touched_) {
            const Item& item = items_[i];
            if (!item.live || support.size + item.support.size - item.overlap > WireSet::kMax) {
                continue;
            }
            if (best == kNone || item.overlap > best_overlap ||
                (item.overlap == best_overlap && order_key(i) < order_key(best))) {
                best = i;
                best_overlap = item.overlap;
            }
        }
        if (best != kNone) {
            return best;
        }
        // No item sharing a wire fits, so the pick has overlap 0: any item
        // whose support fits the room left, and such an item shares no wire.
        return first_fitting(WireSet::kMax - support.size);
    }

    /// The first live item in (level, seq) order with at most `room` wires,
    /// or kNone.
    std::uint32_t first_fitting(int room) {
        std::uint64_t first = std::numeric_limits<std::uint64_t>::max();
        for (int size = 0; size <= room; ++size) {
            auto& heap = heaps_[static_cast<std::size_t>(size)];
            while (!heap.empty() && !items_[static_cast<std::uint32_t>(heap.front())].live) {
                std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
                heap.pop_back();
            }
            if (!heap.empty()) {
                first = std::min(first, heap.front());
            }
        }
        return first == std::numeric_limits<std::uint64_t>::max()
                   ? kNone
                   : static_cast<std::uint32_t>(first);
    }

    /// Input wires a cone needs if absorbed into a LUT; {self} when the cone
    /// is already wider than one LUT (it becomes a LUT output wire).  Each
    /// entry is a pure function of its fanins' entries, so the walk runs
    /// iteratively, fanins first (deep chains never touch the call stack);
    /// a node on the walk is always one whose entry is still unknown.
    const WireSet& effective_support(NodeId id) {
        if (support_[id].size != WireSet::kUnknown) {
            return support_[id];
        }
        support_walk_.assign(1, id);
        while (!support_walk_.empty()) {
            const NodeId top = support_walk_.back();
            WireSet& entry = support_[top];
            const Node& n = nl_->node(top);
            switch (n.kind) {
                case GateKind::Input:
                    entry = WireSet::single(top);
                    break;
                case GateKind::Const0:
                    entry.size = 0;
                    break;
                case GateKind::And2:
                case GateKind::Xor2:
                    if (support_[n.a].size == WireSet::kUnknown) {
                        support_walk_.push_back(n.a);
                        continue;
                    }
                    if (support_[n.b].size == WireSet::kUnknown) {
                        support_walk_.push_back(n.b);
                        continue;
                    }
                    if (!WireSet::merge(support_[n.a], support_[n.b], entry)) {
                        entry = WireSet::single(top);  // too wide: a LUT boundary forms here
                    }
                    break;
            }
            support_walk_.pop_back();
        }
        return support_[id];
    }

    /// LUT levels this cone needs (0 = wire/input, 1 = fits one LUT, ...);
    /// iterative like effective_support.
    int level_of(NodeId id) {
        if (level_[id] != kUnknownLevel) {
            return level_[id];
        }
        level_walk_.assign(1, id);
        while (!level_walk_.empty()) {
            const NodeId top = level_walk_.back();
            const Node& n = nl_->node(top);
            int level = 0;
            if (n.kind == GateKind::And2 || n.kind == GateKind::Xor2) {
                const WireSet& support = effective_support(top);
                if (!(support.size == 1 && support.ids[0] == top)) {
                    level = 1;  // whole cone absorbable into one LUT
                } else if (level_[n.a] == kUnknownLevel) {
                    level_walk_.push_back(n.a);
                    continue;
                } else if (level_[n.b] == kUnknownLevel) {
                    level_walk_.push_back(n.b);
                    continue;
                } else {
                    level = 1 + std::max(level_[n.a], level_[n.b]);
                }
            }
            level_[top] = level;
            level_walk_.pop_back();
        }
        return level_[id];
    }

    Netlist* nl_;
    std::vector<WireSet> support_;
    std::vector<int> level_;
    std::vector<std::uint32_t> wire_head_;  ///< per node: its first Entry, or kNone
    // build() scratch, reused across calls.
    std::vector<Item> items_;
    std::uint32_t live_ = 0;
    std::vector<Entry> entries_;
    /// Min-heaps of order_key, one per support size.
    std::array<std::vector<std::uint64_t>, WireSet::kMax + 1> heaps_;
    std::vector<std::uint32_t> touched_;  ///< items whose overlap is nonzero
    std::vector<NodeId> chunk_;
    std::vector<NodeId> support_walk_;  ///< effective_support's pending nodes
    std::vector<NodeId> level_walk_;    ///< level_of's pending nodes
};

}  // namespace

Netlist dce(const Netlist& nl) {
    Netlist out;
    Rebuilder rebuild{nl, out, false};
    for (const auto& port : nl.outputs()) {
        out.add_output(port.name, rebuild(port.node));
    }
    return out;
}

Netlist balance_xor_trees(const Netlist& nl) {
    Netlist out;
    Rebuilder rebuild{nl, out, true};
    for (const auto& port : nl.outputs()) {
        out.add_output(port.name, rebuild(port.node));
    }
    return out;
}

Netlist flatten_to_anf(const Netlist& nl) {
    Netlist out;
    Rebuilder rebuild{nl, out, false};
    LutAwareXorBuilder builder{out};

    for (const auto& port : nl.outputs()) {
        const Node& n = nl.node(port.node);
        if (n.kind != GateKind::Xor2) {
            out.add_output(port.name, rebuild(port.node));
            continue;
        }
        // Expand through EVERY XOR node (shared or not): only the AND-level
        // leaves of the reduced ANF survive.
        const auto leaves = xor_leaves(nl, port.node, [](NodeId) { return true; });
        std::vector<NodeId> new_leaves;
        new_leaves.reserve(leaves.size());
        for (const NodeId leaf : leaves) {
            new_leaves.push_back(rebuild(leaf));
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
    Rebuilder rebuild{nl, out, false};
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
                rebuild(root);
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
            new_leaves.push_back(rebuild(leaf));
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
    // 1. Flatten every output into a list of leaves in the *new* netlist.
    //    Expansion stops at non-XOR nodes and at shared (multi-fanout) XOR
    //    subterms, which are rebuilt as units, balance-style.
    Rebuilder rebuild{nl, out, true};

    // Each list is a set: two old leaves can rebuild onto one new node
    // (b & x with x == b rebuilds to b), and such a pair cancels mod 2.
    std::vector<std::vector<NodeId>> lists;   // sorted leaf sets, new ids
    lists.reserve(nl.outputs().size());
    for (const auto& port : nl.outputs()) {
        std::vector<NodeId> new_leaves;
        if (nl.node(port.node).kind == GateKind::Xor2) {
            for (const NodeId leaf : rebuild.leaves(port.node)) {
                new_leaves.push_back(rebuild(leaf));
            }
        } else {
            new_leaves.push_back(rebuild(port.node));
        }
        cancel_pairs(new_leaves);
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
            if (list_contains(li, w)) {
                erase_from_list(list, w);  // w ^ w cancels
                continue;
            }
            // New pairs with w.
            for (const NodeId x : list) {
                if (is_shared(x)) {
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
        out.add_output(nl.outputs()[oi].name, rebuild.builder().build(lists[oi]));
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
