#include "netlist/netlist.h"

#include <algorithm>
#include <stdexcept>

namespace gfr::netlist {

std::string NetlistStats::delay_string() const {
    std::string out;
    if (and_depth > 0) {
        out += (and_depth == 1) ? "T_A" : std::to_string(and_depth) + "T_A";
    }
    if (xor_depth > 0) {
        if (!out.empty()) {
            out += " + ";
        }
        out += (xor_depth == 1) ? "T_X" : std::to_string(xor_depth) + "T_X";
    }
    return out.empty() ? "0" : out;
}

void Netlist::check_capacity() const {
    if (nodes_.size() + 1 >= kMaxNodes) {
        throw std::length_error{"Netlist: node count limit reached (2^32 - 1)"};
    }
}

NodeId Netlist::add_input(std::string name) {
    if (input_index(name) >= 0) {
        throw std::invalid_argument{"Netlist::add_input: duplicate input name " + name};
    }
    check_capacity();
    const NodeId id = static_cast<NodeId>(nodes_.size());
    nodes_.push_back(Node{GateKind::Input, kInvalidNode, kInvalidNode});
    input_index_by_name_.emplace(name, static_cast<int>(inputs_.size()));
    inputs_.push_back(Port{std::move(name), id});
    return id;
}

NodeId Netlist::const0() {
    if (const0_ == kInvalidNode) {
        check_capacity();
        const0_ = static_cast<NodeId>(nodes_.size());
        nodes_.push_back(Node{GateKind::Const0, kInvalidNode, kInvalidNode});
    }
    return const0_;
}

std::size_t Netlist::probe(GateKind kind, NodeId a, NodeId b) const noexcept {
    const std::size_t mask = structural_hash_.size() - 1;
    std::size_t slot =
        detail::StructuralKeyHash{}({static_cast<std::uint8_t>(kind), a, b}) & mask;
    for (;; slot = (slot + 1) & mask) {
        const NodeId id = structural_hash_[slot];
        if (id == kInvalidNode) {
            return slot;
        }
        const Node& n = nodes_[id];
        if (n.kind == kind && n.a == a && n.b == b) {
            return slot;
        }
    }
}

void Netlist::grow_structural_hash() {
    // Allocate before touching the live table, so a failed growth leaves it
    // intact.
    std::vector<NodeId> old(structural_hash_.empty() ? 64 : 2 * structural_hash_.size(),
                            kInvalidNode);
    old.swap(structural_hash_);
    for (const NodeId id : old) {
        if (id != kInvalidNode) {
            const Node& n = nodes_[id];
            structural_hash_[probe(n.kind, n.a, n.b)] = id;
        }
    }
}

NodeId Netlist::intern(GateKind kind, NodeId a, NodeId b) {
    if (a > b) {
        std::swap(a, b);  // commutative gates get canonical fanin order
    }
    if (!structural_sharing_) {
        check_capacity();
        const NodeId id = static_cast<NodeId>(nodes_.size());
        nodes_.push_back(Node{kind, a, b});
        return id;  // literal elaboration: never merged, never probed
    }
    if (2 * (interned_count_ + 1) > structural_hash_.size()) {
        grow_structural_hash();  // keeps the load at most 1/2 after this insert
    }
    const std::size_t slot = probe(kind, a, b);
    if (structural_hash_[slot] != kInvalidNode) {
        return structural_hash_[slot];
    }
    check_capacity();
    const NodeId id = static_cast<NodeId>(nodes_.size());
    nodes_.push_back(Node{kind, a, b});
    structural_hash_[slot] = id;
    ++interned_count_;
    return id;
}

NodeId Netlist::find_gate(GateKind kind, NodeId a, NodeId b) const {
    if (structural_hash_.empty()) {
        return kInvalidNode;
    }
    if (a > b) {
        std::swap(a, b);
    }
    return structural_hash_[probe(kind, a, b)];
}

NodeId Netlist::make_and(NodeId a, NodeId b) {
    if (a >= nodes_.size() || b >= nodes_.size()) {
        throw std::out_of_range{"Netlist::make_and: fanin id out of range"};
    }
    if (a == b) {
        return a;  // x & x = x
    }
    if ((const0_ != kInvalidNode) && (a == const0_ || b == const0_)) {
        return const0();  // x & 0 = 0
    }
    return intern(GateKind::And2, a, b);
}

NodeId Netlist::make_xor(NodeId a, NodeId b) {
    if (a >= nodes_.size() || b >= nodes_.size()) {
        throw std::out_of_range{"Netlist::make_xor: fanin id out of range"};
    }
    if (a == b) {
        return const0();  // x ^ x = 0
    }
    if (const0_ != kInvalidNode) {
        if (a == const0_) {
            return b;  // 0 ^ x = x
        }
        if (b == const0_) {
            return a;
        }
    }
    return intern(GateKind::Xor2, a, b);
}

NodeId Netlist::make_and_fresh(NodeId a, NodeId b) {
    if (a >= nodes_.size() || b >= nodes_.size()) {
        throw std::out_of_range{"Netlist::make_and_fresh: fanin id out of range"};
    }
    check_capacity();
    const NodeId id = static_cast<NodeId>(nodes_.size());
    nodes_.push_back(Node{GateKind::And2, a, b});
    return id;
}

NodeId Netlist::make_xor_fresh(NodeId a, NodeId b) {
    if (a >= nodes_.size() || b >= nodes_.size()) {
        throw std::out_of_range{"Netlist::make_xor_fresh: fanin id out of range"};
    }
    check_capacity();
    const NodeId id = static_cast<NodeId>(nodes_.size());
    nodes_.push_back(Node{GateKind::Xor2, a, b});
    return id;
}

NodeId Netlist::make_xor_tree(std::span<const NodeId> leaves, TreeShape shape) {
    if (leaves.empty()) {
        return const0();
    }
    std::vector<NodeId> level(leaves.begin(), leaves.end());
    if (shape == TreeShape::Chain) {
        NodeId acc = level[0];
        for (std::size_t i = 1; i < level.size(); ++i) {
            acc = make_xor(acc, level[i]);
        }
        return acc;
    }
    // Balanced: repeatedly pair adjacent elements; an odd tail carries over,
    // which keeps the tree complete whenever the leaf count is a power of two.
    while (level.size() > 1) {
        std::vector<NodeId> next;
        next.reserve((level.size() + 1) / 2);
        for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
            next.push_back(make_xor(level[i], level[i + 1]));
        }
        if (level.size() % 2 == 1) {
            next.push_back(level.back());
        }
        level = std::move(next);
    }
    return level[0];
}

void Netlist::add_output(std::string name, NodeId node) {
    if (node >= nodes_.size()) {
        throw std::out_of_range{"Netlist::add_output: node id out of range"};
    }
    outputs_.push_back(Port{std::move(name), node});
}

int Netlist::input_index(const std::string& name) const {
    const auto it = input_index_by_name_.find(name);
    return it != input_index_by_name_.end() ? it->second : -1;
}

int Netlist::output_index(const std::string& name) const {
    for (std::size_t i = 0; i < outputs_.size(); ++i) {
        if (outputs_[i].name == name) {
            return static_cast<int>(i);
        }
    }
    return -1;
}

std::vector<bool> Netlist::reachable_from_outputs() const {
    std::vector<bool> seen(nodes_.size(), false);
    std::vector<NodeId> stack;
    for (const auto& out : outputs_) {
        if (!seen[out.node]) {
            seen[out.node] = true;
            stack.push_back(out.node);
        }
    }
    while (!stack.empty()) {
        const NodeId id = stack.back();
        stack.pop_back();
        const Node& n = nodes_[id];
        for (const NodeId fi : {n.a, n.b}) {
            if (fi != kInvalidNode && !seen[fi]) {
                seen[fi] = true;
                stack.push_back(fi);
            }
        }
    }
    return seen;
}

std::vector<int> Netlist::fanout_counts() const {
    const auto seen = reachable_from_outputs();
    std::vector<int> fanout(nodes_.size(), 0);
    for (NodeId id = 0; id < nodes_.size(); ++id) {
        if (!seen[id]) {
            continue;
        }
        const Node& n = nodes_[id];
        if (n.a != kInvalidNode) {
            ++fanout[n.a];
        }
        if (n.b != kInvalidNode) {
            ++fanout[n.b];
        }
    }
    for (const auto& out : outputs_) {
        ++fanout[out.node];
    }
    return fanout;
}

NetlistStats Netlist::stats() const {
    const auto seen = reachable_from_outputs();
    NetlistStats s;
    s.n_inputs = static_cast<std::int64_t>(inputs_.size());
    s.n_outputs = static_cast<std::int64_t>(outputs_.size());
    std::vector<std::int64_t> and_depth(nodes_.size(), 0);
    std::vector<std::int64_t> xor_depth(nodes_.size(), 0);
    for (NodeId id = 0; id < nodes_.size(); ++id) {
        if (!seen[id]) {
            continue;
        }
        const Node& n = nodes_[id];
        switch (n.kind) {
            case GateKind::Input:
            case GateKind::Const0:
                break;
            case GateKind::And2:
                ++s.n_and;
                and_depth[id] = 1 + std::max(and_depth[n.a], and_depth[n.b]);
                xor_depth[id] = std::max(xor_depth[n.a], xor_depth[n.b]);
                break;
            case GateKind::Xor2:
                ++s.n_xor;
                and_depth[id] = std::max(and_depth[n.a], and_depth[n.b]);
                xor_depth[id] = 1 + std::max(xor_depth[n.a], xor_depth[n.b]);
                break;
        }
        s.and_depth = std::max(s.and_depth, and_depth[id]);
        s.xor_depth = std::max(s.xor_depth, xor_depth[id]);
    }
    return s;
}

}  // namespace gfr::netlist
