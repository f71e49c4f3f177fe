#ifndef GFR_NETLIST_NETLIST_H
#define GFR_NETLIST_NETLIST_H

// Gate-level netlist intermediate representation.
//
// The IR models exactly the gate repertoire of the paper's multipliers:
// 2-input AND (partial products a_i*b_j) and 2-input XOR (GF(2) additions),
// plus primary inputs and the constant 0.  Nodes live in a flat vector and
// are created strictly bottom-up, so the vector order *is* a topological
// order (every fanin id < node id) — passes and simulation rely on this.
//
// Structural hashing: make_and/make_xor canonicalise commutative fanins and
// return an existing node when one matches, so identical subexpressions
// (e.g. a shared S^j_i term used by several product coefficients) are
// represented once, exactly like the sharing the paper exploits.

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace gfr::netlist {

enum class GateKind : std::uint8_t { Input, Const0, And2, Xor2 };

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = 0xFFFFFFFFU;

/// Hard ceiling on node count: every valid id must stay below the invalid
/// sentinel.  Construction throws std::length_error at the cliff instead of
/// silently wrapping ids.
inline constexpr std::size_t kMaxNodes = static_cast<std::size_t>(kInvalidNode);

namespace detail {

/// Exact structural-hash key.  This replaces the former packed-word key
/// ((kind << 60) | (a << 30) | b): node ids occupy 32 bits, so the 30-bit
/// fields aliased distinct fanin pairs once ids crossed 2^30 — and because
/// a probe that matched an aliased key returned that key's gate, it did not
/// merely slow a lookup down, it silently merged unrelated gates (flat
/// m >= 1024 netlists head toward that cliff, and the optimizer re-interns
/// whole netlists).  Identity is the field-exact (kind, a, b) triple: the
/// interning table stores only node ids and compares each probed slot's
/// node against the triple, so the hash may collide freely (collisions
/// only cost probes, never identity).
struct StructuralKey {
    std::uint8_t kind = 0;
    NodeId a = kInvalidNode;
    NodeId b = kInvalidNode;
    friend bool operator==(const StructuralKey&, const StructuralKey&) = default;
};

struct StructuralKeyHash {
    [[nodiscard]] std::size_t operator()(const StructuralKey& k) const noexcept {
        // splitmix64 finalizer over the exact (kind, a, b) triple.
        std::uint64_t x = (static_cast<std::uint64_t>(k.a) << 32U) | k.b;
        x += 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(k.kind) + 1);
        x = (x ^ (x >> 30U)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27U)) * 0x94d049bb133111ebULL;
        return static_cast<std::size_t>(x ^ (x >> 31U));
    }
};

}  // namespace detail

/// One gate.  For Input/Const0 the fanins are kInvalidNode.
struct Node {
    GateKind kind = GateKind::Const0;
    NodeId a = kInvalidNode;
    NodeId b = kInvalidNode;
};

/// Named primary input or output.
struct Port {
    std::string name;
    NodeId node = kInvalidNode;
};

/// How make_xor_tree arranges a multi-input XOR.
enum class TreeShape : std::uint8_t {
    Balanced,  ///< complete binary tree, depth ceil(log2 n)
    Chain,     ///< left-leaning chain, depth n-1 (the "naive" shape)
};

/// Gate counts and depth profile of the logic reachable from the outputs.
///
/// and_depth / xor_depth are the maximum number of AND / XOR gates on any
/// input-to-output path (counted independently, the convention used by the
/// paper's "T_A + k T_X" delay expressions; all multipliers here have
/// and_depth == 1 because products form a single AND layer).
///
/// All counters and depths are std::int64_t: the flat product families are
/// quadratic in m (m = 1024 already emits ~2M gates before optimization)
/// and derived quantities (gate x depth products, bench deltas) overflowed
/// the old `int` fields long before the counts themselves did.
struct NetlistStats {
    std::int64_t n_inputs = 0;
    std::int64_t n_outputs = 0;
    std::int64_t n_and = 0;
    std::int64_t n_xor = 0;
    std::int64_t and_depth = 0;
    std::int64_t xor_depth = 0;

    /// Total gate count (the area proxy used by the optimizer's reports).
    [[nodiscard]] std::int64_t gates() const noexcept { return n_and + n_xor; }

    /// "T_A + 5T_X" style rendering.
    [[nodiscard]] std::string delay_string() const;
};

class Netlist {
public:
    Netlist() = default;

    // --- Construction ----------------------------------------------------

    /// New primary input.  Names must be unique (checked).
    NodeId add_input(std::string name);

    /// The constant-0 node (created on first use).
    NodeId const0();

    /// AND with simplification (x&x = x, x&0 = 0) and structural hashing.
    NodeId make_and(NodeId a, NodeId b);

    /// XOR with simplification (x^x = 0, x^0 = x) and structural hashing.
    NodeId make_xor(NodeId a, NodeId b);

    /// XOR of an arbitrary list of leaves with the requested shape.
    /// An empty list yields const0; a single leaf is returned unchanged.
    NodeId make_xor_tree(std::span<const NodeId> leaves, TreeShape shape);

    // --- Structural sharing toggle ----------------------------------------
    // With sharing disabled, make_and/make_xor keep their algebraic
    // simplifications (x^x = 0, x&0 = 0, ...) but every surviving gate is a
    // brand-new node: no hash lookup on the way in, and the node is not
    // offered to later intern() calls or find_gate() probes.  This is the
    // *literal* elaboration the flat generator family uses — one gate per
    // operator of the written expression, with all structure recovery left
    // to the optimization pipeline (whose first pass re-interns everything,
    // exactly the load the exact StructuralKey exists for).

    /// Enable/disable hash-consing for subsequent make_and/make_xor calls.
    void set_structural_sharing(bool enabled) noexcept {
        structural_sharing_ = enabled;
    }

    [[nodiscard]] bool structural_sharing() const noexcept {
        return structural_sharing_;
    }

    // --- Fresh (non-interned) gates --------------------------------------
    // Append a brand-new node unconditionally: no simplification, no
    // structural-hash lookup, and the new node is never offered to future
    // intern() calls.  Users that need a node-for-node copy of what they
    // read:
    //
    //   - verbatim clones (netlist::clone_netlist with intern off): the
    //     optimizer's 1:1 starting copy and the mutation clones, where
    //     hashing could simplify an injected fault away (XOR(a,a) must stay
    //     a live, evaluable gate);
    //   - parse_vhdl and acv's anonymised copies, which keep one node per
    //     gate of the text or netlist they read.
    //
    // Equal fanins are legal here (XOR(a,a) evaluates to 0, AND(a,a) to a);
    // downstream passes and exec::Program handle duplicate operands.

    /// Fresh AND gate; never merged, never simplified.
    NodeId make_and_fresh(NodeId a, NodeId b);

    /// Fresh XOR gate; never merged, never simplified.
    NodeId make_xor_fresh(NodeId a, NodeId b);

    /// Register a primary output.  The same node may drive several outputs.
    void add_output(std::string name, NodeId node);

    // --- Inspection -------------------------------------------------------

    [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
    [[nodiscard]] const Node& node(NodeId id) const { return nodes_.at(id); }
    [[nodiscard]] const std::vector<Port>& inputs() const noexcept { return inputs_; }
    [[nodiscard]] const std::vector<Port>& outputs() const noexcept { return outputs_; }

    /// Index of a named input among inputs(), or -1.  O(1): served by a
    /// name->index map maintained by add_input (acv::prove_multiplier's
    /// port resolution and add_input's own uniqueness check call this per
    /// port, which was quadratic on m=571 builds with a linear scan).
    [[nodiscard]] int input_index(const std::string& name) const;

    /// Index of the first output with this name among outputs(), or -1.
    /// Linear scan: resolving all m outputs by name (acv::prove_multiplier)
    /// costs O(m^2) string compares, small beside the proof that follows.
    [[nodiscard]] int output_index(const std::string& name) const;

    /// Probe the structural hash: the interned gate matching (kind, a, b)
    /// after the same commutative canonicalisation intern() applies, or
    /// kInvalidNode.  Never creates a node and never applies the make_and/
    /// make_xor simplifications — the optimizer's dry-run costing uses this
    /// to price a candidate structure before committing to build it.
    /// Fresh (non-interned) gates are invisible here by design.
    [[nodiscard]] NodeId find_gate(GateKind kind, NodeId a, NodeId b) const;

    /// Flags for nodes reachable from any output (transitive fanin).
    [[nodiscard]] std::vector<bool> reachable_from_outputs() const;

    /// Fanout count per node, restricted to the reachable subgraph; output
    /// ports count as one fanout each.
    [[nodiscard]] std::vector<int> fanout_counts() const;

    /// Gate counts and depths over the reachable subgraph.
    [[nodiscard]] NetlistStats stats() const;

private:
    [[nodiscard]] NodeId intern(GateKind kind, NodeId a, NodeId b);

    /// Slot of the interned gate (kind, a, b) in a non-empty table, or of
    /// the empty slot where it would go.
    [[nodiscard]] std::size_t probe(GateKind kind, NodeId a, NodeId b) const noexcept;

    /// Doubles the table (or creates it) and re-inserts every interned id.
    void grow_structural_hash();

    /// Throws std::length_error when appending one more node would reach
    /// kMaxNodes (ids must stay below the kInvalidNode sentinel).
    void check_capacity() const;

    std::vector<Node> nodes_;
    std::vector<Port> inputs_;
    std::vector<Port> outputs_;
    /// Interning table: open addressing with linear probing over node ids,
    /// hashed by detail::StructuralKeyHash of the node's (kind, a, b).
    /// Size is zero or a power of two, kInvalidNode marks an empty slot, and
    /// at most half the slots are full.  Only interned gates enter it.
    std::vector<NodeId> structural_hash_;
    std::size_t interned_count_ = 0;
    std::unordered_map<std::string, int> input_index_by_name_;
    NodeId const0_ = kInvalidNode;
    bool structural_sharing_ = true;
};

}  // namespace gfr::netlist

#endif  // GFR_NETLIST_NETLIST_H
