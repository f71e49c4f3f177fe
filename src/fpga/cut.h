#ifndef GFR_FPGA_CUT_H
#define GFR_FPGA_CUT_H

// Cuts for K-LUT technology mapping.  A cut of node v is a set of <= K nodes
// ("leaves") such that every path from the primary inputs to v passes through
// a leaf; the cone between leaves and v can then be implemented by one K-LUT.
// Cuts are built bottom-up by merging fanin cuts (Cong & Ding / ABC style).

#include "netlist/netlist.h"

#include <array>
#include <bit>
#include <cstdint>
#include <optional>

namespace gfr::fpga {

struct Cut {
    static constexpr int kMaxLeaves = 6;

    std::array<netlist::NodeId, kMaxLeaves> leaves{};  // sorted, first `size`
    std::uint8_t size = 0;
    int depth = 0;          ///< LUT levels when this cut implements the node
    double area_flow = 0;   ///< estimated area share (lower = cheaper)
    std::uint64_t signature = 0;  ///< bloom filter of leaves for fast rejects

    /// Single-leaf cut {node} — the node seen as a leaf by its fanouts.
    static Cut trivial(netlist::NodeId node);

    /// Union of two cuts if it fits in `k` leaves; nullopt otherwise.
    static std::optional<Cut> merge(const Cut& a, const Cut& b, int k);

    /// The union behind merge(): writes the sorted union of `a` and `b` into
    /// `out`'s leaves, size and signature (depth and area flow untouched),
    /// calling `on_leaf(id)` for each leaf in ascending id order, and returns
    /// true iff it fits in `k` leaves.  On false, `out` is partly written and
    /// `on_leaf` may have seen up to `k` leaves.  The mapper folds its depth
    /// and area flow through `on_leaf`.
    template <class OnLeaf>
    static bool merge_into(const Cut& a, const Cut& b, int k, Cut& out, OnLeaf&& on_leaf);

    [[nodiscard]] bool same_leaves(const Cut& other) const;

    /// True iff every leaf of `other` is also a leaf of *this (dominance:
    /// a smaller cut dominates a larger one with equal quality).
    [[nodiscard]] bool subset_of(const Cut& other) const;
};

template <class OnLeaf>
bool Cut::merge_into(const Cut& a, const Cut& b, int k, Cut& out, OnLeaf&& on_leaf) {
    if (std::popcount(a.signature | b.signature) > k) {
        return false;  // at least popcount distinct leaves
    }
    int ia = 0;
    int ib = 0;
    int n = 0;
    while (ia < a.size || ib < b.size) {
        netlist::NodeId next = 0;
        if (ib == b.size || (ia < a.size && a.leaves[static_cast<std::size_t>(ia)] <
                                                b.leaves[static_cast<std::size_t>(ib)])) {
            next = a.leaves[static_cast<std::size_t>(ia++)];
        } else if (ia == a.size || b.leaves[static_cast<std::size_t>(ib)] <
                                       a.leaves[static_cast<std::size_t>(ia)]) {
            next = b.leaves[static_cast<std::size_t>(ib++)];
        } else {
            next = a.leaves[static_cast<std::size_t>(ia++)];
            ++ib;
        }
        if (n == k) {
            return false;
        }
        out.leaves[static_cast<std::size_t>(n++)] = next;
        on_leaf(next);
    }
    out.size = static_cast<std::uint8_t>(n);
    out.signature = a.signature | b.signature;
    return true;
}

}  // namespace gfr::fpga

#endif  // GFR_FPGA_CUT_H
