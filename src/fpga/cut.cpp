#include "fpga/cut.h"

namespace gfr::fpga {

Cut Cut::trivial(netlist::NodeId node) {
    Cut c;
    c.leaves[0] = node;
    c.size = 1;
    c.signature = std::uint64_t{1} << (node % 64);
    return c;
}

std::optional<Cut> Cut::merge(const Cut& a, const Cut& b, int k) {
    Cut out;
    if (!merge_into(a, b, k, out, [](netlist::NodeId) {})) {
        return std::nullopt;
    }
    return out;
}

bool Cut::same_leaves(const Cut& other) const {
    if (size != other.size || signature != other.signature) {
        return false;
    }
    for (int i = 0; i < size; ++i) {
        if (leaves[static_cast<std::size_t>(i)] != other.leaves[static_cast<std::size_t>(i)]) {
            return false;
        }
    }
    return true;
}

bool Cut::subset_of(const Cut& other) const {
    if (size > other.size || (signature & ~other.signature) != 0) {
        return false;
    }
    int j = 0;
    for (int i = 0; i < size; ++i) {
        while (j < other.size &&
               other.leaves[static_cast<std::size_t>(j)] < leaves[static_cast<std::size_t>(i)]) {
            ++j;
        }
        if (j == other.size ||
            other.leaves[static_cast<std::size_t>(j)] != leaves[static_cast<std::size_t>(i)]) {
            return false;
        }
    }
    return true;
}

}  // namespace gfr::fpga
