#include "multipliers/product_layer.h"

#include <stdexcept>

namespace gfr::mult {

ProductLayer::ProductLayer(netlist::Netlist& nl, int m) : nl_{&nl}, m_{m} {
    if (m < 2) {
        throw std::invalid_argument{"ProductLayer: m must be >= 2"};
    }
    a_.reserve(static_cast<std::size_t>(m));
    b_.reserve(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i) {
        a_.push_back(nl.add_input(a_name(i)));
    }
    for (int i = 0; i < m; ++i) {
        b_.push_back(nl.add_input(b_name(i)));
    }
    products_.assign(static_cast<std::size_t>(m) * static_cast<std::size_t>(m),
                     netlist::kInvalidNode);
}

netlist::NodeId ProductLayer::a(int i) const { return a_.at(static_cast<std::size_t>(i)); }

netlist::NodeId ProductLayer::b(int i) const { return b_.at(static_cast<std::size_t>(i)); }

netlist::NodeId ProductLayer::product(int i, int j) {
    auto& memo = products_.at(static_cast<std::size_t>(i) *
                                  static_cast<std::size_t>(m_) +
                              static_cast<std::size_t>(j));
    if (memo == netlist::kInvalidNode) {
        memo = nl_->make_and(a(i), b(j));
    }
    return memo;
}

netlist::NodeId ProductLayer::z_term(int lo, int hi) {
    if (lo >= hi) {
        throw std::invalid_argument{"ProductLayer::z_term: requires lo < hi"};
    }
    // Sequenced explicitly (argument evaluation order is unspecified), so
    // node ids do not depend on the compiler.
    const netlist::NodeId high = product(hi, lo);
    return nl_->make_xor(product(lo, hi), high);
}

netlist::NodeId ProductLayer::term(const st::Term& t) {
    return t.is_square() ? x_term(t.lo) : z_term(t.lo, t.hi);
}

netlist::NodeId ProductLayer::product_tree(std::span<const st::Term> terms) {
    std::vector<netlist::NodeId> leaves;
    for (const auto& t : terms) {
        if (t.is_square()) {
            leaves.push_back(x_term(t.lo));
        } else {
            leaves.push_back(product(t.lo, t.hi));
            leaves.push_back(product(t.hi, t.lo));
        }
    }
    return nl_->make_xor_tree(leaves, netlist::TreeShape::Balanced);
}

netlist::NodeId ProductLayer::term_tree(std::span<const st::Term> terms) {
    std::vector<netlist::NodeId> leaves;
    leaves.reserve(terms.size());
    for (const auto& t : terms) {
        leaves.push_back(term(t));
    }
    return nl_->make_xor_tree(leaves, netlist::TreeShape::Balanced);
}

std::string coeff_name(int k) { return "c" + std::to_string(k); }
std::string a_name(int k) { return "a" + std::to_string(k); }
std::string b_name(int k) { return "b" + std::to_string(k); }

}  // namespace gfr::mult
