#include "multipliers/golden_tables.h"

#include "field/field_catalog.h"
#include "multipliers/product_layer.h"
#include "st/st_split.h"
#include "st/st_terms.h"

#include <stdexcept>

namespace gfr::mult {

const std::string& table1_text() {
    static const std::string text = R"(c0 = S1 +T0 +T4 +T5 +T6;
c1 = S2 +T1 +T5 +T6;
c2 = S3 +T0 +T2 +T4 +T5;
c3 = S4 +T0 +T1 +T3 +T4;
c4 = S5 +T0 +T1 +T2 +T6;
c5 = S6 +T1 +T2 +T3;
c6 = S7 +T2 +T3 +T4;
c7 = S8 +T3 +T4 +T5;
)";
    return text;
}

const std::string& table3_text() {
    static const std::string text = R"(c0 = ((S01 +T10,4) +T20) + (T20,4 +T25,6);
c1 = (ST22,1 +T21) +T25,6;
c2 = ((ST13,2 + S13) +T20) + ((T10,4 +T15) + (T20,4 +T22));
c3 = ((T20,1 + S24) +T30,1) + ((T10,4 +T14) +T23);
c4 = (((ST15,0 +T12,6) + S25) +T30,1) + (T20,1 +T22);
c5 = ST36,1 + ((ST26,1 +T02) +T32,3);
c6 = ((ST17,2 + S17) + S27) + (T32,3 + (T04 +T14));
c7 = S38 + (T23 + (T24,5 +T04));
)";
    return text;
}

const std::string& table4_text() {
    static const std::string text = R"(c0 = S01 +T20 +T10 +T00 +T14 +T04 +T15 +T06;
c1 = S12 +T21 +T11 +T15 +T06;
c2 = S13 + S03 +T20 +T10 +T00 +T22 +T02 +T14 +T04 +T15;
c3 = S24 +T20 +T10 +T00 +T21 +T11 +T23 +T14 +T04;
c4 = S25 + S05 +T20 +T10 +T00 +T21 +T11 +T22 +T02 +T06;
c5 = S26 + S16 +T21 +T11 +T22 +T02 +T23;
c6 = S27 + S17 + S07 +T22 +T02 +T23 +T14 +T04;
c7 = S38 +T23 +T14 +T04 +T15;
)";
    return text;
}

const std::vector<std::string>& table2_expected_lines() {
    static const std::vector<std::string> lines = {
        "S^0_1 = x0",
        "S^1_2 = z^1_0",
        "S^0_3 = x1",
        "S^1_3 = z^2_0",
        "S^2_4 = (z^3_0 + z^2_1)",
        "S^0_5 = x2",
        "S^2_5 = (z^4_0 + z^3_1)",
        "S^1_6 = z^5_0",
        "S^2_6 = (z^4_1 + z^3_2)",
        "S^0_7 = x3",
        "S^1_7 = z^6_0",
        "S^2_7 = (z^5_1 + z^4_2)",
        "S^3_8 = (z^7_0 + z^6_1 + z^5_2 + z^4_3)",
        "T^0_0 = x4",
        "T^1_0 = z^7_1",
        "T^2_0 = (z^6_2 + z^5_3)",
        "T^1_1 = z^7_2",
        "T^2_1 = (z^6_3 + z^5_4)",
        "T^0_2 = x5",
        "T^2_2 = (z^7_3 + z^6_4)",
        "T^2_3 = (z^7_4 + z^6_5)",
        "T^0_4 = x6",
        "T^1_4 = z^7_5",
        "T^1_5 = z^7_6",
        "T^0_6 = x7",
    };
    return lines;
}

const std::vector<std::string>& section2_expected_st_lines() {
    static const std::vector<std::string> lines = {
        "S1 = x0",
        "S2 = z^1_0",
        "S3 = x1 + z^2_0",
        "S4 = z^3_0 + z^2_1",
        "S5 = x2 + z^4_0 + z^3_1",
        "S6 = z^5_0 + z^4_1 + z^3_2",
        "S7 = x3 + z^6_0 + z^5_1 + z^4_2",
        "S8 = z^7_0 + z^6_1 + z^5_2 + z^4_3",
        "T0 = x4 + z^7_1 + z^6_2 + z^5_3",
        "T1 = z^7_2 + z^6_3 + z^5_4",
        "T2 = x5 + z^7_3 + z^6_4",
        "T3 = z^7_4 + z^6_5",
        "T4 = x6 + z^7_5",
        "T5 = z^7_6",
        "T6 = x7",
    };
    return lines;
}

const std::vector<std::string>& section2_expected_split_lines() {
    static const std::vector<std::string> lines = {
        "S1 = S^0_1",
        "S2 = S^1_2",
        "S3 = S^1_3 + S^0_3",
        "S4 = S^2_4",
        "S5 = S^2_5 + S^0_5",
        "S6 = S^2_6 + S^1_6",
        "S7 = S^2_7 + S^1_7 + S^0_7",
        "S8 = S^3_8",
        "T0 = T^2_0 + T^1_0 + T^0_0",
        "T1 = T^2_1 + T^1_1",
        "T2 = T^2_2 + T^0_2",
        "T3 = T^2_3",
        "T4 = T^1_4 + T^0_4",
        "T5 = T^1_5",
        "T6 = T^0_6",
    };
    return lines;
}

namespace {

class EquationCompiler {
public:
    EquationCompiler(netlist::Netlist& nl, ProductLayer& pl, int m)
        : pl_{&pl}, m_{m}, tables_{st::make_split_tables(m)} {
        static_cast<void>(nl);
    }

    netlist::NodeId compile(const st::Expr& expr, netlist::TreeShape nary_shape) {
        if (expr.is_leaf()) {
            return atom_node(*expr.atom);
        }
        std::vector<netlist::NodeId> operands;
        operands.reserve(expr.children.size());
        for (const auto& child : expr.children) {
            operands.push_back(compile(child, nary_shape));
        }
        if (operands.size() == 2) {
            // Binary nesting is the paper's hard restriction: keep it verbatim.
            return pl_->nl().make_xor(operands[0], operands[1]);
        }
        return pl_->nl().make_xor_tree(operands, nary_shape);
    }

private:
    netlist::NodeId split_node(st::StKind kind, int index, int level) {
        const auto& sp = st::find_split_term(tables_, kind, index, level);
        return pl_->product_tree(sp.terms);
    }

    /// The split term (left_kind, i) XOR the split term (T, j), both at
    /// `level`.  T_j's nodes are created first, explicitly: inside one
    /// make_xor call the argument evaluation order is unspecified, and node
    /// ids must not depend on the compiler.
    netlist::NodeId split_pair(st::StKind left_kind, int i, int j, int level) {
        const netlist::NodeId rhs = split_node(st::StKind::T, j, level);
        const netlist::NodeId lhs = split_node(left_kind, i, level);
        return pl_->nl().make_xor(lhs, rhs);
    }

    netlist::NodeId atom_node(const st::Atom& a) {
        using Kind = st::Atom::Kind;
        switch (a.kind) {
            case Kind::WholeS:
                return pl_->term_tree(st::make_s(m_, a.i).terms);
            case Kind::WholeT:
                return pl_->term_tree(st::make_t(m_, a.i).terms);
            case Kind::SplitS:
                return split_node(st::StKind::S, a.i, a.level);
            case Kind::SplitT:
                return split_node(st::StKind::T, a.i, a.level);
            case Kind::PairTT:
                return split_pair(st::StKind::T, a.i, a.j, a.level - 1);
            case Kind::PairST:
                return split_pair(st::StKind::S, a.i, a.j, a.level - 1);
        }
        throw std::logic_error{"EquationCompiler: unknown atom kind"};
    }

    ProductLayer* pl_;
    int m_;
    st::SplitTables tables_;
};

}  // namespace

netlist::Netlist compile_equations(const std::vector<st::CoeffEquation>& equations,
                                   const field::Field& field,
                                   netlist::TreeShape nary_shape) {
    const int m = field.degree();
    if (static_cast<int>(equations.size()) != m) {
        throw std::invalid_argument{"compile_equations: need exactly m equations"};
    }
    netlist::Netlist nl;
    ProductLayer pl{nl, m};
    EquationCompiler compiler{nl, pl, m};
    // Equations may arrive in any order; emit outputs c0..c(m-1).
    std::vector<const st::CoeffEquation*> by_k(static_cast<std::size_t>(m), nullptr);
    for (const auto& eq : equations) {
        if (eq.k < 0 || eq.k >= m || by_k[static_cast<std::size_t>(eq.k)] != nullptr) {
            throw std::invalid_argument{"compile_equations: bad/duplicate coefficient index"};
        }
        by_k[static_cast<std::size_t>(eq.k)] = &eq;
    }
    for (int k = 0; k < m; ++k) {
        nl.add_output(coeff_name(k), compiler.compile(by_k[static_cast<std::size_t>(k)]->expr,
                                                      nary_shape));
    }
    return nl;
}

netlist::Netlist golden_table1_netlist() {
    const auto eqs =
        st::parse_coefficient_table(table1_text(), st::ParseMode::WholeFunctions);
    return compile_equations(eqs, field::gf256_paper_field(), netlist::TreeShape::Balanced);
}

netlist::Netlist golden_table3_netlist() {
    const auto eqs = st::parse_coefficient_table(table3_text(), st::ParseMode::SplitTerms);
    return compile_equations(eqs, field::gf256_paper_field(), netlist::TreeShape::Balanced);
}

netlist::Netlist golden_table4_netlist() {
    const auto eqs = st::parse_coefficient_table(table4_text(), st::ParseMode::SplitTerms);
    return compile_equations(eqs, field::gf256_paper_field(), netlist::TreeShape::Balanced);
}

}  // namespace gfr::mult
