// The paper's own Tables I/III/IV, transcribed verbatim, compiled to
// netlists and validated: all three must be functionally correct GF(2^8)
// multipliers, and Table III must exhibit the complexity the paper claims
// for it (T_A + 5T_X; 64 AND).  This is as close as a reproduction can get
// to "checking the paper's math".

#include "field/field_catalog.h"
#include "multipliers/generator.h"
#include "multipliers/golden_tables.h"
#include "multipliers/verify.h"
#include "netlist/equivalence.h"
#include "testutil.h"

#include <gtest/gtest.h>

namespace gfr::mult {
namespace {

TEST(GoldenTable1, IsACorrectMultiplier) {
    const auto nl = golden_table1_netlist();
    const auto failure = verify_multiplier(nl, field::gf256_paper_field());
    EXPECT_FALSE(failure.has_value()) << failure->to_string();
}

TEST(GoldenTable1, MatchesImana2012Generator) {
    // Table I *is* the [6] formulation; both netlists must be equivalent.
    const auto golden = golden_table1_netlist();
    const auto generated =
        build_multiplier(Method::Imana2012, field::gf256_paper_field());
    EXPECT_FALSE(netlist::check_equivalence(golden, generated).has_value());
}

TEST(GoldenTable1, TermCountsMatchPaper) {
    // Table I: c0 has 4 T-terms, c1 has 3, ... — encoded as atom counts.
    const auto eqs =
        st::parse_coefficient_table(table1_text(), st::ParseMode::WholeFunctions);
    ASSERT_EQ(eqs.size(), 8U);
    const std::vector<std::size_t> expected_atoms = {5, 4, 5, 5, 5, 4, 4, 4};
    for (std::size_t k = 0; k < 8; ++k) {
        EXPECT_EQ(eqs[k].expr.atoms().size(), expected_atoms[k]) << "c" << k;
    }
}

TEST(GoldenTable3, IsACorrectMultiplier) {
    const auto nl = golden_table3_netlist();
    const auto failure = verify_multiplier(nl, field::gf256_paper_field());
    EXPECT_FALSE(failure.has_value()) << failure->to_string();
}

TEST(GoldenTable3, HasPaperComplexity) {
    // "the delay complexity is T_A + 5T_X ... 64 AND and 87 XOR gates".
    const auto stats = golden_table3_netlist().stats();
    EXPECT_EQ(stats.and_depth, 1);
    EXPECT_EQ(stats.xor_depth, 5);
    EXPECT_EQ(stats.n_and, 64);
    // XOR count with cross-coefficient sharing (see EXPERIMENTS.md): the
    // paper reports 87 for its hand-derived netlist; our compilation of the
    // very same Table III equations, with structural hashing re-using
    // repeated terms (the sharing the paper itself points out, e.g.
    // T^1_{0,4} in c0 and c2), lands within a couple of gates.
    EXPECT_NEAR(static_cast<double>(stats.n_xor), 87.0, 3.0);
}

TEST(GoldenTable3, EquivalentToImana2016Generator) {
    const auto golden = golden_table3_netlist();
    const auto generated =
        build_multiplier(Method::Imana2016Paren, field::gf256_paper_field());
    EXPECT_FALSE(netlist::check_equivalence(golden, generated).has_value());
    // Both realise T_A + 5T_X even though the hand pairing differs.
    EXPECT_EQ(golden.stats().xor_depth, generated.stats().xor_depth);
}

TEST(GoldenTable4, IsACorrectMultiplier) {
    const auto nl = golden_table4_netlist();
    const auto failure = verify_multiplier(nl, field::gf256_paper_field());
    EXPECT_FALSE(failure.has_value()) << failure->to_string();
}

TEST(GoldenTable4, MatchesDate2018Generator) {
    const auto golden = golden_table4_netlist();
    const auto generated =
        build_multiplier(Method::Date2018Flat, field::gf256_paper_field());
    EXPECT_FALSE(netlist::check_equivalence(golden, generated).has_value());
}

TEST(GoldenTable4, FlatAtomsMatchGeneratorOrder) {
    // The generator's split-term listing (S splits desc level, then T_i asc
    // index desc level) must reproduce Table IV's printed order exactly.
    const auto eqs =
        st::parse_coefficient_table(table4_text(), st::ParseMode::SplitTerms);
    const std::vector<std::vector<std::string>> expected = {
        {"S^0_1", "T^2_0", "T^1_0", "T^0_0", "T^1_4", "T^0_4", "T^1_5", "T^0_6"},
        {"S^1_2", "T^2_1", "T^1_1", "T^1_5", "T^0_6"},
        {"S^1_3", "S^0_3", "T^2_0", "T^1_0", "T^0_0", "T^2_2", "T^0_2", "T^1_4",
         "T^0_4", "T^1_5"},
        {"S^2_4", "T^2_0", "T^1_0", "T^0_0", "T^2_1", "T^1_1", "T^2_3", "T^1_4",
         "T^0_4"},
        {"S^2_5", "S^0_5", "T^2_0", "T^1_0", "T^0_0", "T^2_1", "T^1_1", "T^2_2",
         "T^0_2", "T^0_6"},
        {"S^2_6", "S^1_6", "T^2_1", "T^1_1", "T^2_2", "T^0_2", "T^2_3"},
        {"S^2_7", "S^1_7", "S^0_7", "T^2_2", "T^0_2", "T^2_3", "T^1_4", "T^0_4"},
        {"S^3_8", "T^2_3", "T^1_4", "T^0_4", "T^1_5"},
    };
    ASSERT_EQ(eqs.size(), 8U);
    for (std::size_t k = 0; k < 8; ++k) {
        const auto atoms = eqs[k].expr.atoms();
        ASSERT_EQ(atoms.size(), expected[k].size()) << "c" << k;
        for (std::size_t i = 0; i < atoms.size(); ++i) {
            EXPECT_EQ(atoms[i].to_string(), expected[k][i]) << "c" << k << " pos " << i;
        }
    }
}

TEST(GoldenTables, AllThreePairwiseEquivalent) {
    const auto t1 = golden_table1_netlist();
    const auto t3 = golden_table3_netlist();
    const auto t4 = golden_table4_netlist();
    EXPECT_FALSE(netlist::check_equivalence(t1, t3).has_value());
    EXPECT_FALSE(netlist::check_equivalence(t1, t4).has_value());
    EXPECT_FALSE(netlist::check_equivalence(t3, t4).has_value());
}

TEST(GoldenTables, NetlistsPinnedNodeForNode) {
    // Node ids must not depend on the compiler's argument evaluation order:
    // the three netlists are pinned node for node (testutil::
    // netlist_fingerprint), so a build that creates two operands' nodes in
    // the other order fails here.
    EXPECT_EQ(testutil::netlist_fingerprint(golden_table1_netlist()),
              0xcbc006a0143a5f1cULL);
    EXPECT_EQ(testutil::netlist_fingerprint(golden_table3_netlist()),
              0xb75fb46917bd8fe7ULL);
    EXPECT_EQ(testutil::netlist_fingerprint(golden_table4_netlist()),
              0x5a63bc1fafd6109eULL);
}

TEST(GoldenTables, Table4FlatHasNoNestedStructure) {
    const auto eqs =
        st::parse_coefficient_table(table4_text(), st::ParseMode::SplitTerms);
    for (const auto& eq : eqs) {
        for (const auto& child : eq.expr.children) {
            EXPECT_TRUE(child.is_leaf()) << "c" << eq.k << " should be flat";
        }
    }
}

TEST(GoldenTables, Table3UsesLevelFallbackPair) {
    // T^2_{5,6} exercises the fallback rule (T6 has no level-1 split term).
    const auto eqs =
        st::parse_coefficient_table(table3_text(), st::ParseMode::SplitTerms);
    bool found = false;
    for (const auto& eq : eqs) {
        for (const auto& atom : eq.expr.atoms()) {
            if (atom.kind == st::Atom::Kind::PairTT && atom.i == 5 && atom.j == 6) {
                found = true;
            }
        }
    }
    EXPECT_TRUE(found);
}

}  // namespace
}  // namespace gfr::mult
