// Netlist IR: construction, simplification rules, structural hashing, fresh
// (non-interned) gates and verbatim clones, stats, and the O(1) input-name
// index — property cases run on the shared harness (tests/testutil.h).

#include "netlist/netlist.h"

#include "field/field_catalog.h"
#include "multipliers/generator.h"
#include "netlist/clone.h"
#include "netlist/equivalence.h"
#include "testutil.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace gfr::netlist {
namespace {

using testutil::Xorshift64Star;

TEST(Netlist, InputsAndOutputs) {
    Netlist nl;
    const auto a = nl.add_input("a");
    const auto b = nl.add_input("b");
    nl.add_output("y", nl.make_and(a, b));
    EXPECT_EQ(nl.inputs().size(), 2U);
    EXPECT_EQ(nl.outputs().size(), 1U);
    EXPECT_EQ(nl.input_index("a"), 0);
    EXPECT_EQ(nl.input_index("b"), 1);
    EXPECT_EQ(nl.input_index("zzz"), -1);
}

TEST(Netlist, DuplicateInputNameThrows) {
    Netlist nl;
    nl.add_input("a");
    EXPECT_THROW(nl.add_input("a"), std::invalid_argument);
}

TEST(Netlist, InputIndexMapMatchesPortOrderAtMultiplierScale) {
    // input_index is served by a hash map since PR 4 (the linear scan made
    // add_input's uniqueness check quadratic on m=571 builds).  Build an
    // m=571-sized interface in a PRNG-shuffled insertion order and check
    // the map agrees with the ports vector for every name, plus misses and
    // late duplicates.
    Xorshift64Star rng{0x1DBDULL};
    std::vector<std::string> names;
    for (int i = 0; i < 571; ++i) {
        names.push_back("a" + std::to_string(i));
        names.push_back("b" + std::to_string(i));
    }
    for (std::size_t i = names.size(); i > 1; --i) {
        std::swap(names[i - 1], names[rng.next() % i]);
    }
    Netlist nl;
    for (const auto& name : names) {
        nl.add_input(name);
    }
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
        ASSERT_EQ(nl.input_index(nl.inputs()[i].name), static_cast<int>(i));
    }
    EXPECT_EQ(nl.input_index("c0"), -1);
    EXPECT_THROW(nl.add_input(names.back()), std::invalid_argument);
}

TEST(Netlist, StructuralHashingDeduplicates) {
    Netlist nl;
    const auto a = nl.add_input("a");
    const auto b = nl.add_input("b");
    EXPECT_EQ(nl.make_and(a, b), nl.make_and(a, b));
    EXPECT_EQ(nl.make_and(a, b), nl.make_and(b, a));  // commutative canonicalisation
    EXPECT_EQ(nl.make_xor(a, b), nl.make_xor(b, a));
    EXPECT_NE(nl.make_and(a, b), nl.make_xor(a, b));
}

TEST(Netlist, SimplificationRules) {
    Netlist nl;
    const auto a = nl.add_input("a");
    const auto b = nl.add_input("b");
    const auto zero = nl.const0();
    EXPECT_EQ(nl.make_xor(a, a), zero);   // x ^ x = 0
    EXPECT_EQ(nl.make_xor(a, zero), a);   // x ^ 0 = x
    EXPECT_EQ(nl.make_and(a, a), a);      // x & x = x
    EXPECT_EQ(nl.make_and(a, zero), zero);// x & 0 = 0
    EXPECT_EQ(nl.make_and(b, zero), zero);
}

TEST(Netlist, Const0IsSingleton) {
    Netlist nl;
    EXPECT_EQ(nl.const0(), nl.const0());
}

TEST(Netlist, XorTreeShapes) {
    Netlist nl;
    std::vector<NodeId> leaves;
    for (int i = 0; i < 8; ++i) {
        leaves.push_back(nl.add_input("i" + std::to_string(i)));
    }
    nl.add_output("bal", nl.make_xor_tree(leaves, TreeShape::Balanced));
    const auto stats_bal = nl.stats();
    EXPECT_EQ(stats_bal.xor_depth, 3);  // complete tree over 8 leaves
    EXPECT_EQ(stats_bal.n_xor, 7);

    Netlist nl2;
    std::vector<NodeId> leaves2;
    for (int i = 0; i < 8; ++i) {
        leaves2.push_back(nl2.add_input("i" + std::to_string(i)));
    }
    nl2.add_output("chain", nl2.make_xor_tree(leaves2, TreeShape::Chain));
    const auto stats_chain = nl2.stats();
    EXPECT_EQ(stats_chain.xor_depth, 7);  // left-leaning chain
    EXPECT_EQ(stats_chain.n_xor, 7);
}

TEST(Netlist, XorTreeDepthIsCeilLog2) {
    for (int n = 1; n <= 33; ++n) {
        Netlist nl;
        std::vector<NodeId> leaves;
        for (int i = 0; i < n; ++i) {
            leaves.push_back(nl.add_input("i" + std::to_string(i)));
        }
        nl.add_output("o", nl.make_xor_tree(leaves, TreeShape::Balanced));
        int expected = 0;
        while ((1 << expected) < n) {
            ++expected;
        }
        EXPECT_EQ(nl.stats().xor_depth, expected) << "n=" << n;
    }
}

TEST(Netlist, EmptyXorTreeIsConst0) {
    Netlist nl;
    nl.add_input("a");
    const auto node = nl.make_xor_tree({}, TreeShape::Balanced);
    EXPECT_EQ(nl.node(node).kind, GateKind::Const0);
}

TEST(Netlist, StatsCountReachableOnly) {
    Netlist nl;
    const auto a = nl.add_input("a");
    const auto b = nl.add_input("b");
    const auto used = nl.make_and(a, b);
    nl.make_xor(a, b);  // dead gate
    nl.add_output("y", used);
    const auto stats = nl.stats();
    EXPECT_EQ(stats.n_and, 1);
    EXPECT_EQ(stats.n_xor, 0);  // the dead XOR is not counted
}

TEST(Netlist, DepthProfileSeparatesAndXor) {
    Netlist nl;
    const auto a = nl.add_input("a");
    const auto b = nl.add_input("b");
    const auto c = nl.add_input("c");
    const auto d = nl.add_input("d");
    // (a&b) ^ (c&d): one AND level below one XOR level.
    nl.add_output("y", nl.make_xor(nl.make_and(a, b), nl.make_and(c, d)));
    const auto stats = nl.stats();
    EXPECT_EQ(stats.and_depth, 1);
    EXPECT_EQ(stats.xor_depth, 1);
    EXPECT_EQ(stats.delay_string(), "T_A + T_X");
}

TEST(Netlist, DelayStringRendering) {
    NetlistStats s;
    s.and_depth = 1;
    s.xor_depth = 5;
    EXPECT_EQ(s.delay_string(), "T_A + 5T_X");
    s.and_depth = 0;
    EXPECT_EQ(s.delay_string(), "5T_X");
    s.xor_depth = 0;
    EXPECT_EQ(s.delay_string(), "0");
    s.and_depth = 2;
    s.xor_depth = 1;
    EXPECT_EQ(s.delay_string(), "2T_A + T_X");
}

TEST(Netlist, FanoutCounts) {
    Netlist nl;
    const auto a = nl.add_input("a");
    const auto b = nl.add_input("b");
    const auto p = nl.make_and(a, b);
    const auto q = nl.make_xor(p, a);
    nl.add_output("y1", q);
    nl.add_output("y2", p);  // p drives the XOR and an output
    const auto fanout = nl.fanout_counts();
    EXPECT_EQ(fanout[p], 2);
    EXPECT_EQ(fanout[q], 1);
    EXPECT_EQ(fanout[a], 2);  // AND + XOR
    EXPECT_EQ(fanout[b], 1);
}

TEST(Netlist, OutputMayAliasInput) {
    Netlist nl;
    const auto a = nl.add_input("a");
    nl.add_output("y", a);
    EXPECT_EQ(nl.stats().n_and + nl.stats().n_xor, 0);
    EXPECT_EQ(nl.stats().xor_depth, 0);
}

TEST(Netlist, InvalidFaninThrows) {
    Netlist nl;
    const auto a = nl.add_input("a");
    EXPECT_THROW(nl.make_and(a, 999), std::out_of_range);
    EXPECT_THROW(nl.make_xor(999, a), std::out_of_range);
    EXPECT_THROW(nl.add_output("y", 999), std::out_of_range);
}

TEST(Netlist, TopologicalInvariant) {
    // Every gate's fanins have smaller ids — passes and simulation rely on it.
    Netlist nl;
    const auto a = nl.add_input("a");
    const auto b = nl.add_input("b");
    const auto c = nl.add_input("c");
    auto t = nl.make_xor(nl.make_and(a, b), c);
    t = nl.make_xor(t, nl.make_and(b, c));
    nl.add_output("y", t);
    for (NodeId id = 0; id < nl.node_count(); ++id) {
        const auto& n = nl.node(id);
        if (n.kind == GateKind::And2 || n.kind == GateKind::Xor2) {
            EXPECT_LT(n.a, id);
            EXPECT_LT(n.b, id);
        }
    }
}

TEST(Netlist, VerbatimCloneIsNodeForNode) {
    const field::Field f = field::table5_fields()[0].make();
    const Netlist src = mult::build_paar_mastrovito(f);
    const Netlist copy = clone_netlist(src, {.intern = false});
    ASSERT_EQ(copy.node_count(), src.node_count());
    for (NodeId id = 0; id < src.node_count(); ++id) {
        EXPECT_EQ(static_cast<int>(copy.node(id).kind),
                  static_cast<int>(src.node(id).kind));
        EXPECT_EQ(copy.node(id).a, src.node(id).a);
        EXPECT_EQ(copy.node(id).b, src.node(id).b);
    }
    EXPECT_FALSE(check_equivalence(src, copy).has_value());
}

TEST(Netlist, FreshGatesAreNotInterned) {
    Netlist nl;
    const auto a = nl.add_input("a0");
    const auto b = nl.add_input("b0");
    const auto x1 = nl.make_xor(a, b);
    // Fresh gates never join the structural-hash table: an identical fresh
    // gate gets a new id, and XOR(a,a)/AND(a,a) stay live.
    const auto x2 = nl.make_xor_fresh(a, b);
    EXPECT_NE(x1, x2);
    const auto x3 = nl.make_xor(a, b);  // interned: finds the original
    EXPECT_EQ(x1, x3);
    const auto z = nl.make_xor_fresh(a, a);
    const auto w = nl.make_and_fresh(a, a);
    EXPECT_NE(z, w);
    EXPECT_THROW(static_cast<void>(nl.make_xor_fresh(static_cast<NodeId>(999), a)),
                 std::out_of_range);
    nl.add_output("c0", x1);
    EXPECT_EQ(nl.output_index("c0"), 0);
    EXPECT_EQ(nl.output_index("missing"), -1);
}

}  // namespace
}  // namespace gfr::netlist
