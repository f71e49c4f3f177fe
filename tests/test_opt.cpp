// Optimization-pipeline tier: the passes of src/opt (strash, cut rewriting,
// the campaign-gated optimize() chain), the structural-hash key
// regression, and the widened netlist statistics.

#include "field/field_catalog.h"
#include "multipliers/generator.h"
#include "multipliers/verify.h"
#include "netlist/equivalence.h"
#include "netlist/passes.h"
#include "opt/opt.h"
#include "testutil.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <new>
#include <string>
#include <type_traits>
#include <vector>

namespace gfr::opt {
namespace {

using netlist::GateKind;
using netlist::kInvalidNode;
using netlist::Netlist;
using netlist::NodeId;

// --- Structural-hash key regression -----------------------------------------

TEST(StructuralKey, ExactKeyDoesNotAliasLargeIds) {
    // The former intern key packed (kind, a, b) as (kind<<60)|(a<<30)|b:
    // any fanin id >= 2^30 overflowed its 30-bit field, so e.g.
    // (And2, a=1, b=2^30) and (And2, a=2, b=0) collapsed onto the same
    // 64-bit key and unrelated gates merged.  The exact-field key must keep
    // every such historical alias pair distinct.
    using netlist::detail::StructuralKey;
    using netlist::detail::StructuralKeyHash;
    const auto and_kind = static_cast<std::uint8_t>(GateKind::And2);
    const StructuralKey k1{and_kind, 1, NodeId{1} << 30U};
    const StructuralKey k2{and_kind, 2, 0};
    EXPECT_FALSE(k1 == k2);
    EXPECT_NE(StructuralKeyHash{}(k1), StructuralKeyHash{}(k2));
    // (a<<30)|b also aliased high-id XOR pairs against shifted ones.
    const auto xor_kind = static_cast<std::uint8_t>(GateKind::Xor2);
    const StructuralKey k3{xor_kind, 7, (NodeId{5} << 30U) | 3U};
    const StructuralKey k4{xor_kind, 12, 3};
    EXPECT_FALSE(k3 == k4);
    // Same triple still compares (and hashes) equal.
    const StructuralKey k5{and_kind, 1, NodeId{1} << 30U};
    EXPECT_TRUE(k1 == k5);
    EXPECT_EQ(StructuralKeyHash{}(k1), StructuralKeyHash{}(k5));
}

TEST(StructuralKey, FindGateProbesWithoutCreating) {
    Netlist nl;
    const NodeId a = nl.add_input("a");
    const NodeId b = nl.add_input("b");
    const NodeId g = nl.make_and(a, b);
    const std::size_t before = nl.node_count();
    // Canonicalized both ways; absent gates miss; nothing is created.
    EXPECT_EQ(nl.find_gate(GateKind::And2, a, b), g);
    EXPECT_EQ(nl.find_gate(GateKind::And2, b, a), g);
    EXPECT_EQ(nl.find_gate(GateKind::Xor2, a, b), kInvalidNode);
    EXPECT_EQ(nl.node_count(), before);
    // Fresh (non-interned) gates stay invisible to the probe.
    const NodeId fresh = nl.make_xor_fresh(a, b);
    EXPECT_NE(fresh, kInvalidNode);
    EXPECT_EQ(nl.find_gate(GateKind::Xor2, a, b), kInvalidNode);
}

TEST(StructuralKey, FlatTableKeepsIdentityThroughGrowth) {
    // 6,320 distinct gates take the interning table through several
    // doublings; afterwards every gate is found again under its own id,
    // with its fanins in either order, and nothing new is created.
    Netlist nl;
    std::vector<NodeId> inputs;
    for (int i = 0; i < 80; ++i) {
        inputs.push_back(nl.add_input("i" + std::to_string(i)));
    }
    struct Gate {
        GateKind kind;
        NodeId a;
        NodeId b;
        NodeId id;
    };
    std::vector<Gate> gates;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        for (std::size_t j = i + 1; j < inputs.size(); ++j) {
            const NodeId a = inputs[i];
            const NodeId b = inputs[j];
            gates.push_back({GateKind::And2, a, b, nl.make_and(a, b)});
            gates.push_back({GateKind::Xor2, a, b, nl.make_xor(a, b)});
        }
    }
    ASSERT_GE(gates.size(), 5000U);
    ASSERT_EQ(nl.node_count(), inputs.size() + gates.size());  // all distinct
    const std::size_t count = nl.node_count();
    std::size_t mismatches = 0;
    for (const Gate& g : gates) {
        const bool is_and = g.kind == GateKind::And2;
        mismatches += (is_and ? nl.make_and(g.a, g.b) : nl.make_xor(g.a, g.b)) != g.id;
        mismatches += (is_and ? nl.make_and(g.b, g.a) : nl.make_xor(g.b, g.a)) != g.id;
        mismatches += nl.find_gate(g.kind, g.b, g.a) != g.id;
    }
    EXPECT_EQ(mismatches, 0U);
    EXPECT_EQ(nl.node_count(), count);
}

TEST(StructuralKey, FailedGrowthKeepsEveryGate) {
    // Growth allocates the doubled table before it releases the live one,
    // so a growth that throws loses no interned gate.
    Netlist nl;
    std::vector<NodeId> inputs;
    for (int i = 0; i < 10; ++i) {
        inputs.push_back(nl.add_input("i" + std::to_string(i)));
    }
    std::vector<NodeId> gates;
    for (std::size_t i = 0; i < inputs.size() && gates.size() < 32; ++i) {
        for (std::size_t j = i + 1; j < inputs.size() && gates.size() < 32; ++j) {
            gates.push_back(nl.make_xor(inputs[i], inputs[j]));
        }
    }
    const std::size_t count = nl.node_count();
    // 32 gates fill the first 64-slot table to half: the 33rd must grow it.
    {
        const testutil::FailNextAllocation fail;
        EXPECT_THROW((void)nl.make_and(inputs[0], inputs[1]), std::bad_alloc);
        EXPECT_TRUE(fail.fired());
    }
    EXPECT_EQ(nl.node_count(), count);
    std::size_t missing = 0;
    for (std::size_t g = 0; g < gates.size(); ++g) {
        const auto& n = nl.node(gates[g]);
        missing += nl.find_gate(GateKind::Xor2, n.b, n.a) != gates[g];
    }
    EXPECT_EQ(missing, 0U);
    const NodeId grown = nl.make_and(inputs[0], inputs[1]);
    EXPECT_EQ(grown, count);
    EXPECT_EQ(nl.make_xor(inputs[1], inputs[0]), gates[0]);
}

TEST(StructuralKey, FindGateMissesAbsentFreshAndEmpty) {
    Netlist empty;
    EXPECT_EQ(empty.find_gate(GateKind::And2, 0, 1), kInvalidNode);
    Netlist nl;
    const NodeId a = nl.add_input("a");
    const NodeId b = nl.add_input("b");
    const NodeId c = nl.add_input("c");
    EXPECT_EQ(nl.find_gate(GateKind::And2, a, b), kInvalidNode);  // no gate yet
    const NodeId g = nl.make_and(a, b);
    EXPECT_EQ(nl.find_gate(GateKind::Xor2, a, b), kInvalidNode);
    EXPECT_EQ(nl.find_gate(GateKind::And2, a, c), kInvalidNode);
    // A fresh gate, and a gate built with sharing off, never enter the
    // table: their triples stay absent, and interning one makes a new node.
    const NodeId fresh = nl.make_xor_fresh(b, c);
    EXPECT_EQ(nl.find_gate(GateKind::Xor2, b, c), kInvalidNode);
    nl.set_structural_sharing(false);
    const NodeId literal = nl.make_and(a, c);
    nl.set_structural_sharing(true);
    EXPECT_EQ(nl.find_gate(GateKind::And2, a, c), kInvalidNode);
    const NodeId interned = nl.make_xor(c, b);
    EXPECT_NE(interned, fresh);
    EXPECT_NE(nl.make_and(c, a), literal);
    EXPECT_EQ(nl.find_gate(GateKind::Xor2, b, c), interned);
    EXPECT_EQ(nl.find_gate(GateKind::And2, b, a), g);
}

TEST(StructuralKey, CopyInternsIndependently) {
    Netlist src;
    std::vector<NodeId> inputs;
    for (int i = 0; i < 40; ++i) {
        inputs.push_back(src.add_input("i" + std::to_string(i)));
    }
    const NodeId g = src.make_and(inputs[0], inputs[1]);
    Netlist copy = src;
    EXPECT_EQ(copy.make_and(inputs[1], inputs[0]), g);  // inherited entry
    // Grow the copy's table well past the source's.
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        for (std::size_t j = i + 1; j < inputs.size(); ++j) {
            (void)copy.make_xor(inputs[i], inputs[j]);
        }
    }
    EXPECT_EQ(src.node_count(), inputs.size() + 1);
    EXPECT_EQ(src.find_gate(GateKind::Xor2, inputs[0], inputs[1]), kInvalidNode);
    // The source still interns on its own, into the id the copy used first.
    const NodeId x = src.make_xor(inputs[0], inputs[1]);
    EXPECT_EQ(x, copy.find_gate(GateKind::Xor2, inputs[0], inputs[1]));
    EXPECT_EQ(src.make_and(inputs[0], inputs[1]), g);
    EXPECT_EQ(src.node_count(), inputs.size() + 2);
}

TEST(StructuralKey, InterningDoesNotAllocatePerGate) {
    // The interning table is one flat array: it allocates per doubling, not
    // per gate.  (As a node-based hash map it made one allocation per
    // interned gate: 8,829 for dce and 8,840 for strash here.)
    const field::Field fld = field::Field::type2(64, 23);
    const Netlist nl = mult::build_multiplier(mult::Method::Date2018Flat, fld);
    const long budget = 2 * static_cast<long>(nl.inputs().size() + nl.outputs().size()) + 64;
    EXPECT_EQ(budget, 448);
    {
        const testutil::AllocationGuard guard;
        const Netlist cleaned = netlist::dce(nl);
        EXPECT_LE(guard.delta(), budget);
    }
    {
        const testutil::AllocationGuard guard;
        const PassResult r = strash(nl);
        EXPECT_LE(guard.delta(), budget);
    }
}

// --- Widened statistics ------------------------------------------------------

TEST(NetlistStats, CountersAreInt64) {
    static_assert(std::is_same_v<decltype(netlist::NetlistStats::n_and),
                                 std::int64_t>);
    static_assert(std::is_same_v<decltype(netlist::NetlistStats::n_xor),
                                 std::int64_t>);
    static_assert(std::is_same_v<decltype(netlist::NetlistStats::xor_depth),
                                 std::int64_t>);
    static_assert(std::is_same_v<decltype(netlist::NetlistStats::and_depth),
                                 std::int64_t>);
}

TEST(NetlistStats, LargeGeneratedNetlistCountsStayConsistent) {
    // The flat product family is quadratic in m; at m=571 the counts and
    // especially gate x depth products need 64-bit room.
    const field::Field f{testutil::large_modulus(571)};
    const Netlist nl = mult::build_date2018_flat(f);
    const auto s = nl.stats();
    EXPECT_GT(s.gates(), std::int64_t{300000});
    EXPECT_EQ(s.gates(), s.n_and + s.n_xor);
    EXPECT_GT(s.n_and, 0);
    EXPECT_GT(s.n_xor, 0);
    // A derived quantity the old int fields could overflow for larger m.
    const std::int64_t area_depth = s.gates() * s.xor_depth;
    EXPECT_GT(area_depth, 0);
}

// --- strash ------------------------------------------------------------------

TEST(Strash, MergesFreshDuplicatesAndSweepsDeadLogic) {
    Netlist nl;
    const NodeId a = nl.add_input("a");
    const NodeId b = nl.add_input("b");
    const NodeId c = nl.add_input("c");  // dead input, must survive
    const NodeId g1 = nl.make_xor_fresh(a, b);
    const NodeId g2 = nl.make_xor_fresh(a, b);  // structural duplicate
    static_cast<void>(nl.make_and(b, c));       // dead gate
    nl.add_output("y0", g1);
    nl.add_output("y1", g2);
    const PassResult r = strash(nl);
    EXPECT_FALSE(netlist::check_equivalence(nl, r.netlist).has_value());
    EXPECT_EQ(r.netlist.inputs().size(), 3U);  // interface preserved
    EXPECT_EQ(r.netlist.stats().gates(), 1);   // merged + swept
    EXPECT_EQ(r.node_map[g1], r.node_map[g2]);
}

// --- rewrite_cuts ------------------------------------------------------------

TEST(RewriteCuts, PreservesFunctionAndNeverGrows) {
    const field::Field f = field::table5_fields()[0].make();
    const Netlist nl = mult::build_date2018_flat(f);
    const PassResult r = rewrite_cuts(nl);
    EXPECT_FALSE(netlist::check_equivalence(nl, r.netlist).has_value());
    EXPECT_LE(r.netlist.stats().gates(), nl.stats().gates());
}

TEST(RewriteCuts, CancelsSharedSubtermsAndSharesAcrossCones) {
    // y0 = (a^b) ^ (a^c) is b^c with the `a` terms cancelling — invisible
    // to structural hashing (all three gates are distinct), but the cut
    // truth table over {a,b,c} is the 2-input XOR, so the database candidate
    // replaces the 3-gate cone with one gate and the MFFC (both inner XORs)
    // is freed.  y1 then rediscovers that gate through the destination's
    // structural hash: both outputs collapse onto the same node.
    Netlist nl;
    const NodeId a = nl.add_input("a");
    const NodeId b = nl.add_input("b");
    const NodeId c = nl.add_input("c");
    const NodeId y0 =
        nl.make_xor_fresh(nl.make_xor_fresh(a, b), nl.make_xor_fresh(a, c));
    const NodeId y1 = nl.make_xor_fresh(b, c);
    nl.add_output("y0", y0);
    nl.add_output("y1", y1);
    ASSERT_EQ(nl.stats().gates(), 4);
    const PassResult r = rewrite_cuts(nl);
    EXPECT_FALSE(netlist::check_equivalence(nl, r.netlist).has_value());
    EXPECT_EQ(r.netlist.stats().gates(), 1);
    EXPECT_EQ(r.node_map[y0], r.node_map[y1]);
}

TEST(RewriteCuts, CutStorageAllocatesPerBufferNotPerNode) {
    // Cut lists share one pool, fanouts are one CSR array, and the cone walk
    // and truth-table memos are reused scratch, so the pass allocates per
    // buffer growth (mostly in the destination netlist and the final
    // sweep), not per node or candidate.  With a heap vector per node and
    // allocations inside every candidate's pricing it made 214,358 here.
    const field::Field fld = field::Field::type2(64, 23);
    const Netlist nl =
        strash(mult::build_multiplier(mult::Method::Date2018Flat, fld)).netlist;
    const testutil::AllocationGuard guard;
    const PassResult r = rewrite_cuts(nl);
    EXPECT_LE(guard.delta(), 1024);
    EXPECT_LE(r.netlist.stats().gates(), nl.stats().gates());
}

TEST(RewriteCuts, UnsoundHookProducesNonEquivalentNetlist) {
    const field::Field f = field::table5_fields()[0].make();
    const Netlist nl = mult::build_date2018_flat(f);
    RewriteOptions options;
    options.unsound_for_test = true;
    const PassResult r = rewrite_cuts(nl, options);
    EXPECT_TRUE(netlist::check_equivalence(nl, r.netlist).has_value());
}

// --- optimize() pipeline -----------------------------------------------------

TEST(Optimize, ShrinksTableVMultiplierWithEveryPassVerified) {
    const field::Field f = field::table5_fields()[0].make();  // (8,2)
    // The flat family as handed to synthesis: the literal Table IV sums
    // (one gate per operator above the product plane).  The pipeline must
    // recover the sharing the flat form leaves on the table.
    const Netlist nl =
        mult::build_date2018_flat(f, mult::Elaboration::Literal);
    const Netlist shared = mult::build_date2018_flat(f);
    EXPECT_GT(nl.stats().gates(), shared.stats().gates());
    EXPECT_FALSE(netlist::check_equivalence(nl, shared).has_value());
    const OptResult r = optimize(nl);
    EXPECT_FALSE(netlist::check_equivalence(nl, r.netlist).has_value());
    ASSERT_FALSE(r.passes.empty());
    for (const auto& pass : r.passes) {
        EXPECT_TRUE(pass.verified) << pass.pass;
        EXPECT_LE(pass.gates_after, pass.gates_before) << pass.pass;
    }
    // The acceptance bar: >= 15% gate reduction on the flat product family.
    const double reduction =
        1.0 - static_cast<double>(r.gates_after()) /
                  static_cast<double>(r.gates_before());
    EXPECT_GE(reduction, 0.15) << "gates " << r.gates_before() << " -> "
                               << r.gates_after();
    // The optimized flat form must also beat the hash-consed elaboration —
    // the pipeline earns more than construction-time interning provides.
    EXPECT_LT(r.gates_after(), shared.stats().gates());
}

TEST(Optimize, UnsoundRewriteIsCaughtByTheCampaignGate) {
    const field::Field f = field::table5_fields()[0].make();
    const Netlist nl = mult::build_date2018_flat(f);
    OptOptions options;
    options.rewrite.unsound_for_test = true;
    try {
        static_cast<void>(optimize(nl, options));
        FAIL() << "unsound rewrite passed the verification gate";
    } catch (const VerificationError& e) {
        EXPECT_EQ(e.pass(), "rewrite");
        // The message carries the counterexample repro string.
        EXPECT_NE(std::string{e.what()}.find("rewrite"), std::string::npos);
    }
}

TEST(Optimize, VerificationOffStillRunsPasses) {
    const field::Field f = field::table5_fields()[0].make();
    const Netlist nl = mult::build_rashidi_direct(f);
    OptOptions options;
    options.verify_each_pass = false;
    const OptResult r = optimize(nl, options);
    for (const auto& pass : r.passes) {
        EXPECT_FALSE(pass.verified);
    }
    EXPECT_FALSE(netlist::check_equivalence(nl, r.netlist).has_value());
}

TEST(OptimizeAndVerify, ReverifiesAgainstTheFieldReference) {
    const field::Field f = field::table5_fields()[0].make();
    const Netlist nl = mult::build_rashidi_direct(f);
    const OptResult r = mult::optimize_and_verify(nl, f);
    EXPECT_LE(r.gates_after(), r.gates_before());
    EXPECT_FALSE(mult::verify_multiplier(r.netlist, f).has_value());
}

}  // namespace
}  // namespace gfr::opt
