// Fuzz-style property tests: every synthesis pass must preserve the function
// of randomly generated AND/XOR DAGs, across many seeds and all option
// combinations.  This is the guard rail that lets the FPGA flow restructure
// aggressively.

#include "field/field_catalog.h"
#include "fpga/flow.h"
#include "multipliers/generator.h"
#include "netlist/equivalence.h"
#include "netlist/passes.h"
#include "netlist/simulate.h"
#include "opt/opt.h"
#include "testutil.h"

#include <gtest/gtest.h>


namespace gfr::netlist {
namespace {

/// Random multi-output AND/XOR DAG: XOR-heavy (matching the domain), with
/// shared fanout and occasional constants.
Netlist random_netlist(std::uint64_t seed) {
    testutil::Xorshift64Star rng{seed};
    Netlist nl;
    const int n_inputs = 4 + static_cast<int>(rng() % 10);
    std::vector<NodeId> pool;
    for (int i = 0; i < n_inputs; ++i) {
        pool.push_back(nl.add_input("i" + std::to_string(i)));
    }
    const int n_gates = 10 + static_cast<int>(rng() % 60);
    for (int g = 0; g < n_gates; ++g) {
        const NodeId a = pool[rng() % pool.size()];
        const NodeId b = pool[rng() % pool.size()];
        // 3:1 XOR-to-AND mix.
        const NodeId node = (rng() % 4 == 0) ? nl.make_and(a, b) : nl.make_xor(a, b);
        pool.push_back(node);
    }
    const int n_outputs = 1 + static_cast<int>(rng() % 5);
    for (int o = 0; o < n_outputs; ++o) {
        nl.add_output("o" + std::to_string(o), pool[pool.size() - 1 - rng() % 8]);
    }
    return nl;
}

class PassFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PassFuzz, DcePreservesFunction) {
    const Netlist nl = random_netlist(GetParam());
    EXPECT_FALSE(check_equivalence(nl, dce(nl)).has_value());
}

TEST_P(PassFuzz, BalancePreservesFunction) {
    const Netlist nl = random_netlist(GetParam());
    const Netlist out = balance_xor_trees(nl);
    EXPECT_FALSE(check_equivalence(nl, out).has_value());
    // Balancing never increases the XOR depth.
    EXPECT_LE(out.stats().xor_depth, nl.stats().xor_depth);
}

TEST_P(PassFuzz, FlattenPreservesFunction) {
    const Netlist nl = random_netlist(GetParam());
    EXPECT_FALSE(check_equivalence(nl, flatten_to_anf(nl)).has_value());
}

TEST_P(PassFuzz, GroupConesPreservesFunction) {
    const Netlist nl = random_netlist(GetParam());
    EXPECT_FALSE(check_equivalence(nl, group_common_cones(nl)).has_value());
}

TEST_P(PassFuzz, ExtractPairsPreservesFunction) {
    const Netlist nl = random_netlist(GetParam());
    EXPECT_FALSE(check_equivalence(nl, extract_common_xor_pairs(nl)).has_value());
}

TEST_P(PassFuzz, FullPipelinesPreserveFunction) {
    const Netlist nl = random_netlist(GetParam());
    for (const bool flatten : {false, true}) {
        for (const bool group : {false, true}) {
            for (const bool extract : {false, true}) {
                const SynthOptions opts{.flatten_anf = flatten,
                                        .group_cones = group,
                                        .extract_pairs = extract,
                                        .balance = true};
                EXPECT_FALSE(check_equivalence(nl, synthesize(nl, opts)).has_value())
                    << "flatten=" << flatten << " group=" << group
                    << " extract=" << extract;
            }
        }
    }
}

// The last three draw netlists in which two leaves of one sum rebuild onto
// the same node, a pair that pair extraction must cancel mod 2.
INSTANTIATE_TEST_SUITE_P(Seeds, PassFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233,
                                           377, 610, 987, 1597, 0xb6d2954cd5372ca2ULL,
                                           0x45111baf46cd85f6ULL, 0xbdc4f34dbf0c6474ULL),
                         [](const auto& info) {
                             return "seed" + std::to_string(info.param);
                         });

// --- Optimization passes (src/opt) ------------------------------------------
//
// Each opt pass is fuzzed the same way as the synthesis passes, but checked
// against the FROZEN gate-by-gate interpreter (simulate_interpreted) rather
// than check_equivalence alone: the interpreter shares no code with the
// compiled tapes the equivalence campaign executes, so a pass bug and a
// compiler bug cannot mask each other.

/// Interpreted differential: both netlists, 8 random 64-lane sweeps.
void expect_same_interpreted(const Netlist& a, const Netlist& b,
                             std::uint64_t seed) {
    ASSERT_EQ(a.inputs().size(), b.inputs().size());
    ASSERT_EQ(a.outputs().size(), b.outputs().size());
    testutil::Xorshift64Star rng{seed ^ 0xF00DULL};
    std::vector<std::uint64_t> in(a.inputs().size());
    for (int sweep = 0; sweep < 8; ++sweep) {
        for (auto& w : in) {
            w = rng.next();
        }
        const auto lhs = simulate_interpreted(a, in);
        const auto rhs = simulate_interpreted(b, in);
        ASSERT_EQ(lhs, rhs) << "sweep " << sweep;
    }
}

TEST_P(PassFuzz, OptStrashPreservesFunction) {
    const Netlist nl = random_netlist(GetParam());
    const opt::PassResult r = opt::strash(nl);
    EXPECT_FALSE(check_equivalence(nl, r.netlist).has_value());
    expect_same_interpreted(nl, r.netlist, GetParam());
    EXPECT_LE(r.netlist.stats().gates(), nl.stats().gates());
}

TEST_P(PassFuzz, OptRewriteCutsPreservesFunction) {
    const Netlist nl = random_netlist(GetParam());
    const opt::PassResult r = opt::rewrite_cuts(nl);
    EXPECT_FALSE(check_equivalence(nl, r.netlist).has_value());
    expect_same_interpreted(nl, r.netlist, GetParam());
    EXPECT_LE(r.netlist.stats().gates(), nl.stats().gates());
}

TEST_P(PassFuzz, OptPipelinePreservesFunction) {
    const Netlist nl = random_netlist(GetParam());
    const opt::OptResult r = opt::optimize(nl);
    EXPECT_FALSE(check_equivalence(nl, r.netlist).has_value());
    expect_same_interpreted(nl, r.netlist, GetParam());
    for (const auto& pass : r.passes) {
        EXPECT_TRUE(pass.verified) << pass.pass;
    }
}

TEST_P(PassFuzz, FlowWithSynthesisFreedomPreservesFunction) {
    // run_flow's strategy search keeps whichever mapping is smallest and
    // checks none of them, so the LUT network it returns is compared here,
    // on every input assignment, with the interpreter on the source.
    const Netlist nl = random_netlist(GetParam());
    const fpga::FlowResult r = fpga::run_flow(nl, {.synthesis_freedom = true});
    const auto n_inputs = static_cast<int>(nl.inputs().size());
    const std::uint64_t blocks = n_inputs <= 6 ? 1 : std::uint64_t{1} << (n_inputs - 6);
    std::vector<std::uint64_t> in(nl.inputs().size());
    for (std::uint64_t block = 0; block < blocks; ++block) {
        for (int i = 0; i < n_inputs; ++i) {
            in[static_cast<std::size_t>(i)] = exhaustive_pattern(i, block);
        }
        ASSERT_EQ(r.network.simulate(in), simulate_interpreted(nl, in)) << "block " << block;
    }
}

TEST(PassAllocations, LutAwareBuildersUseDenseTables) {
    // flatten_to_anf and group_common_cones keep their LUT-aware tree
    // builder's supports and levels in per-node arrays, and the output
    // netlist interns into one flat table that allocates per doubling, so
    // their allocations scale with the result, not with the absorb scan's
    // work.  group_common_cones' signature maps allocate per leaf.
    const field::Field fld = field::Field::type2(64, 23);
    const Netlist nl = dce(mult::build_multiplier(mult::Method::Date2018Flat, fld));
    {
        const testutil::AllocationGuard guard;
        const Netlist flat = flatten_to_anf(nl);
        const long allocations = guard.delta();
        EXPECT_LE(allocations, static_cast<long>(flat.node_count()));
    }
    {
        const testutil::AllocationGuard guard;
        const Netlist grouped = group_common_cones(nl);
        const long allocations = guard.delta();
        EXPECT_LE(allocations, 3 * static_cast<long>(grouped.node_count()));
    }
}

}  // namespace
}  // namespace gfr::netlist
