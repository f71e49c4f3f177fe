// Flow policy: strategy search must never lose to any fixed pipeline, and
// boundary-respecting mapping must implement every shared gate exactly once.

#include "field/field_catalog.h"
#include "fpga/flow.h"
#include "gf2/pentanomial.h"
#include "multipliers/generator.h"
#include "netlist/passes.h"
#include "netlist/simulate.h"
#include "opt/opt.h"
#include "testutil.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

namespace gfr::fpga {
namespace {

/// Every strategy run_flow searches, in its list order: as-given, balance,
/// pair CSE, signature grouping, flat ANF, grouping + strong pairs.
constexpr netlist::SynthOptions kStrategies[] = {
    {.flatten_anf = false, .group_cones = false, .extract_pairs = false, .balance = false},
    {.flatten_anf = false, .group_cones = false, .extract_pairs = false, .balance = true},
    {.flatten_anf = false, .group_cones = false, .extract_pairs = true, .balance = true},
    {.flatten_anf = false, .group_cones = true, .extract_pairs = false, .balance = true},
    {.flatten_anf = true, .group_cones = false, .extract_pairs = false, .balance = true},
    {.flatten_anf = false, .group_cones = true, .extract_pairs = true, .cse_min_count = 3,
     .balance = true},
};

/// run_flow forced to one strategy: synthesize, then map, pack and time.
FlowResult run_strategy(const netlist::Netlist& nl, const netlist::SynthOptions& synth) {
    FlowOptions opts;
    opts.synthesis_freedom = true;
    opts.strategy_search = false;
    opts.synth = synth;
    return run_flow(nl, opts);
}

TEST(FlowStrategies, SearchNeverLosesToFixedPipelines) {
    for (const auto& [m, n] : {std::pair{8, 2}, std::pair{64, 23}}) {
        SCOPED_TRACE("m=" + std::to_string(m));
        const auto nl =
            mult::build_multiplier(mult::Method::Date2018Flat, field::Field::type2(m, n));
        FlowOptions searched;
        searched.synthesis_freedom = true;
        const double best = run_flow(nl, searched).area_time;
        for (std::size_t s = 0; s < std::size(kStrategies); ++s) {
            EXPECT_LE(best, run_strategy(nl, kStrategies[s]).area_time + 1e-9)
                << "strategy " << s;
        }
    }
}

/// What list-order replays of run_flow's search saw.
struct ReplayTally {
    std::array<int, std::size(kStrategies)> wins{};  ///< first minimum per strategy
    int tied = 0;        ///< a later strategy ties the first minimum
    int tied_apart = 0;  ///< ... with a different LUT network
    /// Flat ANF (4) is the first minimum and strategy 5, which run_flow
    /// evaluates before it, ties it with a different LUT network.
    int flat_ties_strong_pairs = 0;
};

/// Expects run_flow's search on `nl` to return what synthesizing each
/// strategy from scratch returns when the first minimum in list order is
/// kept, LUT network included.
void expect_search_equals_replay(const netlist::Netlist& nl, ReplayTally& tally) {
    FlowOptions searched;
    searched.synthesis_freedom = true;
    const FlowResult got = run_flow(nl, searched);
    std::vector<FlowResult> runs;
    std::vector<std::uint64_t> networks;
    std::size_t winner = 0;
    for (std::size_t s = 0; s < std::size(kStrategies); ++s) {
        runs.push_back(run_strategy(nl, kStrategies[s]));
        networks.push_back(testutil::lut_network_fingerprint(runs.back().network));
        if (runs[s].area_time < runs[winner].area_time) {
            winner = s;
        }
    }
    const FlowResult& want = runs[winner];
    bool tied = false;
    bool apart = false;
    for (std::size_t s = winner + 1; s < runs.size(); ++s) {
        if (runs[s].area_time == want.area_time) {
            tied = true;
            apart = apart || networks[s] != networks[winner];
        }
    }
    ++tally.wins[winner];
    tally.tied += tied ? 1 : 0;
    tally.tied_apart += apart ? 1 : 0;
    if (winner == 4 && runs[5].area_time == want.area_time && networks[5] != networks[4]) {
        ++tally.flat_ties_strong_pairs;
    }
    EXPECT_EQ(got.area_time, want.area_time);
    EXPECT_EQ(got.luts, want.luts);
    EXPECT_EQ(got.lut_depth, want.lut_depth);
    EXPECT_EQ(got.slices, want.slices);
    EXPECT_EQ(got.gate_stats.gates(), want.gate_stats.gates());
    EXPECT_EQ(testutil::lut_network_fingerprint(got.network), networks[winner]);
}

TEST(FlowStrategies, SearchEqualsListOrderReplay) {
    // run_flow shares its prefixes between strategies and evaluates them
    // out of list order, yet it must return what the list-order replay
    // returns.  Every generator on every type II field with m <= 16, as
    // built and after opt::optimize: flat ANF, which run_flow evaluates
    // last, wins 5 cells outright and grouping + strong pairs, evaluated
    // before it, wins 3.  32 cells tie, all between identical networks
    // (grouping and flat ANF on Paar and Reyhani), so the random sums
    // below carry the tie-break.
    ReplayTally tally;
    for (int m = 6; m <= 16; ++m) {
        for (const int n : gf2::type2_irreducible_ns(m)) {
            const field::Field fld = field::Field::type2(m, n);
            for (const auto& info : mult::all_methods()) {
                const auto built = mult::build_multiplier(info.method, fld);
                for (const bool optimized : {false, true}) {
                    SCOPED_TRACE("(" + std::to_string(m) + "," + std::to_string(n) + ") " +
                                 std::string{info.key} + (optimized ? " optimized" : ""));
                    expect_search_equals_replay(optimized ? opt::optimize(built).netlist : built,
                                                tally);
                }
            }
        }
    }
    EXPECT_EQ(tally.wins, (std::array<int, std::size(kStrategies)>{3, 2, 0, 115, 5, 3}));
    EXPECT_EQ(tally.tied, 32);
    EXPECT_EQ(tally.tied_apart, 0);
}

TEST(FlowStrategies, SearchEqualsListOrderReplayOnRandomSums) {
    // Small random XOR-of-products netlists tie often between different
    // networks (61 of these 500), so a tie that went to any index but the
    // lowest would show.  One of them is the case the evaluation order
    // turns on: flat ANF wins, and strategy 5, evaluated before it, ties it
    // with another network.
    testutil::Xorshift64Star rng{5};
    ReplayTally tally;
    for (int i = 0; i < 500; ++i) {
        SCOPED_TRACE("sum " + std::to_string(i));
        expect_search_equals_replay(testutil::random_xor_sums(rng), tally);
    }
    EXPECT_EQ(tally.tied_apart, 61);
    EXPECT_EQ(tally.flat_ties_strong_pairs, 1);
}

TEST(FlowStrategies, BoundaryMappingInstantiatesSharedGatesOnce) {
    // A shared XOR feeding two outputs: with boundaries the mapper must NOT
    // duplicate its cone into both consumers.
    netlist::Netlist nl;
    std::vector<netlist::NodeId> leaves;
    for (int i = 0; i < 8; ++i) {
        leaves.push_back(nl.add_input("i" + std::to_string(i)));
    }
    const auto shared = nl.make_xor_tree(leaves, netlist::TreeShape::Balanced);
    const auto x = nl.add_input("x");
    const auto y = nl.add_input("y");
    nl.add_output("o1", nl.make_xor(shared, x));
    nl.add_output("o2", nl.make_xor(shared, y));

    MapperOptions bounded;
    bounded.respect_fanout_boundaries = true;
    const auto net_b = map_to_luts(nl, bounded);
    MapperOptions free;
    free.respect_fanout_boundaries = false;
    const auto net_f = map_to_luts(nl, free);
    // Bounded: shared 8-XOR as 2+1 LUTs + 2 consumers = 5; duplicating may
    // rebuild the cone once per output.
    EXPECT_LE(net_b.lut_count(), net_f.lut_count() + 1);
    // Both preserve the function.
    std::vector<std::uint64_t> in(10);
    for (std::size_t i = 0; i < in.size(); ++i) {
        in[i] = 0x123456789ABCDEFULL * (i + 3);
    }
    const auto ref = netlist::simulate(nl, in);
    EXPECT_EQ(net_b.simulate(in), ref);
    EXPECT_EQ(net_f.simulate(in), ref);
}

TEST(FlowStrategies, AsGivenTakesBetterOfBoundaryModes) {
    // run_flow for as-given methods returns min(A x T) over the two covering
    // modes; check it is never worse than either explicit mapping.
    const field::Field fld = field::gf256_paper_field();
    const auto nl = mult::build_multiplier(mult::Method::Imana2012, fld);
    const auto flow = run_flow(nl, FlowOptions{});

    const auto cleaned = netlist::dce(nl);
    for (const bool boundaries : {false, true}) {
        MapperOptions mopts;
        mopts.respect_fanout_boundaries = boundaries;
        const auto net = map_to_luts(cleaned, mopts);
        const double axt = net.lut_count() * critical_path_ns(net);
        EXPECT_LE(flow.area_time, axt + 1e-9) << "boundaries=" << boundaries;
    }
}

TEST(FlowStrategies, StrategySearchPreservesPorts) {
    const field::Field fld = field::Field::type2(7, 2);
    const auto nl = mult::build_multiplier(mult::Method::Date2018Flat, fld);
    FlowOptions opts;
    opts.synthesis_freedom = true;
    const auto r = run_flow(nl, opts);
    ASSERT_EQ(r.network.input_names.size(), 14U);
    EXPECT_EQ(r.network.input_names[0], "a0");
    EXPECT_EQ(r.network.outputs[6].first, "c6");
}

}  // namespace
}  // namespace gfr::fpga
