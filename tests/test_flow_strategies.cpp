// Flow policy: strategy search must never lose to any fixed pipeline, and
// boundary-respecting mapping must implement every shared gate exactly once.

#include "field/field_catalog.h"
#include "fpga/flow.h"
#include "multipliers/generator.h"
#include "netlist/passes.h"
#include "netlist/simulate.h"

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <utility>

namespace gfr::fpga {
namespace {

TEST(FlowStrategies, SearchNeverLosesToFixedPipelines) {
    // Every strategy run_flow searches, in its order: as-given, balance,
    // pair CSE, signature grouping, flat ANF, grouping + strong pairs.
    const netlist::SynthOptions fixed[] = {
        {.flatten_anf = false, .group_cones = false, .extract_pairs = false,
         .balance = false},
        {.flatten_anf = false, .group_cones = false, .extract_pairs = false,
         .balance = true},
        {.flatten_anf = false, .group_cones = false, .extract_pairs = true,
         .balance = true},
        {.flatten_anf = false, .group_cones = true, .extract_pairs = false,
         .balance = true},
        {.flatten_anf = true, .group_cones = false, .extract_pairs = false,
         .balance = true},
        {.flatten_anf = false, .group_cones = true, .extract_pairs = true,
         .cse_min_count = 3, .balance = true},
    };
    for (const auto& [m, n] : {std::pair{8, 2}, std::pair{64, 23}}) {
        SCOPED_TRACE("m=" + std::to_string(m));
        const auto nl =
            mult::build_multiplier(mult::Method::Date2018Flat, field::Field::type2(m, n));
        FlowOptions searched;
        searched.synthesis_freedom = true;
        const double best = run_flow(nl, searched).area_time;
        for (std::size_t s = 0; s < std::size(fixed); ++s) {
            FlowOptions opts;
            opts.synthesis_freedom = true;
            opts.strategy_search = false;
            opts.synth = fixed[s];
            EXPECT_LE(best, run_flow(nl, opts).area_time + 1e-9) << "strategy " << s;
        }
    }
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
