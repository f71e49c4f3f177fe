// End-to-end FPGA flow: consistency of the Table V metrics and the paper's
// central claim at the flow level.

#include "fpga/flow.h"
#include "field/field_catalog.h"
#include "multipliers/generator.h"
#include "multipliers/verify.h"
#include "netlist/simulate.h"

#include <gtest/gtest.h>

namespace gfr::fpga {
namespace {

TEST(Flow, ProducesConsistentMetrics) {
    const field::Field fld = field::gf256_paper_field();
    const auto nl = mult::build_multiplier(mult::Method::Date2018Flat, fld);
    FlowOptions opts;
    opts.synthesis_freedom = true;
    const auto result = run_flow(nl, opts);
    EXPECT_GT(result.luts, 0);
    EXPECT_GT(result.slices, 0);
    EXPECT_LE(result.slices, result.luts);
    EXPECT_GT(result.delay_ns, 0.0);
    EXPECT_DOUBLE_EQ(result.area_time, result.luts * result.delay_ns);
    EXPECT_EQ(result.network.lut_count(), result.luts);
    EXPECT_EQ(result.network.depth(), result.lut_depth);
}

TEST(Flow, SynthesisFreedomPreservesMultiplierFunction) {
    // The mapped-and-synthesised network must still multiply correctly: we
    // re-simulate the LUT network against field arithmetic via the netlist
    // round trip (flow keeps port names/order).
    const field::Field fld = field::gf256_paper_field();
    const auto nl = mult::build_multiplier(mult::Method::Date2018Flat, fld);
    FlowOptions opts;
    opts.synthesis_freedom = true;
    const auto result = run_flow(nl, opts);

    // Exhaustive over all 2^16 operand pairs through the LUT network.
    for (std::uint64_t block = 0; block < (1U << 10); ++block) {
        std::vector<std::uint64_t> in(16);
        for (int i = 0; i < 16; ++i) {
            in[static_cast<std::size_t>(i)] = netlist::exhaustive_pattern(i, block);
        }
        const auto ref = netlist::simulate(nl, in);
        const auto got = result.network.simulate(in);
        for (std::size_t o = 0; o < ref.size(); ++o) {
            ASSERT_EQ(ref[o], got[o]) << "block " << block << " output " << o;
        }
    }
}

TEST(Flow, SynthesisFreedomHelpsFlatNetlist) {
    // The paper's core claim, at flow level: the flat Table IV netlist mapped
    // WITH synthesis freedom beats (or ties) the same netlist mapped as-given
    // on the A x T metric.
    const field::Field fld = field::gf256_paper_field();
    const auto nl = mult::build_multiplier(mult::Method::Date2018Flat, fld);
    FlowOptions with;
    with.synthesis_freedom = true;
    FlowOptions without;
    without.synthesis_freedom = false;
    const auto r_with = run_flow(nl, with);
    const auto r_without = run_flow(nl, without);
    EXPECT_LE(r_with.area_time, r_without.area_time * 1.05);
}

TEST(Flow, GateStatsReflectSynthesis) {
    const field::Field fld = field::gf256_paper_field();
    const auto nl = mult::build_multiplier(mult::Method::Date2018Flat, fld);
    FlowOptions with;
    with.synthesis_freedom = true;
    const auto result = run_flow(nl, with);
    // Synthesis never changes the AND layer of a PB multiplier.
    EXPECT_EQ(result.gate_stats.n_and, 64);
    EXPECT_EQ(result.gate_stats.and_depth, 1);
}

TEST(Flow, DefaultOptionsMapAsGiven) {
    const field::Field fld = field::gf256_paper_field();
    const auto nl = mult::build_multiplier(mult::Method::Imana2016Paren, fld);
    const auto result = run_flow(nl);
    // As-given mapping preserves the gate stats of the input netlist.
    EXPECT_EQ(result.gate_stats.n_xor, nl.stats().n_xor);
    EXPECT_EQ(result.gate_stats.xor_depth, nl.stats().xor_depth);
}

TEST(Flow, LargerFieldsCostMore) {
    const auto nl8 = mult::build_multiplier(mult::Method::Date2018Flat,
                                            field::Field::type2(8, 2));
    const auto nl64 = mult::build_multiplier(mult::Method::Date2018Flat,
                                             field::Field::type2(64, 23));
    FlowOptions opts;
    opts.synthesis_freedom = true;
    const auto r8 = run_flow(nl8, opts);
    const auto r64 = run_flow(nl64, opts);
    EXPECT_GT(r64.luts, 10 * r8.luts);
    EXPECT_GT(r64.delay_ns, r8.delay_ns);
    EXPECT_GT(r64.area_time, r8.area_time);
}

TEST(Flow, DeepChainMapsAsGiven) {
    // A 400k-gate XOR chain over two inputs: dce and the mapper's cone
    // evaluation walk its full depth.  Both once recursed per level, which
    // overflows a default 8 MiB stack at this depth.  Every gate is a
    // function of a and b alone, so the whole chain maps into one LUT.
    netlist::Netlist nl;
    const netlist::NodeId a = nl.add_input("a");
    const netlist::NodeId b = nl.add_input("b");
    netlist::NodeId x = nl.make_and(a, b);
    for (int i = 0; i < 400000; ++i) {
        x = nl.make_xor(x, (i % 2 == 1) ? a : b);
    }
    nl.add_output("y", x);
    const FlowResult result = run_flow(nl);
    ASSERT_EQ(result.luts, 1);
    // Lanes 0..3 carry (a, b) = (0,0), (1,0), (0,1), (1,1).
    const std::uint64_t words[2] = {0b1010, 0b1100};
    const auto want = netlist::simulate(nl, words);
    const auto got = result.network.simulate(words);
    ASSERT_EQ(got.size(), 1U);
    EXPECT_EQ(got[0] & 0xFU, want[0] & 0xFU);
}

}  // namespace
}  // namespace gfr::fpga
