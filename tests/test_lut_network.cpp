// LutNetwork container: levels, fanout, simulation semantics, Verilog.
// simulate() runs through the compiled execution layer since PR 4, so the
// old per-lane truth-table walk is kept here as the independent reference
// for randomized differentials (shared harness: tests/testutil.h).

#include "fpga/lut_network.h"
#include "testutil.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace gfr::fpga {
namespace {

using testutil::Xorshift64Star;

/// The pre-PR-4 interpretation semantics, verbatim: per LUT, per lane,
/// assemble the minterm index and read the truth bit.  Structurally
/// independent of exec::Program's Shannon folds and fused-XOR lowering.
std::vector<std::uint64_t> simulate_per_lane(const LutNetwork& net,
                                             std::span<const std::uint64_t> in) {
    std::vector<std::uint64_t> value(net.input_names.size() + net.luts.size(), 0);
    std::copy(in.begin(), in.end(), value.begin());
    for (std::size_t i = 0; i < net.luts.size(); ++i) {
        const auto& lut = net.luts[i];
        std::uint64_t out = 0;
        for (int lane = 0; lane < 64; ++lane) {
            unsigned idx = 0;
            for (std::size_t j = 0; j < lut.fanins.size(); ++j) {
                const auto ref = lut.fanins[j];
                const std::uint64_t bit =
                    (ref < 0) ? 0 : (value[static_cast<std::size_t>(ref)] >> lane) & 1U;
                idx |= static_cast<unsigned>(bit) << j;
            }
            out |= ((lut.truth >> idx) & 1U) << lane;
        }
        value[net.input_names.size() + i] = out;
    }
    std::vector<std::uint64_t> out;
    out.reserve(net.outputs.size());
    for (const auto& [name, ref] : net.outputs) {
        out.push_back(ref < 0 ? 0 : value[static_cast<std::size_t>(ref)]);
    }
    return out;
}

/// Random topologically-ordered LUT network with arbitrary truth tables
/// (parity, AND and fully general cones all occur).
LutNetwork random_lut_network(Xorshift64Star& rng, int n_inputs, int n_luts,
                              int n_outputs) {
    LutNetwork net;
    for (int i = 0; i < n_inputs; ++i) {
        net.input_names.push_back("i" + std::to_string(i));
    }
    for (int l = 0; l < n_luts; ++l) {
        LutNetwork::Lut lut;
        const int k = 1 + static_cast<int>(rng.next() % 6);
        const std::int32_t max_ref = n_inputs + l;
        for (int j = 0; j < k; ++j) {
            // Occasionally wire a const-0 fanin.
            lut.fanins.push_back((rng.next() % 16 == 0)
                                     ? LutNetwork::kConst0Ref
                                     : static_cast<std::int32_t>(rng.next() % max_ref));
        }
        lut.truth = rng.next() & ((k == 6) ? ~std::uint64_t{0}
                                           : ((std::uint64_t{1} << (1U << k)) - 1));
        net.luts.push_back(lut);
    }
    for (int o = 0; o < n_outputs; ++o) {
        net.outputs.emplace_back(
            "o" + std::to_string(o),
            static_cast<std::int32_t>(rng.next() % (n_inputs + n_luts)));
    }
    return net;
}

/// y = (a ^ b), z = (a ^ b) & c as a hand-built two-LUT network.
LutNetwork two_lut_network() {
    LutNetwork net;
    net.input_names = {"a", "b", "c"};
    LutNetwork::Lut l0;
    l0.fanins = {0, 1};          // a, b
    l0.truth = 0x6;              // XOR2: minterms 01 and 10
    net.luts.push_back(l0);
    LutNetwork::Lut l1;
    l1.fanins = {3, 2};          // lut0, c
    l1.truth = 0x8;              // AND2: minterm 11
    net.luts.push_back(l1);
    net.outputs = {{"y", 3}, {"z", 4}};
    return net;
}

TEST(LutNetwork, LevelsAndDepth) {
    const auto net = two_lut_network();
    EXPECT_EQ(net.levels(), (std::vector<int>{1, 2}));
    EXPECT_EQ(net.depth(), 2);
    EXPECT_EQ(net.lut_count(), 2);
    EXPECT_EQ(net.input_count(), 3);
}

TEST(LutNetwork, FanoutCounts) {
    const auto net = two_lut_network();
    const auto fo = net.fanout_counts();
    // a,b feed lut0; c feeds lut1; lut0 feeds lut1 + output y; lut1 feeds z.
    EXPECT_EQ(fo, (std::vector<int>{1, 1, 1, 2, 1}));
}

TEST(LutNetwork, SimulateTruthTables) {
    const auto net = two_lut_network();
    // Lanes: a=0101, b=0011, c=1111.
    const auto out = net.simulate(std::vector<std::uint64_t>{0b0101, 0b0011, 0b1111});
    ASSERT_EQ(out.size(), 2U);
    EXPECT_EQ(out[0] & 0xF, 0b0110ULL);  // a^b
    EXPECT_EQ(out[1] & 0xF, 0b0110ULL);  // (a^b)&1
}

TEST(LutNetwork, SimulateConstRef) {
    LutNetwork net;
    net.input_names = {"a"};
    net.outputs = {{"z", LutNetwork::kConst0Ref}};
    const auto out = net.simulate(std::vector<std::uint64_t>{~0ULL});
    EXPECT_EQ(out[0], 0ULL);
}

TEST(LutNetwork, SimulateWrongInputCountThrows) {
    const auto net = two_lut_network();
    EXPECT_THROW(static_cast<void>(net.simulate(std::vector<std::uint64_t>{1})),
                 std::invalid_argument);
}

TEST(LutNetwork, EmitVerilogLuts) {
    const auto net = two_lut_network();
    const auto text = emit_verilog_luts(net, "mapped");
    EXPECT_NE(text.find("module mapped ("), std::string::npos);
    EXPECT_NE(text.find("localparam [63:0] INIT0"), std::string::npos);
    EXPECT_NE(text.find("localparam [63:0] INIT1"), std::string::npos);
    EXPECT_NE(text.find("assign y = lut0;"), std::string::npos);
    EXPECT_NE(text.find("assign z = lut1;"), std::string::npos);
    // Truth table 0x6 rendered as 64-bit hex.
    EXPECT_NE(text.find("64'h0000000000000006"), std::string::npos);
}

/// The std::invalid_argument message emit_verilog_luts throws, or "" when
/// it returns.
std::string emit_error(const LutNetwork& net) {
    try {
        static_cast<void>(emit_verilog_luts(net, "m"));
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return "";
}

TEST(LutNetwork, EmitVerilogLutsRejectsPortsThatSanitizeToOneIdentifier) {
    auto net = two_lut_network();
    net.input_names = {"a[0]", "a_0_", "c"};
    EXPECT_EQ(emit_error(net),
              "emit_verilog_luts: input 'a[0]' and input 'a_0_' map to the same Verilog "
              "identifier 'a_0_'");

    net = two_lut_network();
    net.outputs = {{"y", 3}, {"c", 4}};
    EXPECT_EQ(emit_error(net),
              "emit_verilog_luts: input 'c' and output 'c' map to the same Verilog "
              "identifier 'c'");
}

TEST(LutNetwork, EmitVerilogLutsRejectsPortNamedLikeALutWireOrInit) {
    auto net = two_lut_network();
    net.input_names = {"a", "lut1", "c"};
    EXPECT_EQ(emit_error(net),
              "emit_verilog_luts: input 'lut1' and the wire of LUT 1 map to the same "
              "Verilog identifier 'lut1'");

    net = two_lut_network();
    net.outputs = {{"INIT0", 3}, {"z", 4}};
    EXPECT_EQ(emit_error(net),
              "emit_verilog_luts: output 'INIT0' and the INIT localparam of LUT 0 map to "
              "the same Verilog identifier 'INIT0'");

    // Names the emitter does not generate stay legal: past the LUT count,
    // with a leading zero, or in another case (Verilog compares with case).
    net = two_lut_network();
    net.input_names = {"lut2", "lut01", "LUT0"};
    net.outputs = {{"INIT2", 3}, {"init1", 4}};
    EXPECT_EQ(emit_error(net), "");
}

TEST(LutNetwork, EmitVerilogLutsPrefixesIdentifiersThatStartWithADigit) {
    auto net = two_lut_network();
    net.input_names = {"0a", "b", "_c"};
    const auto text = emit_verilog_luts(net, "9m");
    EXPECT_NE(text.find("module p9m ("), std::string::npos);
    EXPECT_NE(text.find("input  wire p0a,"), std::string::npos);
    EXPECT_NE(text.find("input  wire _c,"), std::string::npos);
    EXPECT_NE(text.find("assign lut0 = INIT0[{b, p0a}];"), std::string::npos);
    EXPECT_NE(text.find("assign lut1 = INIT1[{_c, lut0}];"), std::string::npos);
}

TEST(LutNetwork, EmitVerilogLutsPrefixesReservedWords) {
    auto net = two_lut_network();
    net.input_names = {"wire", "b", "in"};
    net.outputs = {{"output", 3}, {"z", 4}};
    const auto text = emit_verilog_luts(net, "endmodule");
    EXPECT_NE(text.find("module pendmodule ("), std::string::npos);
    EXPECT_NE(text.find("input  wire pwire,"), std::string::npos);
    EXPECT_NE(text.find("input  wire in,"), std::string::npos);  // no Verilog keyword
    EXPECT_NE(text.find("output wire poutput,"), std::string::npos);
    EXPECT_NE(text.find("assign lut0 = INIT0[{b, pwire}];"), std::string::npos);
    EXPECT_NE(text.find("assign poutput = lut0;"), std::string::npos);

    net.outputs = {{"output", 3}, {"poutput", 4}};
    EXPECT_EQ(emit_error(net),
              "emit_verilog_luts: output 'output' and output 'poutput' map to the same "
              "Verilog identifier 'poutput'");
}

TEST(LutNetwork, CompiledSimulateMatchesPerLaneReferenceOnRandomNetworks) {
    Xorshift64Star rng{0x1C7BEEFULL};
    for (int round = 0; round < 12; ++round) {
        const int n_inputs = 1 + static_cast<int>(rng.next() % 10);
        const int n_luts = 1 + static_cast<int>(rng.next() % 60);
        const int n_outputs = 1 + static_cast<int>(rng.next() % 6);
        const auto net = random_lut_network(rng, n_inputs, n_luts, n_outputs);
        std::vector<std::uint64_t> in(static_cast<std::size_t>(n_inputs));
        for (int sweep = 0; sweep < 3; ++sweep) {
            for (auto& w : in) {
                w = rng.next();
            }
            ASSERT_EQ(net.simulate(in), simulate_per_lane(net, in))
                << "round " << round << " sweep " << sweep;
        }
    }
}

TEST(LutNetwork, EmptyNetworkDepthZero) {
    LutNetwork net;
    net.input_names = {"a"};
    net.outputs = {{"y", 0}};
    EXPECT_EQ(net.depth(), 0);
    EXPECT_EQ(net.lut_count(), 0);
}

}  // namespace
}  // namespace gfr::fpga
