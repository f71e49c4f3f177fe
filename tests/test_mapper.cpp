// Priority-cuts LUT mapper: function preservation (the make-or-break
// property), depth optimality on known structures, K handling.

#include "fpga/priority_cuts.h"
#include "field/field_catalog.h"
#include "multipliers/generator.h"
#include "netlist/passes.h"
#include "netlist/simulate.h"
#include "testutil.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

namespace gfr::fpga {
namespace {

/// Compare gate netlist and LUT network on random word-parallel vectors.
void expect_same_function(const netlist::Netlist& nl, const LutNetwork& net,
                          int sweeps = 32) {
    ASSERT_EQ(net.input_names.size(), nl.inputs().size());
    ASSERT_EQ(net.outputs.size(), nl.outputs().size());
    testutil::Xorshift64Star rng{4242};
    std::vector<std::uint64_t> in(nl.inputs().size(), 0);
    for (int s = 0; s < sweeps; ++s) {
        for (auto& w : in) {
            w = rng();
        }
        const auto ref = netlist::simulate(nl, in);
        const auto got = net.simulate(in);
        for (std::size_t o = 0; o < ref.size(); ++o) {
            ASSERT_EQ(ref[o], got[o]) << "output " << nl.outputs()[o].name
                                      << " sweep " << s;
        }
    }
}

TEST(Mapper, SingleGateFitsOneLut) {
    netlist::Netlist nl;
    const auto a = nl.add_input("a");
    const auto b = nl.add_input("b");
    nl.add_output("y", nl.make_and(a, b));
    const auto net = map_to_luts(nl);
    EXPECT_EQ(net.lut_count(), 1);
    EXPECT_EQ(net.depth(), 1);
    expect_same_function(nl, net);
}

TEST(Mapper, XorTreeOf6FitsOneLut6) {
    netlist::Netlist nl;
    std::vector<netlist::NodeId> leaves;
    for (int i = 0; i < 6; ++i) {
        leaves.push_back(nl.add_input("i" + std::to_string(i)));
    }
    nl.add_output("y", nl.make_xor_tree(leaves, netlist::TreeShape::Balanced));
    const auto net = map_to_luts(nl);
    EXPECT_EQ(net.lut_count(), 1);
    EXPECT_EQ(net.depth(), 1);
    expect_same_function(nl, net);
}

TEST(Mapper, XorTreeOf24MapsInTwoLevels) {
    // Structural bound: over a *binary* XOR tree, a depth-2 6-LUT cover uses
    // at most 6 first-level cones of at most 4 leaves each (subtree sizes are
    // powers of two <= 6), i.e. 24 inputs.  24 leaves must map in 2 levels.
    netlist::Netlist nl;
    std::vector<netlist::NodeId> leaves;
    for (int i = 0; i < 24; ++i) {
        leaves.push_back(nl.add_input("i" + std::to_string(i)));
    }
    nl.add_output("y", nl.make_xor_tree(leaves, netlist::TreeShape::Balanced));
    const auto net = map_to_luts(nl);
    EXPECT_EQ(net.depth(), 2);
    EXPECT_LE(net.lut_count(), 7);
    expect_same_function(nl, net);
}

TEST(Mapper, XorTreeOf36NeedsThreeLevelsOverBinaryTree) {
    // ... and 36 > 24 leaves therefore require 3 levels without algebraic
    // restructuring (which a structural cut mapper does not perform).
    netlist::Netlist nl;
    std::vector<netlist::NodeId> leaves;
    for (int i = 0; i < 36; ++i) {
        leaves.push_back(nl.add_input("i" + std::to_string(i)));
    }
    nl.add_output("y", nl.make_xor_tree(leaves, netlist::TreeShape::Balanced));
    const auto net = map_to_luts(nl);
    EXPECT_EQ(net.depth(), 3);
    expect_same_function(nl, net);
}

TEST(Mapper, ChainGetsReDepthReducedByCuts) {
    // Even a 12-long XOR chain maps within ceil(11/5)+... <= 3 LUT levels,
    // because cuts look through the chain structure.
    netlist::Netlist nl;
    std::vector<netlist::NodeId> leaves;
    for (int i = 0; i < 12; ++i) {
        leaves.push_back(nl.add_input("i" + std::to_string(i)));
    }
    nl.add_output("y", nl.make_xor_tree(leaves, netlist::TreeShape::Chain));
    const auto net = map_to_luts(nl);
    EXPECT_LE(net.depth(), 3);
    expect_same_function(nl, net);
}

TEST(Mapper, RespectsSmallerK) {
    netlist::Netlist nl;
    std::vector<netlist::NodeId> leaves;
    for (int i = 0; i < 16; ++i) {
        leaves.push_back(nl.add_input("i" + std::to_string(i)));
    }
    nl.add_output("y", nl.make_xor_tree(leaves, netlist::TreeShape::Balanced));
    MapperOptions opts;
    opts.lut_inputs = 4;
    const auto net = map_to_luts(nl, opts);
    for (const auto& lut : net.luts) {
        EXPECT_LE(lut.fanins.size(), 4U);
    }
    EXPECT_EQ(net.depth(), 2);  // 16 leaves at K=4
    expect_same_function(nl, net);
}

/// EXPECT_THROW with the exact what() string.
void expect_invalid(const netlist::Netlist& nl, const MapperOptions& opts,
                    const std::string& message) {
    try {
        static_cast<void>(map_to_luts(nl, opts));
        ADD_FAILURE() << "expected std::invalid_argument: " << message;
    } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string{e.what()}, message);
    }
}

TEST(Mapper, InvalidKThrows) {
    netlist::Netlist nl;
    nl.add_output("y", nl.add_input("a"));
    const std::string bad_k = "map_to_luts: lut_inputs must be in [2,6]";
    const std::string bad_cuts = "map_to_luts: cuts_per_node must be >= 1";
    MapperOptions opts;
    opts.lut_inputs = 1;
    expect_invalid(nl, opts, bad_k);
    opts.lut_inputs = 7;
    expect_invalid(nl, opts, bad_k);
    opts.lut_inputs = 6;
    for (const int cuts : {0, -1}) {
        opts.cuts_per_node = cuts;
        expect_invalid(nl, opts, bad_cuts);
    }
    opts.cuts_per_node = 1;
    EXPECT_EQ(map_to_luts(nl, opts).lut_count(), 0);
}

TEST(Mapper, VeryLongCutListStillMaps) {
    // cuts_per_node only bounds the list; storage follows the cuts actually
    // kept, so a huge bound maps like an unbounded enumeration.
    const field::Field fld = field::Field::type2(8, 2);
    const auto nl =
        netlist::dce(mult::build_multiplier(mult::Method::Date2018Flat, fld));
    for (const bool boundaries : {false, true}) {
        MapperOptions opts;
        opts.respect_fanout_boundaries = boundaries;
        const auto default_net = map_to_luts(nl, opts);
        for (const int cuts : {1 << 24, std::numeric_limits<int>::max()}) {
            opts.cuts_per_node = cuts;
            const auto net = map_to_luts(nl, opts);
            expect_same_function(nl, net);
            EXPECT_LE(net.depth(), default_net.depth())
                << "boundaries=" << boundaries << " cuts=" << cuts;
        }
    }
}

TEST(Mapper, OutputAliasingInput) {
    netlist::Netlist nl;
    const auto a = nl.add_input("a");
    nl.add_input("b");
    nl.add_output("y", a);
    const auto net = map_to_luts(nl);
    EXPECT_EQ(net.lut_count(), 0);
    ASSERT_EQ(net.outputs.size(), 1U);
    EXPECT_EQ(net.outputs[0].second, 0);  // ref to input 0
}

TEST(Mapper, SharedLogicMappedOnce) {
    // Two outputs sharing a subtree: covering must not duplicate LUTs.
    netlist::Netlist nl;
    std::vector<netlist::NodeId> leaves;
    for (int i = 0; i < 6; ++i) {
        leaves.push_back(nl.add_input("i" + std::to_string(i)));
    }
    const auto shared = nl.make_xor_tree(leaves, netlist::TreeShape::Balanced);
    const auto extra = nl.add_input("x");
    nl.add_output("y1", nl.make_xor(shared, extra));
    nl.add_output("y2", nl.make_and(shared, extra));
    const auto net = map_to_luts(nl);
    // Optimal: shared 6-input XOR as one LUT + one LUT per output = 3.
    EXPECT_LE(net.lut_count(), 3);
    expect_same_function(nl, net);
}

class MapperOnMultipliers
    : public ::testing::TestWithParam<std::pair<mult::Method, std::pair<int, int>>> {};

TEST_P(MapperOnMultipliers, MappingPreservesFunction) {
    const auto [method, mn] = GetParam();
    const field::Field fld = field::Field::type2(mn.first, mn.second);
    const auto nl = mult::build_multiplier(method, fld);
    const auto net = map_to_luts(nl);
    expect_same_function(nl, net, 16);
    EXPECT_GT(net.lut_count(), 0);
    EXPECT_GT(net.depth(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndFields, MapperOnMultipliers,
    ::testing::Values(std::pair{mult::Method::Date2018Flat, std::pair{8, 2}},
                      std::pair{mult::Method::Imana2016Paren, std::pair{8, 2}},
                      std::pair{mult::Method::PaarMastrovito, std::pair{8, 2}},
                      std::pair{mult::Method::ReyhaniHasan, std::pair{8, 2}},
                      std::pair{mult::Method::RashidiDirect, std::pair{8, 2}},
                      std::pair{mult::Method::Imana2012, std::pair{8, 2}},
                      std::pair{mult::Method::Date2018Flat, std::pair{64, 23}},
                      std::pair{mult::Method::Imana2016Paren, std::pair{64, 23}}),
    [](const auto& info) {
        return std::string{mult::method_info(info.param.first).key} + "_m" +
               std::to_string(info.param.second.first);
    });

TEST(Mapper, AreaRecoveryNeverIncreasesDepth) {
    const field::Field fld = field::gf256_paper_field();
    const auto nl = mult::build_multiplier(mult::Method::Date2018Flat, fld);
    MapperOptions with;
    with.area_recovery = true;
    MapperOptions without;
    without.area_recovery = false;
    const auto net_with = map_to_luts(nl, with);
    const auto net_without = map_to_luts(nl, without);
    EXPECT_EQ(net_with.depth(), net_without.depth());
    EXPECT_LE(net_with.lut_count(), net_without.lut_count());
}

TEST(Mapper, CutStorageAllocatesAboutOncePerLut) {
    // Cuts live in one pool and the per-node scratch is reused, so a mapping
    // allocates once per emitted LUT (its fanin vector) plus a bounded number
    // of whole-netlist arrays, in either boundary mode.
    const field::Field fld = field::Field::type2(64, 23);
    const auto nl =
        netlist::dce(mult::build_multiplier(mult::Method::Date2018Flat, fld));
    for (const bool boundaries : {false, true}) {
        MapperOptions opts;
        opts.respect_fanout_boundaries = boundaries;
        const testutil::AllocationGuard guard;
        const auto net = map_to_luts(nl, opts);
        const long allocations = guard.delta();
        EXPECT_LE(allocations, net.lut_count() + 256) << "boundaries=" << boundaries;
    }
}

}  // namespace
}  // namespace gfr::fpga
