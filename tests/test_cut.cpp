// Cut algebra for the LUT mapper.

#include "fpga/cut.h"

#include <gtest/gtest.h>

#include <vector>

namespace gfr::fpga {
namespace {

Cut make_cut(std::initializer_list<netlist::NodeId> leaves) {
    Cut c;
    for (const auto l : leaves) {
        c.leaves[c.size++] = l;
        c.signature |= std::uint64_t{1} << (l % 64);
    }
    return c;
}

TEST(Cut, Trivial) {
    const Cut c = Cut::trivial(42);
    EXPECT_EQ(c.size, 1);
    EXPECT_EQ(c.leaves[0], 42U);
    EXPECT_NE(c.signature, 0U);
}

TEST(Cut, MergeDisjoint) {
    const auto a = make_cut({1, 5});
    const auto b = make_cut({2, 9});
    const auto m = Cut::merge(a, b, 6);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->size, 4);
    EXPECT_EQ(m->leaves[0], 1U);
    EXPECT_EQ(m->leaves[1], 2U);
    EXPECT_EQ(m->leaves[2], 5U);
    EXPECT_EQ(m->leaves[3], 9U);
}

TEST(Cut, MergeOverlapping) {
    const auto a = make_cut({1, 5, 7});
    const auto b = make_cut({5, 7, 9});
    const auto m = Cut::merge(a, b, 6);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->size, 4);  // {1,5,7,9}
}

TEST(Cut, MergeRespectsK) {
    const auto a = make_cut({1, 2, 3, 4});
    const auto b = make_cut({5, 6, 7});
    EXPECT_FALSE(Cut::merge(a, b, 6).has_value());
    EXPECT_TRUE(Cut::merge(a, b, 6).has_value() ||
                Cut::merge(a, make_cut({2, 3}), 6).has_value());
    const auto m4 = Cut::merge(make_cut({1, 2}), make_cut({3, 4}), 4);
    ASSERT_TRUE(m4.has_value());
    EXPECT_FALSE(Cut::merge(make_cut({1, 2, 3}), make_cut({4, 5}), 4).has_value());
}

TEST(Cut, MergeIdentical) {
    const auto a = make_cut({3, 4, 5});
    const auto m = Cut::merge(a, a, 6);
    ASSERT_TRUE(m.has_value());
    EXPECT_TRUE(m->same_leaves(a));
}

TEST(Cut, MergeIntoOverwritesSlotAndVisitsLeavesInOrder) {
    // The mapper merges into a reused candidate slot and folds depth and
    // area flow through the visitor: leaves, size and signature must be
    // rewritten, depth and area flow left to the caller.
    Cut slot = make_cut({2, 3, 4, 6, 8, 10});
    slot.depth = 7;
    slot.area_flow = 3.5;
    std::vector<netlist::NodeId> seen;
    const auto visit = [&](netlist::NodeId leaf) { seen.push_back(leaf); };
    ASSERT_TRUE(Cut::merge_into(make_cut({5, 7, 9}), make_cut({1, 5, 7}), 6, slot, visit));
    EXPECT_TRUE(slot.same_leaves(make_cut({1, 5, 7, 9})));
    EXPECT_EQ(seen, (std::vector<netlist::NodeId>{1, 5, 7, 9}));
    EXPECT_EQ(slot.depth, 7);
    EXPECT_EQ(slot.area_flow, 3.5);
    EXPECT_FALSE(Cut::merge_into(make_cut({1, 2, 3}), make_cut({4, 5}), 4, slot, visit));
}

TEST(Cut, SameLeaves) {
    EXPECT_TRUE(make_cut({1, 2}).same_leaves(make_cut({1, 2})));
    EXPECT_FALSE(make_cut({1, 2}).same_leaves(make_cut({1, 3})));
    EXPECT_FALSE(make_cut({1}).same_leaves(make_cut({1, 2})));
}

TEST(Cut, SubsetOf) {
    EXPECT_TRUE(make_cut({2, 5}).subset_of(make_cut({1, 2, 5, 9})));
    EXPECT_TRUE(make_cut({2, 5}).subset_of(make_cut({2, 5})));
    EXPECT_FALSE(make_cut({2, 6}).subset_of(make_cut({1, 2, 5, 9})));
    EXPECT_FALSE(make_cut({1, 2, 3}).subset_of(make_cut({1, 2})));
}

TEST(Cut, SignatureRejectsWideMergesEarly) {
    // 7 distinct residues mod 64 -> popcount 7 > 6 -> reject without merging.
    const auto a = make_cut({1, 2, 3, 4});
    const auto b = make_cut({5, 6, 7});
    EXPECT_FALSE(Cut::merge(a, b, 6).has_value());
}

}  // namespace
}  // namespace gfr::fpga
