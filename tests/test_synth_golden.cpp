// Golden synthesis outputs: what netlist::synthesize, flatten_to_anf and
// group_common_cones produce, node for node.
//
//   - synthesize() on Date2018Flat, shared and literal elaboration, at every
//     Table V field, under the seven SynthOptions the library runs:
//     fpga::run_flow's six search strategies in list order, then
//     opt::optimize's grouped restructure (its other strategy, extracted,
//     is search strategy 2);
//   - flatten_to_anf() and group_common_cones() over seeded random AND/XOR
//     netlists built to reach what the Table V inputs do not: const-0
//     leaves, duplicate leaves that cancel, overlaps tied between items of
//     different LUT levels, and input wires that many items of one sum
//     share.
//
// Both passes run the LUT-aware XOR builder, whose choice of the next item
// for a chunk fixes every node id after it.  A mismatching row prints the
// row the current code produces.

#include "field/field_catalog.h"
#include "multipliers/generator.h"
#include "netlist/passes.h"
#include "testutil.h"

#include <gtest/gtest.h>

#include <array>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>

namespace gfr::netlist {
namespace {

/// fpga::run_flow's strategies in its list order, then opt's grouped
/// restructure.
constexpr SynthOptions kStrategies[] = {
    {.flatten_anf = false, .group_cones = false, .extract_pairs = false, .balance = false},
    {.flatten_anf = false, .group_cones = false, .extract_pairs = false, .balance = true},
    {.flatten_anf = false, .group_cones = false, .extract_pairs = true, .balance = true},
    {.flatten_anf = false, .group_cones = true, .extract_pairs = false, .balance = true},
    {.flatten_anf = true, .group_cones = false, .extract_pairs = false, .balance = true},
    {.flatten_anf = false, .group_cones = true, .extract_pairs = true, .cse_min_count = 3,
     .balance = true},
    {.flatten_anf = true, .group_cones = true, .extract_pairs = true, .balance = true},
};
constexpr std::size_t kStrategyCount = std::size(kStrategies);

struct GoldenSynth {
    int m = 0;
    int n = 0;
    std::array<std::uint64_t, kStrategyCount> fingerprints{};
};

// Fields in field::table5_fields() order.  One row serves both
// elaborations: synthesize() starts with dce(), which re-interns the
// literal elaboration's unshared gates into the shared one's netlist.
constexpr GoldenSynth kGolden[] = {
    {8, 2,
     {0x9e1211555333e336ULL, 0xf0c761b2f919f913ULL, 0xe7334cce7a968373ULL,
      0x2a6d8391844f5488ULL, 0xf8b365cec9622210ULL, 0xa285e4536fa562c5ULL,
      0x9ecd61d67a9c1a2fULL}},
    {64, 23,
     {0x76c37b39150866e2ULL, 0x2bfa54f0f17503d1ULL, 0xbdb2edc8498a0236ULL,
      0xa557b235a29ab810ULL, 0x1e747cfec29a7c89ULL, 0x8cc42f78f9e9125dULL,
      0x242a4779dfa1e823ULL}},
    {113, 4,
     {0xa81c52cd401feeefULL, 0x4eb3cfe9afc621e6ULL, 0x6bcc5be649fcf9f0ULL,
      0x0446f632c836f6cfULL, 0x15a0edab20d9c617ULL, 0xc4d291ae72fb6b31ULL,
      0x925cd9a5e519a3faULL}},
    {113, 34,
     {0xb667aede2c7ab8a6ULL, 0xf94eba2e633122a6ULL, 0x9dcd975ee5e48d2dULL,
      0x5e2a590914b7d776ULL, 0x071e2748aed0ebc9ULL, 0x9eee09f0406f5d22ULL,
      0x42f4c433acadfe35ULL}},
    {122, 49,
     {0xdba9432edc77d0baULL, 0x922dea6938017693ULL, 0x3c049babe82aa7d8ULL,
      0x2fc868141bbf7aefULL, 0xcd70edf050794081ULL, 0x25ae76aa87146bcdULL,
      0x2eae42241016eca6ULL}},
    {139, 59,
     {0x635bb2b9bcc0a135ULL, 0x1398ba2b9e002c96ULL, 0x4c362b84efbef8c7ULL,
      0x55a75c6f0eb386beULL, 0xf410be9ba9a8966cULL, 0x730b88d032d35281ULL,
      0xa779742310ea2d2bULL}},
    {148, 72,
     {0xb56baefd51116802ULL, 0x395f7ece8584a6c9ULL, 0xbc3a075b994adbaaULL,
      0x00bf81ff9a8fb493ULL, 0x291f83d57ce84501ULL, 0xae19e2486c46c374ULL,
      0xb10c1adf3c52ee6cULL}},
    {163, 66,
     {0x2d73fe35bd0259dcULL, 0xa853ec7e87d3031aULL, 0x21d49c61e6e1666aULL,
      0xe4ff9d096b977b17ULL, 0x640e62fd01c5030bULL, 0x9540868b39ce6e64ULL,
      0x6a8c6d4dd1f2a1c5ULL}},
    {163, 68,
     {0x981822f26c13a203ULL, 0x3db0126b229875d1ULL, 0x35f6fef343dd272bULL,
      0xd68006d6f4842efeULL, 0x301a1e8501f62642ULL, 0x771b34b0bcf14481ULL,
      0xfcd530eb2210fde4ULL}},
};

TEST(SynthGolden, PinsEveryTableVField) {
    EXPECT_EQ(std::size(kGolden), field::table5_fields().size());
}

class SynthGoldenField : public ::testing::TestWithParam<field::FieldSpec> {};

TEST_P(SynthGoldenField, Date2018FlatMatches) {
    const field::FieldSpec& spec = GetParam();
    const field::Field f = spec.make();
    const GoldenSynth* want = nullptr;
    for (const auto& row : kGolden) {
        if (row.m == spec.m && row.n == spec.n) {
            want = &row;
        }
    }
    for (const auto elaboration : {mult::Elaboration::Shared, mult::Elaboration::Literal}) {
        const bool literal = elaboration == mult::Elaboration::Literal;
        SCOPED_TRACE(spec.label() + (literal ? " literal" : " shared"));
        const Netlist nl = mult::build_date2018_flat(f, elaboration);
        GoldenSynth got{spec.m, spec.n, {}};
        for (std::size_t s = 0; s < kStrategyCount; ++s) {
            got.fingerprints[s] = testutil::netlist_fingerprint(synthesize(nl, kStrategies[s]));
        }
        const bool match = want != nullptr && want->fingerprints == got.fingerprints;
        EXPECT_TRUE(match);
        if (!match) {
            std::printf("    {%d, %d,\n     {", got.m, got.n);
            for (std::size_t s = 0; s < kStrategyCount; ++s) {
                std::printf("0x%016" PRIx64 "ULL%s", got.fingerprints[s],
                            s + 1 == kStrategyCount ? "}},\n"
                                                    : (s % 3 == 2 ? ",\n      " : ", "));
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Table5Fields, SynthGoldenField,
                         ::testing::ValuesIn(field::table5_fields()),
                         [](const auto& info) {
                             return "m" + std::to_string(info.param.m) + "_n" +
                                    std::to_string(info.param.n);
                         });

TEST(SynthGolden, LutAwarePassesOnRandomSums) {
    testutil::Xorshift64Star rng{0x7ab1e5ULL};
    testutil::Fingerprint flat_fp;
    testutil::Fingerprint grouped_fp;
    std::uint64_t flat_nodes = 0;
    std::uint64_t grouped_nodes = 0;
    for (int i = 0; i < 500; ++i) {
        const Netlist nl = testutil::random_xor_sums(rng);
        const Netlist flat = flatten_to_anf(nl);
        const Netlist grouped = group_common_cones(nl);
        flat_nodes += flat.node_count();
        grouped_nodes += grouped.node_count();
        flat_fp.feed(testutil::netlist_fingerprint(flat));
        grouped_fp.feed(testutil::netlist_fingerprint(grouped));
    }
    EXPECT_EQ(flat_nodes, 35658U);
    EXPECT_EQ(grouped_nodes, 33745U);
    EXPECT_EQ(flat_fp.value(), 0x9392737131631ef6ULL) << std::hex << flat_fp.value();
    EXPECT_EQ(grouped_fp.value(), 0x128473c3013b32c5ULL) << std::hex << grouped_fp.value();
}

}  // namespace
}  // namespace gfr::netlist
