// Golden Table V: every row of the paper's comparison table as this
// library's flow produces it — 9 Table V fields x 6 in-table methods, each
// built with mult::build_multiplier and run through fpga::run_flow with the
// method's synthesis_freedom, exactly as bench/table5_fpga_comparison.cpp
// does.  LUTs, slices and LUT depth are pinned exactly; ns and A x T are
// pinned as the two-decimal strings the table prints, and the mapped LUT
// network itself is pinned by a 64-bit fingerprint.  A change to synthesis,
// mapping, packing or timing that moves any printed figure of the table, or
// that swaps in a different network with the same counts, fails here.

#include "field/field_catalog.h"
#include "fpga/flow.h"
#include "multipliers/generator.h"
#include "report/table.h"
#include "testutil.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

namespace gfr::fpga {
namespace {

struct GoldenRow {
    int m = 0;
    int n = 0;
    std::string_view method;  ///< mult::MethodInfo::key
    int luts = 0;
    int slices = 0;
    int lut_depth = 0;
    std::string_view ns;   ///< report::fmt(delay_ns, 2)
    std::string_view axt;  ///< report::fmt(area_time, 2)
    std::uint64_t network = 0;  ///< testutil::lut_network_fingerprint(FlowResult::network)
};

// Fields in field::table5_fields() order, methods in mult::all_methods()
// order.
constexpr GoldenRow kGolden[] = {
    {8, 2, "paar", 43, 17, 3, "10.22", "439.46",
     0x9b28729f108e772aULL},
    {8, 2, "rashidi", 53, 27, 3, "10.40", "551.42",
     0x849231e53ef9704eULL},
    {8, 2, "reyhani", 44, 16, 3, "10.37", "456.31",
     0x6bb119aafe964d03ULL},
    {8, 2, "imana2012", 37, 19, 3, "9.84", "364.19",
     0x0624a4e8e4b43082ULL},
    {8, 2, "imana2016", 46, 16, 4, "10.98", "505.28",
     0xca9d88e4dfba3189ULL},
    {8, 2, "date2018", 38, 20, 3, "9.95", "378.02",
     0xb35e25b3b237f6e5ULL},
    {64, 23, "paar", 2444, 1012, 5, "20.57", "50270.67",
     0x50c106c793c3dd0cULL},
    {64, 23, "rashidi", 3210, 1353, 6, "21.77", "69872.50",
     0x4588aa012c2524c3ULL},
    {64, 23, "reyhani", 2330, 911, 6, "23.79", "55440.80",
     0xf0d509f10c75f694ULL},
    {64, 23, "imana2012", 2416, 1119, 5, "18.90", "45665.62",
     0xb98ce2dfafc0c528ULL},
    {64, 23, "imana2016", 2477, 1033, 6, "20.65", "51149.94",
     0x8a5df025a20a9a16ULL},
    {64, 23, "date2018", 1804, 1036, 5, "18.52", "33409.70",
     0x0bc1cbfa1a408599ULL},
    {113, 4, "paar", 7123, 2739, 6, "25.02", "178207.42",
     0xf0097d30716e1eb8ULL},
    {113, 4, "rashidi", 9754, 4292, 6, "23.74", "231526.54",
     0xb4ff62ffae5acad3ULL},
    {113, 4, "reyhani", 7208, 3160, 6, "25.39", "182978.83",
     0x8e5f50a551abb57bULL},
    {113, 4, "imana2012", 7101, 3387, 6, "22.35", "158712.71",
     0x755f1ad203b0e93fULL},
    {113, 4, "imana2016", 7470, 3447, 6, "22.69", "169473.05",
     0x6c9d658a85492e64ULL},
    {113, 4, "date2018", 5536, 3161, 5, "20.52", "113583.93",
     0x1dcea1a97d655f4fULL},
    {113, 34, "paar", 7304, 3165, 6, "25.18", "183910.74",
     0x00b4016d0e89ce17ULL},
    {113, 34, "rashidi", 9947, 4388, 6, "24.07", "239414.83",
     0xd1b5426f5ec240d3ULL},
    {113, 34, "reyhani", 7222, 3149, 6, "27.29", "197077.99",
     0x098866c858b88a74ULL},
    {113, 34, "imana2012", 7289, 3590, 6, "22.94", "167233.98",
     0x3d5d244c2e8afeb4ULL},
    {113, 34, "imana2016", 7639, 3566, 6, "23.03", "175904.56",
     0x1792bd835543f57eULL},
    {113, 34, "date2018", 5560, 3149, 5, "20.81", "115727.35",
     0xf0df02e3bad95a77ULL},
    {122, 49, "paar", 8591, 3945, 6, "25.66", "220481.88",
     0xf1d5d172fd0b05f2ULL},
    {122, 49, "rashidi", 11842, 5345, 6, "24.61", "291392.10",
     0xbb30a58835ac9a64ULL},
    {122, 49, "reyhani", 8382, 3688, 7, "29.97", "251190.05",
     0x7e1468da62da88ffULL},
    {122, 49, "imana2012", 8474, 4150, 6, "23.31", "197538.79",
     0x25969da1326cde21ULL},
    {122, 49, "imana2016", 8978, 4190, 6, "23.37", "209845.15",
     0x7e06a2deb6f35115ULL},
    {122, 49, "date2018", 6514, 3686, 5, "21.22", "138248.72",
     0x3bc49e98c529b690ULL},
    {139, 59, "paar", 11318, 5412, 6, "26.43", "299087.66",
     0xedc47dfe7bc017d9ULL},
    {139, 59, "rashidi", 15233, 7037, 6, "25.07", "381841.44",
     0x8945d54adb47e070ULL},
    {139, 59, "reyhani", 10815, 4751, 7, "30.95", "334776.17",
     0x88d07b3bcfac620cULL},
    {139, 59, "imana2012", 11062, 5587, 6, "23.89", "264278.56",
     0xb6501ccc7b66968eULL},
    {139, 59, "imana2016", 11656, 5660, 6, "23.94", "279069.38",
     0x9e51a5259cbca8acULL},
    {139, 59, "date2018", 8421, 4821, 5, "21.54", "181409.49",
     0xade366239f2eb903ULL},
    {148, 72, "paar", 12561, 5734, 6, "26.74", "335826.16",
     0x7170e898bd820769ULL},
    {148, 72, "rashidi", 16788, 7740, 6, "24.88", "417691.82",
     0xbc8fe9e777de39deULL},
    {148, 72, "reyhani", 12288, 5490, 7, "31.53", "387409.04",
     0x414a594ddb1f006eULL},
    {148, 72, "imana2012", 12304, 6224, 6, "23.83", "293148.88",
     0xede0fcb656e1c4bcULL},
    {148, 72, "imana2016", 13093, 6435, 6, "24.28", "317957.91",
     0x4d3459a01c25c20aULL},
    {148, 72, "date2018", 9464, 5507, 5, "21.43", "202781.26",
     0x2cdbb07f2859f492ULL},
    {163, 66, "paar", 15671, 7672, 6, "27.39", "429227.17",
     0x268770eb9fa18ecdULL},
    {163, 66, "rashidi", 20460, 9052, 7, "27.86", "570052.80",
     0x0aa070a2ddc2186bULL},
    {163, 66, "reyhani", 14906, 6869, 7, "32.10", "478537.15",
     0xcd5d1d0ed653cc56ULL},
    {163, 66, "imana2012", 15169, 7882, 6, "24.54", "372306.84",
     0xeac1395d9130e93dULL},
    {163, 66, "imana2016", 16094, 8110, 6, "24.98", "401987.31",
     0xe78e204b0d280cc5ULL},
    {163, 66, "date2018", 11525, 6647, 5, "22.28", "256756.98",
     0x633395b41a386f52ULL},
    {163, 68, "paar", 15672, 7656, 6, "27.57", "432007.22",
     0x18866368909734baULL},
    {163, 68, "rashidi", 20696, 9267, 7, "28.12", "581878.26",
     0xe52cb2b057274ff9ULL},
    {163, 68, "reyhani", 14912, 6856, 7, "32.14", "479301.76",
     0xf6522012d1c41378ULL},
    {163, 68, "imana2012", 15138, 7853, 6, "24.54", "371489.68",
     0x9ae1ebe2a6a002dcULL},
    {163, 68, "imana2016", 16125, 8183, 6, "25.06", "404169.23",
     0x1ba718dc7c1d9eebULL},
    {163, 68, "date2018", 11545, 6631, 5, "22.16", "255807.86",
     0xfe50ab00c57ff0bcULL},
};

std::vector<const mult::MethodInfo*> table5_methods() {
    std::vector<const mult::MethodInfo*> methods;
    for (const auto& info : mult::all_methods()) {
        if (info.in_table5) {
            methods.push_back(&info);
        }
    }
    return methods;
}

TEST(Table5Golden, PinsEveryCell) {
    EXPECT_EQ(std::size(kGolden), field::table5_fields().size() * table5_methods().size());
}

class Table5GoldenField : public ::testing::TestWithParam<field::FieldSpec> {};

TEST_P(Table5GoldenField, RowsMatch) {
    const field::FieldSpec& spec = GetParam();
    const field::Field fld = spec.make();
    std::vector<const GoldenRow*> rows;
    for (const auto& row : kGolden) {
        if (row.m == spec.m && row.n == spec.n) {
            rows.push_back(&row);
        }
    }
    const auto methods = table5_methods();
    ASSERT_EQ(rows.size(), methods.size());
    for (std::size_t i = 0; i < methods.size(); ++i) {
        const mult::MethodInfo& info = *methods[i];
        const GoldenRow& want = *rows[i];
        SCOPED_TRACE(spec.label() + " " + std::string{info.key});
        ASSERT_EQ(want.method, info.key);
        FlowOptions opts;
        opts.synthesis_freedom = info.synthesis_freedom;
        const FlowResult got = run_flow(mult::build_multiplier(info.method, fld), opts);
        EXPECT_EQ(got.luts, want.luts);
        EXPECT_EQ(got.slices, want.slices);
        EXPECT_EQ(got.lut_depth, want.lut_depth);
        EXPECT_EQ(report::fmt(got.delay_ns, 2), want.ns);
        EXPECT_EQ(report::fmt(got.area_time, 2), want.axt);
        EXPECT_EQ(testutil::lut_network_fingerprint(got.network), want.network);
    }
}

INSTANTIATE_TEST_SUITE_P(Table5Fields, Table5GoldenField,
                         ::testing::ValuesIn(field::table5_fields()),
                         [](const auto& info) {
                             return "m" + std::to_string(info.param.m) + "_n" +
                                    std::to_string(info.param.n);
                         });

}  // namespace
}  // namespace gfr::fpga
