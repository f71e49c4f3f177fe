// Golden tapes: the exact instruction tape exec::Program::compile emits for
// every netlist the Table V verdict path compiles — the 54 Table V cells and
// the literal date2018 elaboration per field (the 63 netlists of perfbench
// `verdict`); and at (8,2) and (64,23) also the winning LUT network of
// run_flow per method.  Each tape is pinned by its instruction count, its
// slot count and a 64-bit fingerprint of everything the executor reads (see
// tape_fingerprint).  A compiler change that moves one operand, one slot or
// one instruction of any of these tapes fails here.

#include "exec/program.h"
#include "exec/run_kernels.h"
#include "field/field_catalog.h"
#include "fpga/flow.h"
#include "multipliers/generator.h"
#include "testutil.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

namespace gfr::exec {
namespace {

struct GoldenTape {
    int m = 0;
    int n = 0;
    /// Method key; "date2018-raw" is the literal elaboration and "lut <key>"
    /// a run_flow winner.
    std::string_view name;
    std::size_t instructions = 0;
    std::uint32_t slots = 0;
    std::uint64_t tape = 0;  ///< tape_fingerprint
};

/// FNV-1a over every instruction (op, dst, arg_begin, arg_count, aux, and
/// the truth table of a Lut), the operand pool, the input loads, the output
/// slots, slot_count and uses_zero_slot.
std::uint64_t tape_fingerprint(const Program& prog) {
    const TapeView t = prog.tape_view();
    testutil::Fingerprint fp;
    fp.feed(t.n_insns);
    for (std::size_t i = 0; i < t.n_insns; ++i) {
        const Program::Insn& insn = t.insns[i];
        fp.feed(static_cast<std::uint64_t>(insn.op));
        fp.feed(insn.dst);
        fp.feed(insn.arg_begin);
        fp.feed(insn.arg_count);
        fp.feed(insn.aux);
        if (insn.op == Op::Lut) {
            fp.feed(t.truths[insn.aux]);
        }
    }
    fp.feed(prog.args().size());
    for (const std::uint32_t a : prog.args()) {
        fp.feed(a);
    }
    fp.feed(t.n_input_loads);
    for (std::size_t i = 0; i < t.n_input_loads; ++i) {
        fp.feed(t.input_loads[i].first);
        fp.feed(t.input_loads[i].second);
    }
    fp.feed(static_cast<std::uint64_t>(t.n_outputs));
    for (int o = 0; o < t.n_outputs; ++o) {
        fp.feed(t.output_slots[o]);
    }
    fp.feed(t.slot_count);
    fp.feed(t.uses_zero_slot ? 1 : 0);
    return fp.value();
}

// Fields in field::table5_fields() order; per field the Table V methods in
// mult::all_methods() order, then date2018-raw, then (at (8,2) and (64,23)
// only) the LUT tapes in method order.
constexpr GoldenTape kGolden[] = {
    {8, 2, "paar", 35, 32,
     0x8f3fdc855b3c9ef6ULL},
    {8, 2, "rashidi", 31, 37,
     0xf02b246b0d3def50ULL},
    {8, 2, "reyhani", 29, 28,
     0xa0b6de68d0b3a564ULL},
    {8, 2, "imana2012", 16, 27,
     0x49cf08466cdbcd3fULL},
    {8, 2, "imana2016", 22, 32,
     0x5a8ae902829c334dULL},
    {8, 2, "date2018", 24, 34,
     0xfcd12e510e020817ULL},
    {8, 2, "date2018-raw", 36, 48,
     0xea7b2cbea6559bd4ULL},
    {8, 2, "lut paar", 43, 26,
     0xf794f7fe12802114ULL},
    {8, 2, "lut rashidi", 53, 29,
     0x423282586ccd1bd6ULL},
    {8, 2, "lut reyhani", 44, 26,
     0xc5c592a69d96b9e4ULL},
    {8, 2, "lut imana2012", 37, 28,
     0xd91db230c8f9abd8ULL},
    {8, 2, "lut imana2016", 46, 33,
     0x2d5d3e1790fe4bbeULL},
    {8, 2, "lut date2018", 38, 30,
     0x3ffce9d6bd22e750ULL},
    {64, 23, "paar", 336, 293,
     0x8cff250b090d9e15ULL},
    {64, 23, "rashidi", 1704, 1194,
     0x0e72cabe326bfacdULL},
    {64, 23, "reyhani", 253, 238,
     0xd1202fdc105c526cULL},
    {64, 23, "imana2012", 129, 217,
     0x3a326d1b35b72530ULL},
    {64, 23, "imana2016", 310, 318,
     0xdaa0ec289358f08eULL},
    {64, 23, "date2018", 359, 330,
     0x1982a72f8fd196ebULL},
    {64, 23, "date2018-raw", 2080, 1766,
     0x26ebadea7bd0fa9aULL},
    {64, 23, "lut paar", 2444, 224,
     0x99e36362a799c90fULL},
    {64, 23, "lut rashidi", 3210, 918,
     0x92aa507ee6fd81ebULL},
    {64, 23, "lut reyhani", 2330, 205,
     0x824cc9cf81f3fbdcULL},
    {64, 23, "lut imana2012", 2416, 226,
     0xf0e48809df636fd1ULL},
    {64, 23, "lut imana2016", 2477, 323,
     0xc21b3992f8e9eea1ULL},
    {64, 23, "lut date2018", 1804, 228,
     0x4895b915237537ddULL},
    {113, 4, "paar", 563, 558,
     0xe25264fcff32132aULL},
    {113, 4, "rashidi", 4922, 676,
     0xef7e18f0edda2ff2ULL},
    {113, 4, "reyhani", 449, 347,
     0x3d51b39ecd2a027aULL},
    {113, 4, "imana2012", 227, 345,
     0xcd2521b0911e7cc2ULL},
    {113, 4, "imana2016", 539, 355,
     0x370d6efe21d22ddcULL},
    {113, 4, "date2018", 647, 358,
     0xd687a8ce292e4607ULL},
    {113, 4, "date2018-raw", 6441, 1010,
     0x115933b9fc1425edULL},
    {113, 34, "paar", 592, 527,
     0x61729d31be7da62bULL},
    {113, 34, "rashidi", 5126, 2910,
     0x3659070f4a5cc01bULL},
    {113, 34, "reyhani", 449, 407,
     0xccfa21f18a7adc59ULL},
    {113, 34, "imana2012", 227, 375,
     0x9502a539f9cacca5ULL},
    {113, 34, "imana2016", 548, 517,
     0x81883973f4c282b7ULL},
    {113, 34, "date2018", 676, 557,
     0xefc26a0c924eca47ULL},
    {113, 34, "date2018-raw", 6441, 4370,
     0x7b44c239d71201d8ULL},
    {122, 49, "paar", 652, 557,
     0x7a0ad47a08507ac0ULL},
    {122, 49, "rashidi", 6621, 4234,
     0x25bad445c82628c1ULL},
    {122, 49, "reyhani", 485, 464,
     0xc57478daa4553867ULL},
    {122, 49, "imana2012", 245, 417,
     0x1b9a9689a97dc734ULL},
    {122, 49, "imana2016", 630, 670,
     0x7d100395e1214c7bULL},
    {122, 49, "date2018", 760, 705,
     0x56fb31042b79fc9aULL},
    {122, 49, "date2018-raw", 7503, 6536,
     0xd68ea30e44c198a0ULL},
    {139, 59, "paar", 747, 632,
     0xafa03198134d49e2ULL},
    {139, 59, "rashidi", 8504, 5725,
     0x447eb0b9e53f6b8dULL},
    {139, 59, "reyhani", 553, 535,
     0xbf11b30f7c6d8656ULL},
    {139, 59, "imana2012", 279, 478,
     0xea9f3a9f1150d66eULL},
    {139, 59, "imana2016", 726, 792,
     0xe82b479449a970e8ULL},
    {139, 59, "date2018", 909, 860,
     0x4355bcd692ad1291ULL},
    {139, 59, "date2018-raw", 9730, 8834,
     0x465cd9f3843c41a9ULL},
    {148, 72, "paar", 805, 730,
     0x87f7234d318548c9ULL},
    {148, 72, "rashidi", 9141, 6635,
     0x92593f34bd8e2a68ULL},
    {148, 72, "reyhani", 589, 588,
     0xaf8cae57be5103bcULL},
    {148, 72, "imana2012", 297, 517,
     0xfd7f987f78968f74ULL},
    {148, 72, "imana2016", 745, 891,
     0xbafc37e0b23475dcULL},
    {148, 72, "date2018", 955, 969,
     0x3509d7b6109e892fULL},
    {148, 72, "date2018-raw", 11026, 11248,
     0x642d76991b403ae2ULL},
    {163, 66, "paar", 874, 745,
     0x10fe382d0e173f38ULL},
    {163, 66, "rashidi", 10876, 7390,
     0x0d3ddf41ce80e16fULL},
    {163, 66, "reyhani", 649, 621,
     0x42c944dbefefe2d8ULL},
    {163, 66, "imana2012", 327, 557,
     0xa0e46074ae08dc79ULL},
    {163, 66, "imana2016", 843, 896,
     0xa07cb9f654e97893ULL},
    {163, 66, "date2018", 1081, 997,
     0x13ca66ae67c476d1ULL},
    {163, 66, "date2018-raw", 13366, 11504,
     0x54caa85dec600f4cULL},
    {163, 68, "paar", 876, 743,
     0x280f48b5974bacbeULL},
    {163, 68, "rashidi", 11629, 7411,
     0xb52041cd03032983ULL},
    {163, 68, "reyhani", 649, 625,
     0xf3398ce7537fc601ULL},
    {163, 68, "imana2012", 327, 559,
     0x5e3372da2ee64e51ULL},
    {163, 68, "imana2016", 840, 914,
     0x3bf6d4c0fe6e9216ULL},
    {163, 68, "date2018", 1082, 991,
     0x38a8ae0b738c3009ULL},
    {163, 68, "date2018-raw", 13366, 11828,
     0xb75ba897dafef965ULL},
};

struct NamedTape {
    std::string name;
    Program prog;
};

/// The tapes of one field, in kGolden's order.
std::vector<NamedTape> field_tapes(const field::FieldSpec& spec, const field::Field& f) {
    std::vector<NamedTape> tapes;
    std::vector<const mult::MethodInfo*> methods;
    for (const auto& info : mult::all_methods()) {
        if (info.in_table5) {
            methods.push_back(&info);
            tapes.push_back({std::string{info.key},
                             Program::compile(mult::build_multiplier(info.method, f))});
        }
    }
    tapes.push_back({"date2018-raw",
                     Program::compile(mult::build_multiplier(
                         mult::Method::Date2018Flat, f, mult::Elaboration::Literal))});
    if ((spec.m == 8 && spec.n == 2) || (spec.m == 64 && spec.n == 23)) {
        for (const mult::MethodInfo* info : methods) {
            fpga::FlowOptions opts;
            opts.synthesis_freedom = info->synthesis_freedom;
            const auto flow = fpga::run_flow(mult::build_multiplier(info->method, f), opts);
            tapes.push_back({"lut " + std::string{info->key}, Program::compile(flow.network)});
        }
    }
    return tapes;
}

TEST(ExecTapeGolden, PinsEveryVerdictAndLutTape) {
    // 63 verdict tapes, 12 LUT tapes.
    EXPECT_EQ(std::size(kGolden), 63U + 12U);
}

class ExecTapeGoldenField : public ::testing::TestWithParam<field::FieldSpec> {};

TEST_P(ExecTapeGoldenField, TapesMatch) {
    const field::FieldSpec& spec = GetParam();
    const field::Field f = spec.make();
    std::vector<const GoldenTape*> rows;
    for (const auto& row : kGolden) {
        if (row.m == spec.m && row.n == spec.n) {
            rows.push_back(&row);
        }
    }
    const auto tapes = field_tapes(spec, f);
    ASSERT_EQ(rows.size(), tapes.size());
    for (std::size_t i = 0; i < tapes.size(); ++i) {
        const GoldenTape& want = *rows[i];
        SCOPED_TRACE(spec.label() + " " + tapes[i].name);
        ASSERT_EQ(want.name, tapes[i].name);
        EXPECT_EQ(tapes[i].prog.instruction_count(), want.instructions);
        EXPECT_EQ(tapes[i].prog.slot_count(), want.slots);
        EXPECT_EQ(tape_fingerprint(tapes[i].prog), want.tape);
    }
}

INSTANTIATE_TEST_SUITE_P(Table5Fields, ExecTapeGoldenField,
                         ::testing::ValuesIn(field::table5_fields()),
                         [](const auto& info) {
                             return "m" + std::to_string(info.param.m) + "_n" +
                                    std::to_string(info.param.n);
                         });

}  // namespace
}  // namespace gfr::exec
