// Golden optimizer outputs: what opt::optimize and rewrite_cuts produce,
// node for node, on the inputs perfbench `verdict` optimizes (the literal
// date2018 elaboration at every Table V field) plus every Table V family at
// (8,2) and (64,23).  Per input:
//
//   - optimize(): one pin for the output (the netlist with its port names
//     and the composed node_map, or the fact that none survived
//     restructuring) and one for the passes list (name, gates and XOR
//     depth before/after, verified), so a change to the stages can move
//     the second alone; and, independent of every pin, an acv proof that
//     the output multiplies in the field;
//   - rewrite_cuts() alone on strash(input): the output netlist with its
//     port names and the pass's node_map.
//
// One more pin folds rewrite_cuts over 400 seeded random reconvergent
// netlists.  Their <=4-leaf cuts enclose deep cones, so they reach the
// rewriter's oversized-cone cutoff, which no Table V netlist does.
//
// All 63 verdict netlists take ~16 s to optimize in Release, too slow for
// a unit test; the rows here take ~3 s.  A mismatch prints the row the
// current code produces.

#include "acv/acv.h"
#include "field/field_catalog.h"
#include "multipliers/generator.h"
#include "opt/opt.h"
#include "testutil.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

namespace gfr::opt {
namespace {

using netlist::GateKind;
using netlist::Netlist;
using netlist::NodeId;

struct GoldenOpt {
    int m = 0;
    int n = 0;
    /// Method key; "date2018-raw" is the literal elaboration.
    std::string_view name;
    std::int64_t gates = 0;      ///< optimize() output gates
    std::uint64_t output = 0;    ///< output_fingerprint of optimize()
    std::uint64_t passes = 0;    ///< passes_fingerprint of optimize()
    std::uint64_t rewrite = 0;   ///< pass_fingerprint of rewrite_cuts(strash)
};

void feed_string(testutil::Fingerprint& fp, std::string_view s) {
    fp.feed(s.size());
    for (const char c : s) {
        fp.feed(static_cast<unsigned char>(c));
    }
}

/// netlist_fingerprint plus every port name.
void feed_netlist(testutil::Fingerprint& fp, const Netlist& nl) {
    fp.feed(testutil::netlist_fingerprint(nl));
    for (const auto& port : nl.inputs()) {
        feed_string(fp, port.name);
    }
    for (const auto& port : nl.outputs()) {
        feed_string(fp, port.name);
    }
}

void feed_map(testutil::Fingerprint& fp, const std::vector<NodeId>& map) {
    fp.feed(map.size());
    for (const NodeId id : map) {
        fp.feed(id);
    }
}

std::uint64_t pass_fingerprint(const PassResult& r) {
    testutil::Fingerprint fp;
    feed_netlist(fp, r.netlist);
    feed_map(fp, r.node_map);
    return fp.value();
}

std::uint64_t output_fingerprint(const OptResult& r) {
    testutil::Fingerprint fp;
    feed_netlist(fp, r.netlist);
    fp.feed(r.node_map_valid ? 1 : 0);
    if (r.node_map_valid) {
        feed_map(fp, r.node_map);
    }
    return fp.value();
}

std::uint64_t passes_fingerprint(const std::vector<PassReport>& passes) {
    testutil::Fingerprint fp;
    fp.feed(passes.size());
    for (const PassReport& p : passes) {
        feed_string(fp, p.pass);
        fp.feed(static_cast<std::uint64_t>(p.gates_before));
        fp.feed(static_cast<std::uint64_t>(p.gates_after));
        fp.feed(static_cast<std::uint64_t>(p.xor_depth_before));
        fp.feed(static_cast<std::uint64_t>(p.xor_depth_after));
        fp.feed(p.verified ? 1 : 0);
    }
    return fp.value();
}

// Fields in field::table5_fields() order; at (8,2) and (64,23) the Table V
// methods in mult::all_methods() order, then date2018-raw; elsewhere only
// date2018-raw.
constexpr GoldenOpt kGolden[] = {
    {8, 2, "paar", 152,
     0xa55b8152de3184feULL, 0x06425392265dc5faULL, 0x2e32f5d7f2e68d9fULL},
    {8, 2, "rashidi", 136,
     0xb3552f48a7170566ULL, 0xed0af9282885b28bULL, 0xd0f4739525d76ba1ULL},
    {8, 2, "reyhani", 141,
     0x5ff8338c98257a7dULL, 0x6e46cd471dfda8f2ULL, 0x680d5d408fe6dfdbULL},
    {8, 2, "imana2012", 136,
     0x81560dc819d961ebULL, 0x38c35bdf85b7f499ULL, 0xa1579a5feba1861cULL},
    {8, 2, "imana2016", 136,
     0xa6ac6590bdea0758ULL, 0xf354f54f01b5ca0dULL, 0x5707b2911ee26d98ULL},
    {8, 2, "date2018", 136,
     0xbdab92a60dfb7974ULL, 0x63c751a76e1f278dULL, 0x96888ef96639b966ULL},
    {8, 2, "date2018-raw", 136,
     0xbdab92a60dfb7974ULL, 0xb3516f93c0d2795bULL, 0x96888ef96639b966ULL},
    {64, 23, "paar", 8558,
     0x7387940ef499c63dULL, 0x266b2c6b410a995bULL, 0x2e75d6382a36a268ULL},
    {64, 23, "rashidi", 8322,
     0x363eabc65039e92eULL, 0x0280f693fe006f44ULL, 0xc415e25c63bace2fULL},
    {64, 23, "reyhani", 8317,
     0x5c3fb9cd6a8df460ULL, 0xdc90bbeff900f0d2ULL, 0x664d2452326181beULL},
    {64, 23, "imana2012", 8312,
     0xa64f27a048541d3cULL, 0x3f163fe1e0603f64ULL, 0x4e5b473bbd71cfb2ULL},
    {64, 23, "imana2016", 8322,
     0xf76b9f3896dd2fb9ULL, 0xc86918076392528cULL, 0xfd4fd4f8bd85144cULL},
    {64, 23, "date2018", 8322,
     0x3852ff3f44ae93c8ULL, 0x2a954e9edef3838bULL, 0xce0f8021733bfdf6ULL},
    {64, 23, "date2018-raw", 8322,
     0x3852ff3f44ae93c8ULL, 0xd1ba3ef7885822e0ULL, 0xce0f8021733bfdf6ULL},
    {113, 4, "date2018-raw", 25716,
     0x9cebb5120ada77aaULL, 0x3c09ad95a3c3581dULL, 0x181e83cba27bea36ULL},
    {113, 34, "date2018-raw", 25757,
     0x7475c2ff6eca1260ULL, 0x3d2988a0de2b22ddULL, 0xc0837a8f755a8ff5ULL},
    {122, 49, "date2018-raw", 30022,
     0xff77f8ba617166b6ULL, 0xeb18eda47180b764ULL, 0xf5c0e3f8b08a3e53ULL},
    {139, 59, "date2018-raw", 38939,
     0x70f8e4b166eb2903ULL, 0x6e18c47b6339b773ULL, 0x5265644fd0dc55dfULL},
    {148, 72, "date2018-raw", 44032,
     0xd9826be98f51c85fULL, 0x29049e17310ef898ULL, 0xc09135b0c7dd2718ULL},
    {163, 66, "date2018-raw", 53479,
     0xcddda65e0e7f4c76ULL, 0xb4fc6a42ead3f836ULL, 0xe0bd9900bd0c8b74ULL},
    {163, 68, "date2018-raw", 53489,
     0x6ea7762b391291deULL, 0x24b17b53e8a40931ULL, 0xd1f22303ca6099fbULL},
};

struct NamedNetlist {
    std::string name;
    Netlist nl;
};

/// The pinned inputs of one field, in kGolden's order.
std::vector<NamedNetlist> field_inputs(const field::FieldSpec& spec, const field::Field& f) {
    std::vector<NamedNetlist> inputs;
    if ((spec.m == 8 && spec.n == 2) || (spec.m == 64 && spec.n == 23)) {
        for (const auto& info : mult::all_methods()) {
            if (info.in_table5) {
                inputs.push_back({std::string{info.key}, mult::build_multiplier(info.method, f)});
            }
        }
    }
    inputs.push_back({"date2018-raw", mult::build_multiplier(mult::Method::Date2018Flat, f,
                                                             mult::Elaboration::Literal)});
    return inputs;
}

TEST(OptGolden, PinsEveryVerdictInputAndTheTwoSmallFieldsFamilies) {
    // Nine literal netlists, plus six families at each of two fields.
    EXPECT_EQ(std::size(kGolden), 9U + 12U);
}

class OptGoldenField : public ::testing::TestWithParam<field::FieldSpec> {};

TEST_P(OptGoldenField, OutputsMatch) {
    const field::FieldSpec& spec = GetParam();
    const field::Field f = spec.make();
    std::vector<const GoldenOpt*> rows;
    for (const auto& row : kGolden) {
        if (row.m == spec.m && row.n == spec.n) {
            rows.push_back(&row);
        }
    }
    const auto inputs = field_inputs(spec, f);
    EXPECT_EQ(rows.size(), inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        SCOPED_TRACE(spec.label() + " " + inputs[i].name);
        const OptResult optimized = optimize(inputs[i].nl);
        const auto proof = acv::prove_multiplier(optimized.netlist, f);
        EXPECT_FALSE(proof.has_value()) << proof->to_string();
        const PassResult strashed = strash(inputs[i].nl);
        const GoldenOpt got{spec.m,
                            spec.n,
                            inputs[i].name,
                            optimized.gates_after(),
                            output_fingerprint(optimized),
                            passes_fingerprint(optimized.passes),
                            pass_fingerprint(rewrite_cuts(strashed.netlist))};
        const bool match = i < rows.size() && rows[i]->name == got.name &&
                           rows[i]->gates == got.gates &&
                           rows[i]->output == got.output && rows[i]->passes == got.passes &&
                           rows[i]->rewrite == got.rewrite;
        EXPECT_TRUE(match);
        if (!match) {
            std::printf("    {%d, %d, \"%s\", %" PRId64 ",\n     0x%016" PRIx64
                        "ULL, 0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL},\n",
                        got.m, got.n, inputs[i].name.c_str(), got.gates, got.output,
                        got.passes, got.rewrite);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Table5Fields, OptGoldenField,
                         ::testing::ValuesIn(field::table5_fields()),
                         [](const auto& info) {
                             return "m" + std::to_string(info.param.m) + "_n" +
                                    std::to_string(info.param.n);
                         });

/// A seeded random netlist with heavy reconvergence: 3-6 inputs and 40-340
/// interned gates, three fanins in four drawn from the last eight nodes.
Netlist random_reconvergent(testutil::Xorshift64Star& rng) {
    Netlist nl;
    const auto n_inputs = static_cast<int>(3 + rng.next() % 4);
    const auto n_gates = static_cast<int>(40 + rng.next() % 301);
    for (int i = 0; i < n_inputs; ++i) {
        nl.add_input("x" + std::to_string(i));
    }
    const auto pick = [&]() -> NodeId {
        const std::uint64_t count = nl.node_count();
        if (rng.next() % 4 != 0) {
            const std::uint64_t window = count < 8 ? count : 8;
            return static_cast<NodeId>(count - 1 - rng.next() % window);
        }
        return static_cast<NodeId>(rng.next() % count);
    };
    int gates = 0;
    for (int attempt = 0; gates < n_gates && attempt < 8 * n_gates; ++attempt) {
        const NodeId a = pick();
        const NodeId b = pick();
        const bool is_and = (rng.next() & 1U) != 0;
        const std::size_t before = nl.node_count();
        const NodeId g = is_and ? nl.make_and(a, b) : nl.make_xor(a, b);
        if (nl.node_count() > before && nl.node(g).kind != GateKind::Const0) {
            ++gates;
        }
    }
    const auto n_outputs = static_cast<int>(1 + rng.next() % 3);
    nl.add_output("y0", static_cast<NodeId>(nl.node_count() - 1));
    for (int o = 1; o < n_outputs; ++o) {
        const auto driver = static_cast<NodeId>(rng.next() % nl.node_count());
        nl.add_output("y" + std::to_string(o), driver);
    }
    return nl;
}

TEST(OptGolden, RewriteOfRandomReconvergentNetlists) {
    testutil::Xorshift64Star rng{0x5eed0cafeULL};
    testutil::Fingerprint fp;
    std::int64_t gates_in = 0;
    std::int64_t gates_out = 0;
    for (int i = 0; i < 400; ++i) {
        const Netlist nl = random_reconvergent(rng);
        const PassResult r = rewrite_cuts(nl);
        gates_in += nl.stats().gates();
        gates_out += r.netlist.stats().gates();
        fp.feed(pass_fingerprint(r));
    }
    EXPECT_EQ(gates_in, 55935);
    EXPECT_EQ(gates_out, 21425);
    EXPECT_EQ(fp.value(), 0x8a1f0faa95b8351dULL) << std::hex << fp.value();
}

}  // namespace
}  // namespace gfr::opt
