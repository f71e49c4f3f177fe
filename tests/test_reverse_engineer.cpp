// Anonymous-circuit spec recovery: reverse_engineer must reconstruct the
// modulus, the operand port order and the output order of every Table V
// multiplier after its names are stripped and its ports shuffled — and must
// return a clean "not a GF(2^m) multiplier" verdict (never a crash, never a
// bogus recovery) on circuits that are anything else.  The VHDL parser that
// feeds it third-party exports is round-tripped here too.

#include "acv/acv.h"

#include "field/field_catalog.h"
#include "multipliers/generator.h"
#include "netlist/emit_vhdl.h"
#include "netlist/equivalence.h"
#include "netlist/parse_vhdl.h"
#include "netlist/simulate.h"
#include "opt/opt.h"
#include "testutil.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace gfr::acv {
namespace {

using netlist::Netlist;

/// The recovered port maps, validated against the known shuffle.  The spec
/// names ANON port indices; anon.input_map sends them back to SOURCE ports
/// (a_i at source port i, b_i at source port m+i).  A*B is commutative, so
/// the recovery may land on either labelling — detect the swap from a_0 and
/// require the rest to be consistent with it.
void expect_maps_match(const AnonymizedNetlist& anon, const RecoveredSpec& spec) {
    const int m = spec.m;
    ASSERT_EQ(static_cast<int>(spec.a_inputs.size()), m);
    ASSERT_EQ(static_cast<int>(spec.b_inputs.size()), m);
    ASSERT_EQ(static_cast<int>(spec.c_outputs.size()), m);
    const bool swapped =
        anon.input_map[static_cast<std::size_t>(spec.a_inputs[0])] >= m;
    for (int i = 0; i < m; ++i) {
        const int a_src =
            anon.input_map[static_cast<std::size_t>(spec.a_inputs[static_cast<std::size_t>(i)])];
        const int b_src =
            anon.input_map[static_cast<std::size_t>(spec.b_inputs[static_cast<std::size_t>(i)])];
        EXPECT_EQ(a_src, swapped ? m + i : i) << "a" << i;
        EXPECT_EQ(b_src, swapped ? i : m + i) << "b" << i;
    }
    for (int k = 0; k < m; ++k) {
        EXPECT_EQ(anon.output_map[static_cast<std::size_t>(
                      spec.c_outputs[static_cast<std::size_t>(k)])],
                  k)
            << "c" << k;
    }
}

void expect_rejected(const Netlist& nl, const std::string& label) {
    const auto result = reverse_engineer(nl);
    EXPECT_FALSE(result.recovered) << label;
    EXPECT_EQ(result.reason.rfind("not a GF(2^m) multiplier: ", 0), 0U)
        << label << ": '" << result.reason << "'";
}

TEST(ParseVhdl, RoundTripsEmittedMultiplier) {
    const field::Field fld = field::gf256_paper_field();
    const auto nl = mult::build_multiplier(mult::Method::Imana2016Paren, fld);
    const auto parsed = netlist::parse_vhdl(netlist::emit_vhdl(nl, "gf2m_mult"));
    ASSERT_EQ(parsed.inputs().size(), nl.inputs().size());
    ASSERT_EQ(parsed.outputs().size(), nl.outputs().size());
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
        EXPECT_EQ(parsed.inputs()[i].name, nl.inputs()[i].name);
    }
    EXPECT_FALSE(netlist::check_equivalence(nl, parsed).has_value());
}

/// The std::invalid_argument message parse_vhdl throws on `text`, or ""
/// when it parses.
std::string line_error(const std::string& text) {
    try {
        static_cast<void>(netlist::parse_vhdl(text));
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return "";
}

TEST(ParseVhdl, RejectsMalformedTextWithLineNumbers) {
    // Undefined operand.
    EXPECT_NE(line_error("a : in std_logic;\nc : out std_logic;\n"
                         "c <= a and ghost;\n")
                  .find("line 3"),
              std::string::npos);
    // Unsupported expression shape.
    EXPECT_NE(line_error("a : in std_logic;\nc : out std_logic;\n"
                         "c <= a or a;\n")
                  .find("line 3"),
              std::string::npos);
    // Double drive.
    EXPECT_NE(line_error("a : in std_logic;\nc : out std_logic;\n"
                         "c <= a;\nc <= a;\n")
                  .find("driven twice"),
              std::string::npos);
    // Missing semicolon.
    EXPECT_NE(line_error("a : in std_logic;\nc : out std_logic;\nc <= a\n")
                  .find("';'"),
              std::string::npos);
    // Undriven output.
    EXPECT_NE(line_error("a : in std_logic;\nc : out std_logic;\n")
                  .find("no driver"),
              std::string::npos);
    // One name declared as both an input and an output, in either order.
    EXPECT_EQ(line_error("a : in std_logic;\na : out std_logic;\n"),
              "parse_vhdl: line 2: duplicate declaration of 'a'");
    EXPECT_EQ(line_error("a : out std_logic;\nb : in std_logic;\n"
                         "a : in std_logic;\na <= b;\n"),
              "parse_vhdl: line 3: duplicate declaration of 'a'");
}

TEST(ParseVhdl, ComparesNamesWithoutCase) {
    // Another spelling is the same signal, and a port keeps the spelling of
    // its declaration.
    const Netlist nl = netlist::parse_vhdl(
        "A : IN std_logic;\nb : in std_logic;\nC : Out std_logic;\n"
        "n1 <= a AND B;\nc <= N1;\n");
    ASSERT_EQ(nl.inputs().size(), 2U);
    EXPECT_EQ(nl.inputs()[0].name, "A");
    EXPECT_EQ(nl.inputs()[1].name, "b");
    ASSERT_EQ(nl.outputs().size(), 1U);
    EXPECT_EQ(nl.outputs()[0].name, "C");
    EXPECT_EQ(netlist::simulate(nl, std::vector<std::uint64_t>{0b1100, 0b1010})[0], 0b1000U);

    // A second declaration in another spelling is a duplicate, as is a
    // second drive.
    EXPECT_EQ(line_error("a : in std_logic;\nA : in std_logic;\n"),
              "parse_vhdl: line 2: duplicate declaration of 'A'");
    EXPECT_EQ(line_error("a : in std_logic;\nA : out std_logic;\n"),
              "parse_vhdl: line 2: duplicate declaration of 'A'");
    EXPECT_EQ(line_error("y : out std_logic;\nY : out std_logic;\n"),
              "parse_vhdl: line 2: duplicate declaration of 'Y'");
    EXPECT_EQ(line_error("a : in std_logic;\nc : out std_logic;\nc <= a;\nC <= a;\n"),
              "parse_vhdl: line 4: signal 'C' driven twice");
}

TEST(ReverseEngineer, RecoversEveryTableVField) {
    std::uint64_t seed = 0xB11DULL;
    testutil::for_each_table5_field([&](const field::FieldSpec& fspec,
                                        const field::Field& fld) {
        auto nl = mult::build_multiplier(mult::Method::Date2018Flat, fld);
        // Optimize first so the recovery faces restructured logic, not the
        // generator's layout.  Full pipeline where it is cheap; strash-only
        // on the big fields to bound the suite (the bench proves the full
        // pipeline's output on every cell).
        opt::OptOptions opt_options;
        if (fld.degree() > 64) {
            opt_options.restructure = false;
            opt_options.rewrite_rounds = 0;
        }
        const auto optimized = opt::optimize(nl, opt_options);
        const auto anon = anonymize_ports(optimized.netlist, ++seed);

        const auto result = reverse_engineer(anon.netlist);
        ASSERT_TRUE(result.recovered)
            << fspec.label() << ": " << result.reason;
        EXPECT_EQ(result.spec.modulus, fld.modulus()) << fspec.label();
        EXPECT_EQ(result.spec.m, fld.degree());
        EXPECT_EQ(result.spec.modulus_family,
                  "type II pentanomial (" + std::to_string(fspec.m) + ", " +
                      std::to_string(fspec.n) + ")");
        expect_maps_match(anon, result.spec);

        // The recovered spec must re-expose a provable canonical interface.
        const auto relabeled = relabel_ports(anon.netlist, result.spec);
        const auto proof = prove_multiplier(relabeled, fld);
        EXPECT_FALSE(proof.has_value())
            << fspec.label() << ": " << proof->to_string();
    });
}

TEST(ReverseEngineer, RecoversBlindFromVhdlText) {
    // The full blind loop: optimize, anonymize, print to VHDL, read the text
    // back with no metadata, recover, relabel, prove.
    const field::Field fld = field::gf256_paper_field();
    const auto optimized =
        opt::optimize(mult::build_multiplier(mult::Method::Date2018Flat, fld));
    const auto anon = anonymize_ports(optimized.netlist, 0x5EC0DEULL);
    const auto blind =
        netlist::parse_vhdl(netlist::emit_vhdl(anon.netlist, "mystery"));
    const auto result = reverse_engineer(blind);
    ASSERT_TRUE(result.recovered) << result.reason;
    EXPECT_EQ(result.spec.modulus, fld.modulus());
    EXPECT_FALSE(
        prove_multiplier(relabel_ports(blind, result.spec), fld).has_value());
}

TEST(ReverseEngineer, RecoversTrinomialFieldFromSchoolbook) {
    // Off the pentanomial catalog: a trinomial field through the generic
    // schoolbook family, to pin the trinomial branch of the family label.
    const field::Field fld{gf2::Poly::from_exponents({9, 1, 0})};
    const auto nl = mult::build_multiplier(mult::Method::SchoolReduce, fld);
    const auto anon = anonymize_ports(nl, 0x7213ULL);
    const auto result = reverse_engineer(anon.netlist);
    ASSERT_TRUE(result.recovered) << result.reason;
    EXPECT_EQ(result.spec.modulus, fld.modulus());
    EXPECT_EQ(result.spec.modulus_family, "trinomial k=1");
    expect_maps_match(anon, result.spec);
}

TEST(ReverseEngineer, PinnedSpecFormat) {
    const field::Field fld = field::gf256_paper_field();
    const auto anon = anonymize_ports(
        mult::build_multiplier(mult::Method::Date2018Flat, fld), 1);
    const auto result = reverse_engineer(anon.netlist);
    ASSERT_TRUE(result.recovered) << result.reason;
    EXPECT_EQ(result.spec.to_string(),
              "GF(2^8) multiplier: f = y^8 + y^4 + y^3 + y^2 + 1 "
              "(type II pentanomial (8, 2))");
}

TEST(ReverseEngineer, AnonymizationIsDeterministicPerSeed) {
    const field::Field fld = field::gf256_paper_field();
    const auto nl = mult::build_multiplier(mult::Method::Imana2012, fld);
    const auto a = anonymize_ports(nl, 42);
    const auto b = anonymize_ports(nl, 42);
    const auto c = anonymize_ports(nl, 43);
    EXPECT_EQ(a.input_map, b.input_map);
    EXPECT_EQ(a.output_map, b.output_map);
    EXPECT_NE(a.input_map, c.input_map);  // 16! permutations; 42 vs 43 differ
}

TEST(ReverseEngineer, RejectsNonMultipliersCleanly) {
    // Element-wise AND: bilinear, bipartite, balanced — but every output
    // owns exactly one singleton pair, which is not a multiplier's column
    // signature.
    {
        Netlist nl;
        std::vector<netlist::NodeId> xs;
        std::vector<netlist::NodeId> ys;
        for (int i = 0; i < 4; ++i) {
            xs.push_back(nl.add_input("x" + std::to_string(i)));
        }
        for (int i = 0; i < 4; ++i) {
            ys.push_back(nl.add_input("y" + std::to_string(i)));
        }
        for (int i = 0; i < 4; ++i) {
            nl.add_output("z" + std::to_string(i),
                          nl.make_and(xs[static_cast<std::size_t>(i)],
                                      ys[static_cast<std::size_t>(i)]));
        }
        expect_rejected(nl, "element-wise AND");
    }
    // A triangle of products: x0x1 ^ x1x2 ^ x0x2 cannot split into two
    // operand sides.
    {
        Netlist nl;
        const auto x0 = nl.add_input("x0");
        const auto x1 = nl.add_input("x1");
        const auto x2 = nl.add_input("x2");
        const auto x3 = nl.add_input("x3");
        const auto t = nl.make_xor(nl.make_and(x0, x1), nl.make_and(x1, x2));
        nl.add_output("z0", nl.make_xor(t, nl.make_and(x0, x2)));
        nl.add_output("z1", nl.make_and(x0, x3));
        expect_rejected(nl, "product triangle");
    }
    // Linear and cubic terms break bilinearity.
    {
        Netlist nl;
        const auto x0 = nl.add_input("x0");
        const auto x1 = nl.add_input("x1");
        const auto y0 = nl.add_input("y0");
        const auto y1 = nl.add_input("y1");
        nl.add_output("z0", nl.make_xor(x0, x1));
        nl.add_output("z1", nl.make_and(y0, y1));
        expect_rejected(nl, "linear output");
    }
    {
        Netlist nl;
        const auto x0 = nl.add_input("x0");
        const auto x1 = nl.add_input("x1");
        const auto y0 = nl.add_input("y0");
        const auto y1 = nl.add_input("y1");
        nl.add_output("z0", nl.make_and(nl.make_and(x0, x1), y0));
        nl.add_output("z1", nl.make_and(y1, x0));
        expect_rejected(nl, "cubic output");
    }
    // Port shape and constant outputs.
    {
        Netlist nl;
        const auto x0 = nl.add_input("x0");
        const auto x1 = nl.add_input("x1");
        const auto x2 = nl.add_input("x2");
        nl.add_output("z0", nl.make_and(x0, x1));
        nl.add_output("z1", nl.make_and(x1, x2));
        expect_rejected(nl, "wrong port shape");
    }
    {
        Netlist nl;
        const auto x0 = nl.add_input("x0");
        const auto x1 = nl.add_input("x1");
        const auto y0 = nl.add_input("y0");
        const auto y1 = nl.add_input("y1");
        nl.add_output("z0", nl.make_and(x0, y0));
        nl.add_output("z1", nl.const0());
        static_cast<void>(x1);
        static_cast<void>(y1);
        expect_rejected(nl, "constant-zero output");
    }
    // A genuine multiplier is NOT rejected by the same entry point.
    {
        const field::Field fld = field::gf256_paper_field();
        const auto anon = anonymize_ports(
            mult::build_multiplier(mult::Method::ReyhaniHasan, fld), 7);
        const auto result = reverse_engineer(anon.netlist);
        EXPECT_TRUE(result.recovered) << result.reason;
    }
}

}  // namespace
}  // namespace gfr::acv
