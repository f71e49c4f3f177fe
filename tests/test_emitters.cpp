// HDL emitters: structural checks on the generated VHDL/Verilog text.

#include "netlist/emit_verilog.h"
#include "netlist/emit_vhdl.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace gfr::netlist {
namespace {

/// The std::invalid_argument message `emit` throws, or "" when it returns.
template <typename Emit>
std::string emit_error(const Emit& emit) {
    try {
        static_cast<void>(emit());
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return "";
}

Netlist small_circuit() {
    Netlist nl;
    const auto a = nl.add_input("a0");
    const auto b = nl.add_input("b0");
    const auto c = nl.add_input("c_in");
    nl.add_output("sum", nl.make_xor(nl.make_xor(a, b), c));
    nl.add_output("carry", nl.make_and(a, b));
    return nl;
}

TEST(EmitVhdl, ContainsEntityPortsAndGates) {
    const auto text = emit_vhdl(small_circuit(), "half_adder");
    EXPECT_NE(text.find("entity half_adder is"), std::string::npos);
    EXPECT_NE(text.find("a0 : in  std_logic;"), std::string::npos);
    EXPECT_NE(text.find("sum : out std_logic;"), std::string::npos);
    EXPECT_NE(text.find("carry : out std_logic"), std::string::npos);
    EXPECT_NE(text.find(" and "), std::string::npos);
    EXPECT_NE(text.find(" xor "), std::string::npos);
    EXPECT_NE(text.find("end architecture rtl;"), std::string::npos);
}

TEST(EmitVhdl, SanitisesBadIdentifiers) {
    Netlist nl;
    const auto a = nl.add_input("a-1");
    nl.add_output("2out", a);
    const auto text = emit_vhdl(nl, "x y");
    EXPECT_EQ(text.find("a-1"), std::string::npos);
    EXPECT_NE(text.find("a_1"), std::string::npos);
    EXPECT_NE(text.find("p2out"), std::string::npos);
    EXPECT_NE(text.find("entity x_y"), std::string::npos);
}

TEST(EmitVhdl, NoOutputsThrows) {
    Netlist nl;
    nl.add_input("a");
    EXPECT_THROW(static_cast<void>(emit_vhdl(nl, "empty")), std::invalid_argument);
}

TEST(EmitVhdl, DeadLogicNotEmitted) {
    Netlist nl;
    const auto a = nl.add_input("a");
    const auto b = nl.add_input("b");
    nl.make_xor(a, b);  // dead
    nl.add_output("y", nl.make_and(a, b));
    const auto text = emit_vhdl(nl, "m");
    EXPECT_EQ(text.find("xor"), std::string::npos);
}

TEST(EmitVerilog, ContainsModulePortsAndAssigns) {
    const auto text = emit_verilog(small_circuit(), "half_adder");
    EXPECT_NE(text.find("module half_adder ("), std::string::npos);
    EXPECT_NE(text.find("input  wire a0,"), std::string::npos);
    EXPECT_NE(text.find("output wire carry"), std::string::npos);
    EXPECT_NE(text.find(" & "), std::string::npos);
    EXPECT_NE(text.find(" ^ "), std::string::npos);
    EXPECT_NE(text.find("endmodule"), std::string::npos);
}

TEST(EmitVerilog, ConstZeroRendered) {
    Netlist nl;
    const auto a = nl.add_input("a");
    nl.add_output("z", nl.make_xor(a, a));  // folds to const0
    const auto text = emit_verilog(nl, "m");
    EXPECT_NE(text.find("1'b0"), std::string::npos);
}

TEST(EmitVerilog, OneAssignPerReachableGate) {
    const auto nl = small_circuit();
    const auto text = emit_verilog(nl, "m");
    std::size_t count = 0;
    for (std::size_t pos = text.find("assign"); pos != std::string::npos;
         pos = text.find("assign", pos + 1)) {
        ++count;
    }
    // 3 gates + 2 output aliases = 5 assigns.
    EXPECT_EQ(count, 5U);
}

TEST(EmitVhdl, SanitisesToBasicIdentifiers) {
    // A VHDL basic identifier has no leading, doubled or trailing
    // underscore; Verilog allows all three.
    Netlist nl;
    NodeId acc = kInvalidNode;
    for (const char* name : {"b[1]", "x__y", "_q", "z_", "[0]", "a.b[2][3]"}) {
        const NodeId in = nl.add_input(name);
        acc = acc == kInvalidNode ? in : nl.make_xor(acc, in);
    }
    nl.add_output("y", acc);
    const auto vhdl = emit_vhdl(nl, "m");
    for (const char* id : {"b_1", "x_y", "p_q", "z", "p_0", "a_b_2_3"}) {
        EXPECT_NE(vhdl.find("    " + std::string{id} + " : in  std_logic;"), std::string::npos)
            << id;
    }
    const auto verilog = emit_verilog(nl, "m");
    for (const char* id : {"b_1_", "x__y", "_q", "z_", "_0_", "a_b_2__3_"}) {
        EXPECT_NE(verilog.find("  input  wire " + std::string{id} + ","), std::string::npos)
            << id;
    }
}

// --- Identifier collisions (both emitters) ---------------------------------

TEST(EmitHdl, RejectsPortsThatSanitizeToOneIdentifier) {
    Netlist nl;
    const auto a = nl.add_input("a[0]");
    const auto b = nl.add_input("a_0_");
    nl.add_output("y", nl.make_xor(a, b));
    EXPECT_EQ(emit_error([&] { return emit_vhdl(nl, "m"); }),
              "emit_vhdl: input 'a[0]' and input 'a_0_' map to the same VHDL "
              "identifier 'a_0'");
    EXPECT_EQ(emit_error([&] { return emit_verilog(nl, "m"); }),
              "emit_verilog: input 'a[0]' and input 'a_0_' map to the same Verilog "
              "identifier 'a_0_'");
}

TEST(EmitHdl, RejectsPortNamedLikeAGateWire) {
    Netlist nl;
    const auto a = nl.add_input("a");
    const auto n2 = nl.add_input("n2");  // node 1: its own wire is n1
    const auto g = nl.make_and(a, n2);   // node 2, emitted as wire n2
    ASSERT_EQ(g, 2U);
    nl.add_output("y", g);
    EXPECT_EQ(emit_error([&] { return emit_vhdl(nl, "m"); }),
              "emit_vhdl: input 'n2' and the wire of node 2 map to the same VHDL "
              "identifier 'n2'");
    EXPECT_EQ(emit_error([&] { return emit_verilog(nl, "m"); }),
              "emit_verilog: input 'n2' and the wire of node 2 map to the same "
              "Verilog identifier 'n2'");

    // Names of wires that are not emitted (inputs, dead gates, ids past
    // the netlist, leading zeros) stay legal.
    Netlist ok;
    const auto n1 = ok.add_input("n1");
    const auto x = ok.add_input("n02");
    static_cast<void>(ok.make_and(n1, x));  // node 2, dead
    ok.add_output("n9", ok.make_xor(n1, x));
    EXPECT_EQ(emit_error([&] { return emit_vhdl(ok, "m"); }), "");
    EXPECT_EQ(emit_error([&] { return emit_verilog(ok, "m"); }), "");
}

TEST(EmitHdl, VhdlComparesIdentifiersWithoutCase) {
    Netlist nl;
    const auto lower = nl.add_input("a");
    const auto upper = nl.add_input("A");
    nl.add_output("y", nl.make_xor(lower, upper));
    EXPECT_EQ(emit_error([&] { return emit_vhdl(nl, "m"); }),
              "emit_vhdl: input 'a' and input 'A' map to the same VHDL identifier 'A'");
    EXPECT_EQ(emit_error([&] { return emit_verilog(nl, "m"); }), "");

    Netlist wire;
    const auto p = wire.add_input("p");
    const auto q = wire.add_input("q");
    wire.add_output("N2", wire.make_xor(p, q));
    EXPECT_EQ(emit_error([&] { return emit_vhdl(wire, "m"); }),
              "emit_vhdl: output 'N2' and the wire of node 2 map to the same VHDL "
              "identifier 'N2'");
    EXPECT_EQ(emit_error([&] { return emit_verilog(wire, "m"); }), "");
}

TEST(EmitHdl, PrefixesReservedWords) {
    // A name that is a reserved word of the dialect gets a 'p' (in VHDL in
    // any case); in the other dialect it may be a plain identifier.
    Netlist nl;
    NodeId acc = kInvalidNode;
    for (const char* name : {"in", "and", "wire", "module", "End"}) {
        const NodeId in = nl.add_input(name);
        acc = acc == kInvalidNode ? in : nl.make_xor(acc, in);
    }
    nl.add_output("out", acc);
    const auto vhdl = emit_vhdl(nl, "entity");
    EXPECT_NE(vhdl.find("entity pentity is"), std::string::npos);
    for (const char* id : {"pin", "pand", "wire", "module", "pEnd"}) {
        EXPECT_NE(vhdl.find("    " + std::string{id} + " : in  std_logic;"), std::string::npos)
            << id;
    }
    EXPECT_NE(vhdl.find("    pout : out std_logic"), std::string::npos);
    EXPECT_NE(vhdl.find(" <= pin xor pand;"), std::string::npos);
    const auto verilog = emit_verilog(nl, "module");
    EXPECT_NE(verilog.find("module pmodule ("), std::string::npos);
    for (const char* id : {"in", "pand", "pwire", "pmodule", "End"}) {
        EXPECT_NE(verilog.find("  input  wire " + std::string{id} + ","), std::string::npos)
            << id;
    }
    EXPECT_NE(verilog.find("  output wire out\n"), std::string::npos);
    EXPECT_NE(verilog.find(" = in ^ pand;"), std::string::npos);
}

TEST(EmitHdl, RejectsReservedWordRewrittenOntoAPort) {
    // The collision check sees the rewritten identifier.
    Netlist nl;
    const auto in = nl.add_input("in");
    const auto pin = nl.add_input("PIN");
    const auto wire = nl.add_input("wire");
    const auto pwire = nl.add_input("pwire");
    nl.add_output("y", nl.make_xor(nl.make_xor(in, pin), nl.make_xor(wire, pwire)));
    EXPECT_EQ(emit_error([&] { return emit_vhdl(nl, "m"); }),
              "emit_vhdl: input 'in' and input 'PIN' map to the same VHDL identifier 'PIN'");
    EXPECT_EQ(emit_error([&] { return emit_verilog(nl, "m"); }),
              "emit_verilog: input 'wire' and input 'pwire' map to the same Verilog "
              "identifier 'pwire'");
}

}  // namespace
}  // namespace gfr::netlist
