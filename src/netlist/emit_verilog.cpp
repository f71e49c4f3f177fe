#include "netlist/emit_verilog.h"

#include "netlist/hdl_names.h"

#include <stdexcept>

namespace gfr::netlist {

std::string emit_verilog(const Netlist& nl, const std::string& module_name) {
    if (nl.outputs().empty()) {
        throw std::invalid_argument{"emit_verilog: netlist has no outputs"};
    }
    const auto reachable = nl.reachable_from_outputs();
    const auto ports = detail::hdl_ports(nl, reachable, detail::kVerilog);

    std::string out =
        "module " + detail::hdl_identifier(module_name, detail::kVerilog) + " (\n";
    for (const auto& name : ports.inputs) {
        out += "  input  wire " + name + ",\n";
    }
    for (std::size_t i = 0; i < ports.outputs.size(); ++i) {
        out += "  output wire " + ports.outputs[i];
        out += (i + 1 < ports.outputs.size()) ? ",\n" : "\n";
    }
    out += ");\n";

    std::vector<std::string> wire(nl.node_count());
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
        wire[nl.inputs()[i].node] = ports.inputs[i];
    }
    for (NodeId id = 0; id < nl.node_count(); ++id) {
        if (reachable[id] && nl.node(id).kind != GateKind::Input) {
            wire[id] = detail::hdl_wire(id);
            out += "  wire " + wire[id] + ";\n";
        }
    }
    for (NodeId id = 0; id < nl.node_count(); ++id) {
        if (!reachable[id]) {
            continue;
        }
        const Node& n = nl.node(id);
        switch (n.kind) {
            case GateKind::Input:
                break;
            case GateKind::Const0:
                out += "  assign " + wire[id] + " = 1'b0;\n";
                break;
            case GateKind::And2:
                out += "  assign " + wire[id] + " = " + wire[n.a] + " & " + wire[n.b] + ";\n";
                break;
            case GateKind::Xor2:
                out += "  assign " + wire[id] + " = " + wire[n.a] + " ^ " + wire[n.b] + ";\n";
                break;
        }
    }
    for (std::size_t i = 0; i < nl.outputs().size(); ++i) {
        out += "  assign " + ports.outputs[i] + " = " + wire[nl.outputs()[i].node] + ";\n";
    }
    out += "endmodule\n";
    return out;
}

}  // namespace gfr::netlist
