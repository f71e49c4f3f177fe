#include "netlist/emit_vhdl.h"

#include "netlist/hdl_names.h"

#include <stdexcept>

namespace gfr::netlist {

std::string emit_vhdl(const Netlist& nl, const std::string& entity_name) {
    if (nl.outputs().empty()) {
        throw std::invalid_argument{"emit_vhdl: netlist has no outputs"};
    }
    const auto reachable = nl.reachable_from_outputs();
    const auto ports = detail::hdl_ports(nl, reachable, detail::kVhdl);
    const std::string entity = detail::hdl_identifier(entity_name, detail::kVhdl);

    std::string out;
    out += "library ieee;\nuse ieee.std_logic_1164.all;\n\n";
    out += "entity " + entity + " is\n  port (\n";
    for (const auto& name : ports.inputs) {
        out += "    " + name + " : in  std_logic;\n";
    }
    for (std::size_t i = 0; i < ports.outputs.size(); ++i) {
        out += "    " + ports.outputs[i] + " : out std_logic";
        out += (i + 1 < ports.outputs.size()) ? ";\n" : "\n";
    }
    out += "  );\nend entity " + entity + ";\n\n";
    out += "architecture rtl of " + entity + " is\n";

    // Wire name per node: inputs keep their port name, gates get n<id>.
    std::vector<std::string> wire(nl.node_count());
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
        wire[nl.inputs()[i].node] = ports.inputs[i];
    }
    for (NodeId id = 0; id < nl.node_count(); ++id) {
        if (reachable[id] && nl.node(id).kind != GateKind::Input) {
            wire[id] = detail::hdl_wire(id);
            out += "  signal " + wire[id] + " : std_logic;\n";
        }
    }
    out += "begin\n";
    for (NodeId id = 0; id < nl.node_count(); ++id) {
        if (!reachable[id]) {
            continue;
        }
        const Node& n = nl.node(id);
        switch (n.kind) {
            case GateKind::Input:
                break;
            case GateKind::Const0:
                out += "  " + wire[id] + " <= '0';\n";
                break;
            case GateKind::And2:
                out += "  " + wire[id] + " <= " + wire[n.a] + " and " + wire[n.b] + ";\n";
                break;
            case GateKind::Xor2:
                out += "  " + wire[id] + " <= " + wire[n.a] + " xor " + wire[n.b] + ";\n";
                break;
        }
    }
    for (std::size_t i = 0; i < nl.outputs().size(); ++i) {
        out += "  " + ports.outputs[i] + " <= " + wire[nl.outputs()[i].node] + ";\n";
    }
    out += "end architecture rtl;\n";
    return out;
}

}  // namespace gfr::netlist
