#ifndef GFR_NETLIST_HDL_NAMES_H
#define GFR_NETLIST_HDL_NAMES_H

// Identifiers of the structural HDL emitters (emit_vhdl, emit_verilog; not
// part of the public API).  Both name a port after its sanitised netlist
// name and the wire of every other emitted node n<id>, so two ports, or a
// port and a wire, can land on one identifier; hdl_ports() rejects that
// before any text is written.

#include "netlist/netlist.h"

#include <string>
#include <vector>

namespace gfr::netlist::detail {

/// How one HDL spells identifiers, and how its emitter reports errors.
struct HdlDialect {
    const char* emitter;      ///< error-message prefix
    const char* language;     ///< "VHDL" / "Verilog"
    bool leading_underscore;  ///< an identifier may start with '_'
    bool case_insensitive;    ///< identifiers compare without case
};

inline constexpr HdlDialect kVhdl{"emit_vhdl", "VHDL", false, true};
inline constexpr HdlDialect kVerilog{"emit_verilog", "Verilog", true, false};

/// `name` with every character outside [A-Za-z0-9_] replaced by '_', and a
/// 'p' prepended when it does not start with a letter (or, where the
/// dialect allows it, '_').
[[nodiscard]] std::string hdl_identifier(const std::string& name, const HdlDialect& dialect);

/// The wire of an emitted gate or constant.
[[nodiscard]] inline std::string hdl_wire(NodeId id) { return "n" + std::to_string(id); }

/// Sanitised port identifiers, in port order.
struct HdlPorts {
    std::vector<std::string> inputs;
    std::vector<std::string> outputs;
};

/// The identifiers of nl's ports.  Throws std::invalid_argument, naming
/// both sources, when two ports or a port and the hdl_wire of a reachable
/// gate or constant map to the same identifier under the dialect.
[[nodiscard]] HdlPorts hdl_ports(const Netlist& nl, const std::vector<bool>& reachable,
                                 const HdlDialect& dialect);

}  // namespace gfr::netlist::detail

#endif  // GFR_NETLIST_HDL_NAMES_H
