#ifndef GFR_NETLIST_HDL_NAMES_H
#define GFR_NETLIST_HDL_NAMES_H

// Identifiers of the HDL emitters (emit_vhdl, emit_verilog and
// fpga::emit_verilog_luts; not part of the public API).  Each names a port
// after its sanitised name and numbers what it generates itself (the wire
// n<id> of every other emitted node; lut<i> and INIT<i> per LUT), so two
// ports, or a port and a generated name, can land on one identifier;
// hdl_ports() rejects that before any text is written.

#include "netlist/netlist.h"

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace gfr::netlist::detail {

/// How one HDL spells identifiers, and how its emitter reports errors.
struct HdlDialect {
    const char* emitter;  ///< error-message prefix
    /// VHDL's rules, else Verilog's (IEEE 1364-2005).  A VHDL basic
    /// identifier is a letter followed by letters and digits, each
    /// underscore between two of them, and compares without case; a Verilog
    /// identifier may also start with '_' and repeat or end in underscores,
    /// and compares with case.
    bool vhdl;
};

inline constexpr HdlDialect kVhdl{"emit_vhdl", true};
inline constexpr HdlDialect kVerilog{"emit_verilog", false};

/// A legal identifier of the dialect for `name`: every character outside
/// [A-Za-z0-9_] becomes '_' (in VHDL, runs of underscores then shrink to
/// one and a trailing one is dropped), and a 'p' is prepended when the
/// result does not start as the dialect requires or is one of its reserved
/// words ("in" -> "pin"; in VHDL "End" -> "pEnd" too).  A legal name that is
/// no reserved word comes back unchanged.
[[nodiscard]] std::string hdl_identifier(const std::string& name, const HdlDialect& dialect);

/// `s` in lower case, the form in which VHDL compares names and keywords.
[[nodiscard]] std::string lowercase(std::string s);

/// The wire of an emitted gate or constant.
[[nodiscard]] inline std::string hdl_wire(NodeId id) { return "n" + std::to_string(id); }

/// Sanitised port identifiers, in port order.
struct HdlPorts {
    std::vector<std::string> inputs;
    std::vector<std::string> outputs;
};

/// i when `key` is `prefix` followed by the decimal i without leading
/// zeros, the way emitters number the names they generate.
[[nodiscard]] std::optional<std::uint64_t> hdl_generated_index(const std::string& key,
                                                               std::string_view prefix);

/// The generated name a port identifier lands on, as an error message names
/// it ("the wire of node 2"), or "" when it lands on none.  It receives the
/// identifier as the dialect compares it (lower case in VHDL).
using HdlGeneratedOwner = std::function<std::string(const std::string& key)>;

/// The identifiers of the ports named `inputs` and `outputs`.  Throws
/// std::invalid_argument, naming both sources, when two ports or a port and
/// a generated name map to the same identifier under the dialect.
[[nodiscard]] HdlPorts hdl_ports(std::span<const std::string> inputs,
                                 std::span<const std::string> outputs,
                                 const HdlGeneratedOwner& generated, const HdlDialect& dialect);

/// hdl_ports for nl's ports, whose generated names are the hdl_wire of
/// every reachable gate or constant.
[[nodiscard]] HdlPorts hdl_ports(const Netlist& nl, const std::vector<bool>& reachable,
                                 const HdlDialect& dialect);

}  // namespace gfr::netlist::detail

#endif  // GFR_NETLIST_HDL_NAMES_H
