#ifndef GFR_NETLIST_EMIT_VERILOG_H
#define GFR_NETLIST_EMIT_VERILOG_H

// Structural Verilog emission, mirroring emit_vhdl for flows that prefer
// Verilog design entry.

#include "netlist/netlist.h"

#include <string>

namespace gfr::netlist {

/// Render the reachable logic of `nl` as a synthesisable Verilog module.
/// Throws std::invalid_argument when `nl` has no outputs, or when two
/// ports, or a port and a gate's n<id> wire, map to one identifier.
std::string emit_verilog(const Netlist& nl, const std::string& module_name);

}  // namespace gfr::netlist

#endif  // GFR_NETLIST_EMIT_VERILOG_H
