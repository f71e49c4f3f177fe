#ifndef GFR_NETLIST_EMIT_VHDL_H
#define GFR_NETLIST_EMIT_VHDL_H

// Structural VHDL emission.  This is the artefact the paper's flow starts
// from ("The design entry has been behavioral VHDL"): one concurrent signal
// assignment per gate, ports named after the netlist's inputs/outputs.

#include "netlist/netlist.h"

#include <string>

namespace gfr::netlist {

/// Render the reachable logic of `nl` as a synthesisable VHDL entity.
/// Port and signal names are sanitised to VHDL identifiers.  Throws
/// std::invalid_argument when `nl` has no outputs, or when two ports, or a
/// port and a gate's n<id> signal, map to one identifier (VHDL compares
/// identifiers without case).
std::string emit_vhdl(const Netlist& nl, const std::string& entity_name);

}  // namespace gfr::netlist

#endif  // GFR_NETLIST_EMIT_VHDL_H
