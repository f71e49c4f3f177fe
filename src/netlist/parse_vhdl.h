#ifndef GFR_NETLIST_PARSE_VHDL_H
#define GFR_NETLIST_PARSE_VHDL_H

// Structural VHDL ingestion — the inverse of emit_vhdl(), and the entry
// point for reverse engineering third-party exports: a netlist read back
// this way carries only whatever port names the VHDL had, which
// acv::reverse_engineer() then treats as anonymous.

#include "netlist/netlist.h"

#include <string>

namespace gfr::netlist {

/// Parse the structural subset emit_vhdl() produces (and hand-written
/// equivalents): `in`/`out` std_logic port declarations plus concurrent
/// assignments of the forms `s <= a and b;`, `s <= a xor b;`, `s <= '0';`
/// and `s <= a;`.  Declaration order of the ports is preserved.  Names and
/// keywords compare without case, as in VHDL; a port keeps the spelling of
/// its declaration, and a second declaration in any spelling is rejected.
/// Anything outside that subset — or a malformed/incomplete design — throws
/// std::invalid_argument with the offending line number.
Netlist parse_vhdl(const std::string& text);

}  // namespace gfr::netlist

#endif  // GFR_NETLIST_PARSE_VHDL_H
