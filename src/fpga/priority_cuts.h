#ifndef GFR_FPGA_PRIORITY_CUTS_H
#define GFR_FPGA_PRIORITY_CUTS_H

// Depth-oriented K-LUT technology mapping with priority cuts and area-flow
// recovery (the ABC "if -K 6" style mapper).  This is our stand-in for the
// LUT-mapping step of Xilinx XST targeting Artix-7 (6-input LUTs) with the
// paper's "speed high" optimisation goal:
//
//   1. forward pass: per node keep the `cuts_per_node` best cuts ordered by
//      (depth, area-flow), dropping any cut a kept cut's leaves are a subset
//      of; the cheapest-area candidate is always kept as well (it replaces
//      the last kept cut when the depth order left it out); a node's depth
//      is its best cut's depth;
//   2. global required time = max output depth (depth-optimal by
//      construction);
//   3. backward covering: every required node picks the cheapest (area-flow)
//      stored cut that still meets its required time, leaves become required
//      one level earlier — area recovery without losing depth.
//
// Truth tables for the chosen cones are computed by simulating the cone on
// the 6-variable minterm masks, so the mapping is checkable bit-for-bit
// against the gate netlist (and is checked, in tests).

#include "fpga/cut.h"
#include "fpga/lut_network.h"
#include "netlist/netlist.h"

namespace gfr::fpga {

struct MapperOptions {
    int lut_inputs = 6;     ///< K (Artix-7 LUT6)
    int cuts_per_node = 8;  ///< priority cut list length
    bool area_recovery = true;
    /// Treat every multi-fanout gate as a hard LUT boundary (no duplication
    /// of shared logic into consumers).  This is how a synthesis tool maps
    /// HDL whose *source structure* pins shared signals down — the paper's
    /// "as-given" methods — whereas flat equations (synthesis freedom) are
    /// mapped without boundaries.
    bool respect_fanout_boundaries = false;
};

/// Map the reachable logic of `nl` into a LUT network.  Primary input order
/// and output names/order are preserved.
LutNetwork map_to_luts(const netlist::Netlist& nl, const MapperOptions& options = {});

}  // namespace gfr::fpga

#endif  // GFR_FPGA_PRIORITY_CUTS_H
