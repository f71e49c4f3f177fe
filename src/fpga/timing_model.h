#ifndef GFR_FPGA_TIMING_MODEL_H
#define GFR_FPGA_TIMING_MODEL_H

// Post-place-and-route timing model for the mapped LUT network.
//
// The paper reports critical paths from Xilinx ISE post-P&R on Artix-7
// (combinational multipliers, pad to pad).  We model:
//
//   arrival(input)  = t_io_in
//   arrival(lut)    = max over fanins f of
//                       ( arrival(f) + net_delay(fanout(f)) ) + t_lut
//   path delay      = max over outputs ( arrival(o) + net_delay(1) + t_io_out )
//   net_delay(fo)   = ( t_net_base + t_net_fanout * log2(1 + fo) ) * congestion
//   congestion      = 1 + congestion_factor * log2(max(1, LUTs / ref_luts))
//
// Rationale: net delay grows with fanout (more loads, longer routes) and
// with design size (congestion / longer average routes); IO dominates tiny
// designs, matching the ~9.8 ns floor of the paper's (8,2) rows.
//
// CALIBRATION: the constants below were fixed ONCE so
// the proposed multiplier lands near the paper's 9.77 ns at (8,2) and
// ~22 ns at (163,·), then reused unchanged for every method and every field.
// All cross-method comparisons are therefore model-internal and fair; the
// reproduction target is the *shape* (rankings, A x T ordering), not
// absolute nanoseconds.

#include "fpga/lut_network.h"

namespace gfr::fpga {

struct TimingModel {
    double t_io_in = 2.8;          ///< pad + IBUF (ns)
    double t_io_out = 2.8;         ///< OBUF + pad (ns)
    double t_lut = 0.25;           ///< LUT6 logic delay (ns)
    double t_net_base = 0.45;      ///< minimum routed-net delay (ns)
    double t_net_fanout = 0.20;    ///< per-log2-fanout net-delay growth (ns)
    double congestion_factor = 0.20;
    double congestion_ref_luts = 33;  ///< the paper's smallest design (LUTs)

    [[nodiscard]] double congestion(int lut_count) const;
    [[nodiscard]] double net_delay(int fanout, double congestion_scale) const;
};

/// Critical path (ns) through the LUT network under the model.
double critical_path_ns(const LutNetwork& net, const TimingModel& model = {});

}  // namespace gfr::fpga

#endif  // GFR_FPGA_TIMING_MODEL_H
