#ifndef GFR_FPGA_FLOW_H
#define GFR_FPGA_FLOW_H

// End-to-end "FPGA implementation" flow: (optional) synthesis restructuring,
// LUT mapping, slice packing and timing — producing exactly the four numbers
// of the paper's Table V rows: LUTs, Slices, Time (ns), Area x Time.
//
// The synthesis_freedom switch is the experiment of the paper: methods whose
// HDL fixes the gate structure ([2],[3],[6],[7],[8]) are mapped as-given;
// the proposed flat formulation (Table IV) is mapped after the synthesiser
// is allowed to re-associate XOR trees and share common pairs.

#include "fpga/lut_network.h"
#include "fpga/priority_cuts.h"
#include "fpga/slice_pack.h"
#include "fpga/timing_model.h"
#include "netlist/netlist.h"
#include "netlist/passes.h"

namespace gfr::fpga {

struct FlowOptions {
    bool synthesis_freedom = false;  ///< run netlist::synthesize before mapping
    /// With synthesis freedom, try six restructurings — as-given,
    /// depth-aware balance, pair CSE + balance, signature grouping (LUT-aware
    /// trees), per-output flat ANF (LUT-aware trees, no CSE), and signature
    /// grouping + pairs shared by >= 3 sums — and keep the mapping with the
    /// lowest A x T, the first in this list on a tie: the way a synthesis
    /// tool explores strategies when the source does not pin the structure
    /// down.  Disable to force exactly the `synth` pipeline.
    bool strategy_search = true;
    netlist::SynthOptions synth{};
    MapperOptions mapper{};
    SliceOptions slices{};
    TimingModel timing{};
};

struct FlowResult {
    netlist::NetlistStats gate_stats;  ///< after optional synthesis
    int luts = 0;
    int lut_depth = 0;
    int slices = 0;
    double delay_ns = 0.0;
    double area_time = 0.0;  ///< LUTs x ns, the paper's A x T metric
    LutNetwork network;
};

FlowResult run_flow(const netlist::Netlist& nl, const FlowOptions& options = {});

}  // namespace gfr::fpga

#endif  // GFR_FPGA_FLOW_H
