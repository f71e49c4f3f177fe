#include "fpga/flow.h"

#include <utility>

namespace gfr::fpga {

namespace {

FlowResult map_and_measure(const netlist::Netlist& prepared, const FlowOptions& options) {
    FlowResult result;
    result.gate_stats = prepared.stats();
    result.network = map_to_luts(prepared, options.mapper);
    result.luts = result.network.lut_count();
    result.lut_depth = result.network.depth();
    result.slices = pack_slices(result.network, options.slices).n_slices;
    result.delay_ns = critical_path_ns(result.network, options.timing);
    result.area_time = result.luts * result.delay_ns;
    return result;
}

}  // namespace

FlowResult run_flow(const netlist::Netlist& nl, const FlowOptions& options) {
    if (!options.synthesis_freedom) {
        // Source structure is authoritative: the netlist is mapped exactly as
        // written.  The tool still chooses whether shared signals stay hard
        // LUT boundaries or may be duplicated into consumers; we grant it the
        // better of the two, but never any restructuring.
        const netlist::Netlist cleaned = netlist::dce(nl);
        FlowOptions bounded = options;
        bounded.mapper.respect_fanout_boundaries = true;
        FlowOptions duplicating = options;
        duplicating.mapper.respect_fanout_boundaries = false;
        FlowResult a = map_and_measure(cleaned, bounded);
        FlowResult b = map_and_measure(cleaned, duplicating);
        return (a.area_time <= b.area_time) ? std::move(a) : std::move(b);
    }
    if (!options.strategy_search) {
        return map_and_measure(netlist::synthesize(nl, options.synth), options);
    }
    // Strategy search: the synthesiser is free, so it evaluates six
    // restructurings and keeps whichever maps best, the lowest A x T and on
    // a tie the lowest index in FlowOptions::strategy_search's list:
    //   0 as-given, 1 balance, 2 pair CSE + balance, 3 signature grouping,
    //   4 flat ANF, 5 grouping + pairs shared by >= 3 sums.
    // Each is what netlist::synthesize builds for it, but the prefixes are
    // shared: dce runs once and grouping once (for 3 and 5).  Flat ANF is
    // evaluated last, after the dce'd netlist, its last user, is freed, so
    // no other netlist is alive while the largest one maps.
    FlowResult best;
    int best_index = -1;
    const auto consider = [&](int index, const netlist::Netlist& prepared) {
        FlowResult candidate = map_and_measure(prepared, options);
        if (best_index < 0 || candidate.area_time < best.area_time ||
            (candidate.area_time == best.area_time && index < best_index)) {
            best = std::move(candidate);
            best_index = index;
        }
    };
    netlist::Netlist cleaned = netlist::dce(nl);
    consider(0, cleaned);
    consider(1, netlist::balance_xor_trees(cleaned));
    consider(2, netlist::balance_xor_trees(netlist::extract_common_xor_pairs(cleaned, 2)));
    {
        netlist::Netlist grouped = netlist::group_common_cones(cleaned);
        consider(3, grouped);
        const netlist::Netlist strong_pairs = netlist::extract_common_xor_pairs(grouped, 3);
        grouped = {};
        consider(5, strong_pairs);
    }
    const netlist::Netlist flat = netlist::flatten_to_anf(cleaned);
    cleaned = {};
    consider(4, flat);
    return best;
}

}  // namespace gfr::fpga
