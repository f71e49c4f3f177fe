#ifndef GFR_FPGA_LUT_NETWORK_H
#define GFR_FPGA_LUT_NETWORK_H

// A mapped LUT network: the output of technology mapping, the input to slice
// packing and timing analysis.  Artix-7 style K <= 6 LUTs, each carrying its
// truth table (bit t of `truth` = output for input minterm t, fanin j being
// bit j of t).
//
// References (std::int32_t): 0..n_inputs-1 = primary inputs,
// n_inputs + i = LUT i, kConst0Ref = constant zero.

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace gfr::fpga {

struct LutNetwork {
    static constexpr std::int32_t kConst0Ref = -1;

    struct Lut {
        std::vector<std::int32_t> fanins;  // <= 6, topologically earlier refs
        std::uint64_t truth = 0;
    };

    std::vector<std::string> input_names;
    std::vector<Lut> luts;  // topological order
    std::vector<std::pair<std::string, std::int32_t>> outputs;

    [[nodiscard]] int lut_count() const noexcept { return static_cast<int>(luts.size()); }
    [[nodiscard]] int input_count() const noexcept {
        return static_cast<int>(input_names.size());
    }

    /// LUT level per LUT (inputs are level 0; a LUT is 1 + max fanin level).
    [[nodiscard]] std::vector<int> levels() const;

    /// Maximum output level ("logic depth" in LUTs).
    [[nodiscard]] int depth() const;

    /// Fanout per reference (inputs then LUTs); output pins count once each.
    [[nodiscard]] std::vector<int> fanout_counts() const;

    /// Word-parallel simulation: input_words[i] carries 64 lanes of input i;
    /// returns one word per output.  Used to prove mapping preserved the
    /// original netlist function.  Compiles the network to an exec::Program
    /// tape per call; hold an exec::Program (compile(*this)) to amortise
    /// compilation across a sweep loop.
    [[nodiscard]] std::vector<std::uint64_t> simulate(
        std::span<const std::uint64_t> input_words) const;
};

/// Verilog with one `assign` per LUT indexing a localparam INIT vector —
/// the LUT-level netlist a bitstream flow would consume.  LUT i is wire
/// lut<i> with localparam INIT<i>.  Throws std::invalid_argument, naming
/// both sources, when two ports, or a port and one of those names, map to
/// the same Verilog identifier.
std::string emit_verilog_luts(const LutNetwork& net, const std::string& module_name);

}  // namespace gfr::fpga

#endif  // GFR_FPGA_LUT_NETWORK_H
