#include "fpga/lut_network.h"

#include "exec/program.h"
#include "netlist/hdl_names.h"

#include <algorithm>
#include <stdexcept>

namespace gfr::fpga {

std::vector<int> LutNetwork::levels() const {
    std::vector<int> level(luts.size(), 0);
    for (std::size_t i = 0; i < luts.size(); ++i) {
        int max_in = 0;
        for (const auto ref : luts[i].fanins) {
            if (ref >= input_count()) {
                max_in = std::max(max_in, level[static_cast<std::size_t>(ref - input_count())]);
            }
        }
        level[i] = 1 + max_in;
    }
    return level;
}

int LutNetwork::depth() const {
    const auto level = levels();
    int out = 0;
    for (const auto& [name, ref] : outputs) {
        if (ref >= input_count()) {
            out = std::max(out, level[static_cast<std::size_t>(ref - input_count())]);
        }
    }
    return out;
}

std::vector<int> LutNetwork::fanout_counts() const {
    std::vector<int> fanout(input_names.size() + luts.size(), 0);
    for (const auto& lut : luts) {
        for (const auto ref : lut.fanins) {
            if (ref >= 0) {
                ++fanout[static_cast<std::size_t>(ref)];
            }
        }
    }
    for (const auto& [name, ref] : outputs) {
        if (ref >= 0) {
            ++fanout[static_cast<std::size_t>(ref)];
        }
    }
    return fanout;
}

std::vector<std::uint64_t> LutNetwork::simulate(
    std::span<const std::uint64_t> input_words) const {
    if (input_words.size() != input_names.size()) {
        throw std::invalid_argument{"LutNetwork::simulate: wrong number of input words"};
    }
    // Compile-and-run: the tape evaluates every LUT bitsliced (parity cones
    // as fused XORs, general cones as Shannon mux folds) instead of the old
    // per-lane truth-table walk.  Compilation is linear in the LUT count and
    // amortises within a single call; sweep loops that want to pay it once
    // hold an exec::Program themselves (see examples/reconfig_demo.cpp).
    const exec::Program prog = exec::Program::compile(*this);
    exec::Program::Scratch scratch;
    std::vector<std::uint64_t> out(outputs.size(), 0);
    prog.run(input_words, out, scratch);
    return out;
}

namespace {

namespace hdl = netlist::detail;

constexpr hdl::HdlDialect kVerilogLuts{"emit_verilog_luts", false};

std::string hex64(std::uint64_t v) {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out = "64'h";
    for (int shift = 60; shift >= 0; shift -= 4) {
        out += kDigits[(v >> shift) & 0xF];
    }
    return out;
}

}  // namespace

std::string emit_verilog_luts(const LutNetwork& net, const std::string& module_name) {
    // Every LUT i is emitted as wire lut<i> indexing localparam INIT<i>.
    std::vector<std::string> output_names;
    for (const auto& [name, ref] : net.outputs) {
        output_names.push_back(name);
    }
    const auto ports = hdl::hdl_ports(
        net.input_names, output_names,
        [&](const std::string& key) -> std::string {
            if (const auto i = hdl::hdl_generated_index(key, "lut"); i && *i < net.luts.size()) {
                return "the wire of LUT " + std::to_string(*i);
            }
            if (const auto i = hdl::hdl_generated_index(key, "INIT"); i && *i < net.luts.size()) {
                return "the INIT localparam of LUT " + std::to_string(*i);
            }
            return "";
        },
        kVerilogLuts);

    std::string out = "module " + hdl::hdl_identifier(module_name, kVerilogLuts) + " (\n";
    for (const auto& id : ports.inputs) {
        out += "  input  wire " + id + ",\n";
    }
    for (std::size_t i = 0; i < ports.outputs.size(); ++i) {
        out += "  output wire " + ports.outputs[i];
        out += (i + 1 < ports.outputs.size()) ? ",\n" : "\n";
    }
    out += ");\n";

    auto ref_name = [&](std::int32_t ref) -> std::string {
        if (ref < 0) {
            return "1'b0";
        }
        if (ref < net.input_count()) {
            return ports.inputs[static_cast<std::size_t>(ref)];
        }
        return "lut" + std::to_string(ref - net.input_count());
    };

    for (std::size_t i = 0; i < net.luts.size(); ++i) {
        const auto& lut = net.luts[i];
        out += "  wire lut" + std::to_string(i) + ";\n";
        out += "  localparam [63:0] INIT" + std::to_string(i) + " = " + hex64(lut.truth) +
               ";\n";
        out += "  assign lut" + std::to_string(i) + " = INIT" + std::to_string(i) + "[{";
        for (std::size_t j = lut.fanins.size(); j-- > 0;) {
            out += ref_name(lut.fanins[j]);
            if (j > 0) {
                out += ", ";
            }
        }
        out += "}];\n";
    }
    for (std::size_t i = 0; i < net.outputs.size(); ++i) {
        out += "  assign " + ports.outputs[i] + " = " + ref_name(net.outputs[i].second) + ";\n";
    }
    out += "endmodule\n";
    return out;
}

}  // namespace gfr::fpga
