#include "netlist/equivalence.h"

#include "exec/program.h"
#include "verify/block_sweep.h"

#include <bit>
#include <optional>
#include <stdexcept>

namespace gfr::netlist {

std::string Mismatch::to_string() const {
    std::string out = "output '" + output_name + "': lhs=" +
                      std::to_string(static_cast<int>(lhs_value)) + " rhs=" +
                      std::to_string(static_cast<int>(rhs_value)) + " inputs=";
    if (input_names.size() == input_bits.size()) {
        for (std::size_t i = 0; i < input_bits.size(); ++i) {
            if (i != 0) {
                out += ' ';
            }
            out += input_names[i];
            out += '=';
            out += static_cast<char>('0' + input_bits[i]);
        }
    } else {
        for (const auto bit : input_bits) {
            out += static_cast<char>('0' + bit);
        }
    }
    return out + verify::repro_suffix(campaign_seed, sweep_index, random_regime);
}

namespace {

/// rhs input index for each lhs input, matched by name.
std::vector<int> match_ports(const std::vector<Port>& lhs, const std::vector<Port>& rhs,
                             const char* what) {
    if (lhs.size() != rhs.size()) {
        throw std::invalid_argument{std::string{"check_equivalence: "} + what +
                                    " count differs"};
    }
    std::vector<int> map(lhs.size(), -1);
    for (std::size_t i = 0; i < lhs.size(); ++i) {
        for (std::size_t j = 0; j < rhs.size(); ++j) {
            if (lhs[i].name == rhs[j].name) {
                map[i] = static_cast<int>(j);
                break;
            }
        }
        if (map[i] < 0) {
            throw std::invalid_argument{std::string{"check_equivalence: "} + what +
                                        " '" + lhs[i].name + "' missing on rhs"};
        }
    }
    return map;
}

/// One campaign worker's state: execution scratch for the two shared
/// compiled tapes plus the rhs-ordered copy of the driver's input blocks
/// and both output buffers (sized for up to `blocks` blocks of 64 lanes).
/// The Programs themselves are immutable and shared by every worker.
struct SweepContext {
    SweepContext(int n, int n_out, int blocks)
        : rhs_in(static_cast<std::size_t>(n) * blocks, 0),
          lhs_out(static_cast<std::size_t>(n_out) * blocks, 0),
          rhs_out(static_cast<std::size_t>(n_out) * blocks, 0) {}

    exec::Program::Scratch lhs_scratch;
    exec::Program::Scratch rhs_scratch;
    std::vector<std::uint64_t> rhs_in;
    std::vector<std::uint64_t> lhs_out;
    std::vector<std::uint64_t> rhs_out;
};

/// The two tapes and the port matching, shared by every worker.
struct TapePair {
    const Netlist* lhs;
    exec::Program lhs_prog;
    exec::Program rhs_prog;
    std::vector<int> in_map;
    std::vector<int> out_map;

    /// Runs both tapes over the `blocks` blocks in `in` (lhs input order)
    /// and scans the blocks in ascending order, so the reported mismatch is
    /// the first one a block-at-a-time scan would find.  On mismatch
    /// failed_block is the in-sweep block index.
    std::optional<Mismatch> compare(SweepContext& ctx, std::span<const std::uint64_t> in,
                                    int blocks, int& failed_block) const {
        const auto n = static_cast<std::size_t>(lhs_prog.input_count());
        const auto n_out = static_cast<std::size_t>(lhs_prog.output_count());
        for (std::size_t b = 0; b < static_cast<std::size_t>(blocks); ++b) {
            for (std::size_t i = 0; i < n; ++i) {
                ctx.rhs_in[b * n + static_cast<std::size_t>(in_map[i])] = in[b * n + i];
            }
        }
        lhs_prog.run(in, std::span{ctx.lhs_out}.first(n_out * blocks), ctx.lhs_scratch,
                     blocks);
        rhs_prog.run(std::span{ctx.rhs_in}.first(n * blocks),
                     std::span{ctx.rhs_out}.first(n_out * blocks), ctx.rhs_scratch, blocks);
        for (int b = 0; b < blocks; ++b) {
            const std::uint64_t* lhs_out = ctx.lhs_out.data() + b * n_out;
            const std::uint64_t* rhs_out = ctx.rhs_out.data() + b * n_out;
            const std::uint64_t* lhs_in = in.data() + b * n;
            for (std::size_t o = 0; o < n_out; ++o) {
                const std::uint64_t rhs_word = rhs_out[static_cast<std::size_t>(out_map[o])];
                const std::uint64_t diff = lhs_out[o] ^ rhs_word;
                if (diff == 0) {
                    continue;
                }
                const int lane = std::countr_zero(diff);
                Mismatch mm;
                mm.output_name = lhs->outputs()[o].name;
                mm.lhs_value = (lhs_out[o] >> lane) & 1U;
                mm.rhs_value = (rhs_word >> lane) & 1U;
                mm.input_bits.resize(n);
                mm.input_names.resize(n);
                for (std::size_t i = 0; i < n; ++i) {
                    mm.input_bits[i] = static_cast<std::uint8_t>((lhs_in[i] >> lane) & 1U);
                    mm.input_names[i] = lhs->inputs()[i].name;
                }
                failed_block = b;
                return mm;
            }
        }
        return std::nullopt;
    }
};

}  // namespace

std::optional<Mismatch> check_equivalence(const Netlist& lhs, const Netlist& rhs,
                                          const EquivalenceOptions& options) {
    auto in_map = match_ports(lhs.inputs(), rhs.inputs(), "input");
    auto out_map = match_ports(lhs.outputs(), rhs.outputs(), "output");
    // Both netlists compile once into liveness-scheduled tapes; the campaign
    // workers share the immutable Programs and own only execution scratch.
    const TapePair pair{&lhs, exec::Program::compile(lhs), exec::Program::compile(rhs),
                        std::move(in_map), std::move(out_map)};
    const int n = static_cast<int>(lhs.inputs().size());
    const int n_out = static_cast<int>(lhs.outputs().size());
    const verify::BlockSweep sweep{
        n,
        {.max_exhaustive_inputs = options.max_exhaustive_inputs,
         .random_blocks = options.random_sweeps,
         .seed = options.seed,
         .threads = options.threads}};
    return sweep.run<Mismatch>([&pair, n, n_out](int group) {
        return [&pair, ctx = SweepContext{n, n_out, group}](
                   std::span<const std::uint64_t> in, int blocks, int& failed_block) mutable {
            return pair.compare(ctx, in, blocks, failed_block);
        };
    });
}

}  // namespace gfr::netlist
