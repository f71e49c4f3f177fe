#include "verify/block_sweep.h"

#include "netlist/simulate.h"

#include <cstdio>
#include <stdexcept>

namespace gfr::verify {

std::string repro_suffix(std::uint64_t campaign_seed, std::uint64_t block,
                         bool random_regime) {
    if (block == kNoFailure) {
        return {};
    }
    char repro[128];
    if (random_regime) {
        std::snprintf(repro, sizeof repro, " [repro: seed=0x%llx sweep=%llu sweep_seed=0x%llx]",
                      static_cast<unsigned long long>(campaign_seed),
                      static_cast<unsigned long long>(block),
                      static_cast<unsigned long long>(
                          Campaign::derive_sweep_seed(campaign_seed, block)));
    } else {
        std::snprintf(repro, sizeof repro, " [repro: exhaustive sweep=%llu]",
                      static_cast<unsigned long long>(block));
    }
    return repro;
}

BlockSweep::BlockSweep(int inputs, const SweepOptions& options)
    : inputs_{inputs},
      exhaustive_{inputs <= options.max_exhaustive_inputs},
      seed_{options.seed},
      threads_{options.threads} {
    // No random block (a negative count wraps into a space the grouping
    // rounds to zero sweeps) would pass having checked nothing; past 69
    // inputs the exhaustive block count overflows.
    if (exhaustive_ ? inputs > 69 : options.random_blocks < 1) {
        throw std::invalid_argument{exhaustive_ ? "verify: exhaustive space over 69 inputs"
                                                : "verify: random_sweeps must be positive"};
    }
    const std::uint64_t total_blocks =
        exhaustive_ ? (inputs <= 6 ? 1 : std::uint64_t{1} << (inputs - 6))
                    : static_cast<std::uint64_t>(options.random_blocks);
    grouping_ = BlockGrouping::over(total_blocks, options.max_batch_blocks > 0
                                                      ? options.max_batch_blocks
                                                      : exec::Program::kMaxBlocks);
}

void BlockSweep::fill(std::span<std::uint64_t> in, std::uint64_t first_block,
                      int blocks) const {
    const auto n = static_cast<std::size_t>(inputs_);
    for (int b = 0; b < blocks; ++b) {
        const std::uint64_t block = first_block + static_cast<std::uint64_t>(b);
        const auto words = in.subspan(static_cast<std::size_t>(b) * n, n);
        if (exhaustive_) {
            for (std::size_t i = 0; i < n; ++i) {
                words[i] = netlist::exhaustive_pattern(static_cast<int>(i), block);
            }
        } else {
            SweepRng rng{Campaign::derive_sweep_seed(seed_, block)};
            for (auto& word : words) {
                word = rng();
            }
        }
    }
}

}  // namespace gfr::verify
