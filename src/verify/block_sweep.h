#ifndef GFR_VERIFY_BLOCK_SWEEP_H
#define GFR_VERIFY_BLOCK_SWEEP_H

// The block-sweep driver: the one simulation campaign behind
// mult::MultiplierVerifier and netlist::check_equivalence.
//
// A check is a linear space of 64-lane input blocks, block-major with
// `inputs` words per block.  With inputs <= max_exhaustive_inputs the
// blocks enumerate all 2^inputs assignments (netlist::exhaustive_pattern);
// otherwise there are random_blocks blocks, block k filled from
// SweepRng(Campaign::derive_sweep_seed(seed, k)).  The driver batches up
// to exec::Program::kMaxBlocks blocks into one tape pass (a "sweep"),
// shards the sweeps on verify::Campaign and returns the payload of the
// lowest failing block, stamped with that block's width-1 index.  Blocks
// are checked in ascending order inside a sweep and their contents depend
// only on their own index, so the verdict and the counterexample never
// depend on the batching width, the thread count or the backend.
//
// A checker supplies only its compare: per worker, a callable that runs
// its tapes over the filled blocks and returns the first failing block's
// payload.

#include "exec/program.h"
#include "verify/campaign.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace gfr::verify {

/// Batching of a linear space of 64-lane blocks into sweeps of up to
/// `group` blocks per tape pass; the last sweep may be partial.
///
/// Empty-space contract (pinned by tests): total_blocks == 0 yields
/// group == 1 and total_sweeps == 0, so a sweep loop runs zero times and
/// group still satisfies the positive blocks-per-pass invariant run()
/// requires.
struct BlockGrouping {
    std::uint64_t total_blocks = 0;
    int group = 1;  ///< blocks per full sweep
    std::uint64_t total_sweeps = 0;

    /// Up to min(max_group clamped to [1, kMaxBlocks], total_blocks) blocks
    /// per sweep.
    static BlockGrouping over(std::uint64_t total_blocks,
                              int max_group = exec::Program::kMaxBlocks) noexcept {
        BlockGrouping g;
        g.total_blocks = total_blocks;
        g.group = static_cast<int>(std::min<std::uint64_t>(
            static_cast<std::uint64_t>(std::clamp(max_group, 1, exec::Program::kMaxBlocks)),
            std::max<std::uint64_t>(total_blocks, 1)));
        g.total_sweeps = (total_blocks + static_cast<std::uint64_t>(g.group) - 1) /
                         static_cast<std::uint64_t>(g.group);
        return g;
    }

    [[nodiscard]] std::uint64_t first_block(std::uint64_t sweep) const noexcept {
        return sweep * static_cast<std::uint64_t>(group);
    }

    [[nodiscard]] int blocks_in_sweep(std::uint64_t sweep) const noexcept {
        return static_cast<int>(std::min<std::uint64_t>(
            static_cast<std::uint64_t>(group), total_blocks - first_block(sweep)));
    }
};

struct SweepOptions {
    int max_exhaustive_inputs = 22;  ///< exhaustive iff inputs <= this
    int random_blocks = 0;
    std::uint64_t seed = 0;
    int threads = 0;  ///< campaign workers; <= 0 = hardware concurrency
    /// Blocks per tape pass, clamped to [1, kMaxBlocks]; <= 0 = kMaxBlocks.
    int max_batch_blocks = 0;
};

/// " [repro: ...]" for a counterexample in width-1 block `block` (the
/// random regime adds the block's PRNG seed, which pins its vectors
/// forever), or "" when block is kNoFailure.
std::string repro_suffix(std::uint64_t campaign_seed, std::uint64_t block,
                         bool random_regime);

class BlockSweep {
public:
    /// Throws std::invalid_argument for a random space of no block and for
    /// an exhaustive space over 69 inputs (2^63 blocks).
    BlockSweep(int inputs, const SweepOptions& options);

    /// One campaign.  make_compare(group) runs once per worker and returns
    /// that worker's compare, called per sweep as
    ///   compare(std::span<const std::uint64_t> in, int blocks, int& failed_block)
    ///       -> std::optional<Failure>
    /// with in holding `blocks` <= group filled blocks; on a failure it
    /// sets failed_block to the in-sweep index of the first failing block.
    /// Failure carries campaign_seed, sweep_index and random_regime, which
    /// the driver fills.  std::nullopt when every block passes.
    template <typename Failure, typename MakeCompare>
    std::optional<Failure> run(const MakeCompare& make_compare) const;

private:
    /// Fills `blocks` blocks starting at width-1 block `first_block`.
    void fill(std::span<std::uint64_t> in, std::uint64_t first_block, int blocks) const;

    int inputs_ = 0;
    bool exhaustive_ = false;
    std::uint64_t seed_ = 0;
    int threads_ = 0;
    BlockGrouping grouping_;
};

template <typename Failure, typename MakeCompare>
std::optional<Failure> BlockSweep::run(const MakeCompare& make_compare) const {
    // A random sweep pays batched tape passes over dense vectors: shard down
    // to one sweep per worker.  Exhaustive sweeps are microsecond-cheap, so
    // tiny spaces stay inline.
    const Campaign campaign{{.threads = threads_,
                             .min_sweeps_per_worker = exhaustive_ ? 64U : 1U}};
    const auto workers =
        static_cast<std::size_t>(campaign.worker_count(grouping_.total_sweeps));
    std::vector<std::optional<Failure>> payload(workers);
    std::vector<std::uint64_t> payload_sweep(workers, kNoFailure);

    const auto factory = [&](int worker_id) -> Campaign::SweepFn {
        using Compare = decltype(make_compare(grouping_.group));
        auto compare = std::make_shared<Compare>(make_compare(grouping_.group));
        auto in = std::make_shared<std::vector<std::uint64_t>>(
            static_cast<std::size_t>(inputs_) * static_cast<std::size_t>(grouping_.group));
        const auto slot = static_cast<std::size_t>(worker_id);
        return [&, compare, in, slot](std::uint64_t sweep) -> bool {
            const std::uint64_t first = grouping_.first_block(sweep);
            const int blocks = grouping_.blocks_in_sweep(sweep);
            const auto words = std::span{*in}.first(static_cast<std::size_t>(inputs_) *
                                                    static_cast<std::size_t>(blocks));
            fill(words, first, blocks);
            int failed_block = 0;
            std::optional<Failure> failure =
                (*compare)(std::span<const std::uint64_t>{words}, blocks, failed_block);
            if (!failure.has_value()) {
                return false;
            }
            failure->campaign_seed = seed_;
            failure->sweep_index = first + static_cast<std::uint64_t>(failed_block);
            failure->random_regime = !exhaustive_;
            payload[slot] = std::move(failure);
            payload_sweep[slot] = sweep;
            return true;
        };
    };

    const std::uint64_t failing_sweep = campaign.run(grouping_.total_sweeps, factory);
    for (std::size_t w = 0; w < workers && failing_sweep != kNoFailure; ++w) {
        if (payload_sweep[w] == failing_sweep) {
            return std::move(payload[w]);
        }
    }
    return std::nullopt;
}

}  // namespace gfr::verify

#endif  // GFR_VERIFY_BLOCK_SWEEP_H
