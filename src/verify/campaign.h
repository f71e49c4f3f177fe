#ifndef GFR_VERIFY_CAMPAIGN_H
#define GFR_VERIFY_CAMPAIGN_H

// Parallel verification campaign engine.
//
// Every verifier in this repo reduces to the same shape: a space of
// "sweeps", any one of which may surface a counterexample.  A Campaign
// shards that space across worker threads while keeping the *result* a
// pure function of the sweep space — never of the thread count or the
// scheduler:
//
//   - Sweeps are indexed 0..total-1, and a sweep's contents depend on its
//     index alone (random blocks seed from (campaign seed, block index) via
//     derive_sweep_seed()), so they are identical no matter which worker
//     runs them.
//   - Workers claim contiguous chunks from an atomic cursor.  Each worker
//     owns its sweep state outright (input blocks, execution scratch) —
//     the factory is called once per worker — while immutable inputs (the
//     compiled tapes, the Field) are shared freely.
//   - The first failure publishes its sweep index into an atomic running
//     minimum.  Sweeps at or above the published minimum are skipped, so a
//     failing campaign winds down early; sweeps *below* it are still
//     completed, which is exactly what makes the returned index the global
//     minimum — the same counterexample a single-threaded scan would find.
//
// The engine knows nothing about fields or netlists, and two drivers build
// it: verify::BlockSweep (verify/block_sweep.h), the one simulation
// campaign behind mult::verify_multiplier and netlist::check_equivalence,
// whose sweeps are batches of 64-lane blocks; and acv::prove_multiplier,
// whose sweeps are output columns.

#include <cstdint>
#include <functional>

namespace gfr::verify {

/// Sentinel for "no failing sweep".
inline constexpr std::uint64_t kNoFailure = ~std::uint64_t{0};

struct CampaignOptions {
    /// Worker threads.  <= 0 selects std::thread::hardware_concurrency().
    int threads = 0;
    /// Never spawn more workers than total_sweeps / this (tiny spaces run
    /// inline; a campaign of one sweep is just a function call).  Clients
    /// tune it to per-sweep cost: exhaustive regimes have microsecond
    /// sweeps and keep the default, random regimes pay a full multi-word
    /// product per lane and lower it so a 64-sweep campaign still shards.
    std::uint64_t min_sweeps_per_worker = 64;
    /// Sweeps claimed per atomic cursor fetch.  Large enough to keep the
    /// cursor cold, small enough that early cancellation bites.
    std::uint64_t chunk = 16;
};

/// Deterministic sharded sweep driver.  One Campaign is stateless between
/// runs and may itself be used from several threads at once.
class Campaign {
public:
    /// Runs one sweep; returns true iff it surfaced a failure (the worker
    /// records the payload itself — the engine only tracks the index).
    using SweepFn = std::function<bool(std::uint64_t sweep_index)>;

    /// Called once per worker (ids 0..worker_count-1) to build that
    /// worker's privately-owned SweepFn.
    using WorkerFactory = std::function<SweepFn(int worker_id)>;

    explicit Campaign(CampaignOptions options = {}) : options_{options} {}

    [[nodiscard]] const CampaignOptions& options() const noexcept { return options_; }

    /// Workers run() will actually use for a space of total_sweeps — clients
    /// size per-worker payload slots with this before launching.
    [[nodiscard]] int worker_count(std::uint64_t total_sweeps) const noexcept;

    /// Executes sweeps [0, total_sweeps) and returns the smallest failing
    /// sweep index, or kNoFailure.  Deterministic for a fixed sweep space:
    /// the same index comes back at any thread count.  Exceptions thrown by
    /// the factory or a sweep cancel the campaign and are rethrown (the
    /// first one, by worker id) after every worker has joined.
    std::uint64_t run(std::uint64_t total_sweeps, const WorkerFactory& factory) const;

    /// Seed for sweep `sweep_index` of a campaign seeded `campaign_seed`
    /// (splitmix64 over the pair).  Stable across platforms and releases:
    /// regression tests pin its values, because reproducing a logged
    /// counterexample depends on it.
    [[nodiscard]] static std::uint64_t derive_sweep_seed(
        std::uint64_t campaign_seed, std::uint64_t sweep_index) noexcept {
        std::uint64_t z = campaign_seed ^ (sweep_index + 0x9E3779B97F4A7C15ULL);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    }

private:
    CampaignOptions options_;
};

/// Minimal value-semantics PRNG for sweep bodies (xorshift64*): identical on
/// every platform, cheap to reseed per sweep.  Deliberately the same
/// generator the test harness uses, so logged seeds replay in either.
class SweepRng {
public:
    explicit SweepRng(std::uint64_t seed) noexcept
        : state_{seed != 0 ? seed : 0x9E3779B97F4A7C15ULL} {}

    std::uint64_t operator()() noexcept {
        state_ ^= state_ >> 12;
        state_ ^= state_ << 25;
        state_ ^= state_ >> 27;
        return state_ * 0x2545F4914F6CDD1DULL;
    }

private:
    std::uint64_t state_;
};

}  // namespace gfr::verify

#endif  // GFR_VERIFY_CAMPAIGN_H
