// Concurrency test for the thread-safe arithmetic tier.
//
// One shared Field, and one shared bulk::RegionEngine over it (the way
// rs::Codec shares its engine across callers), are hammered from N threads
// running mixed mul / sqr / inv / region traffic.  Correctness is judged by
// determinism: every thread records a checksum trace from a seeded PRNG, and
// the same seeds replayed serially must produce bit-identical traces.  Under the old
// engine (per-instance mutable scratch) the multi-word paths raced and this
// comparison fails; with the explicit / thread-local Scratch it must hold on
// every run.  Run under TSan in CI for the data-race half of the claim; the
// replay check here catches corrupted results on any build.

#include "bulk/region_engine.h"
#include "field/field_ops.h"
#include "field/gf2m.h"
#include "testutil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <latch>
#include <thread>
#include <vector>

namespace gfr::field {
namespace {

using gf2::Poly;
using testutil::Xorshift64Star;

std::uint64_t checksum(const Poly& p) {
    std::uint64_t acc = static_cast<std::uint64_t>(p.degree()) * 0x9E3779B97F4A7C15ULL;
    for (const auto w : p.words()) {
        acc = (acc ^ w) * 0x2545F4914F6CDD1DULL;
    }
    return acc;
}

constexpr int kThreads = 4;
constexpr int kIters = 400;
constexpr std::size_t kRegionSymbols = 8;
constexpr std::uint64_t kSeedBase = 0xC0CC0C0ULL;

/// The workload one thread runs against the shared field and engine: mixed
/// operations driven by its own PRNG, checksums appended to `trace`.
/// Deliberately value-identical whether run concurrently or serially.
void hammer(const Field& f, const bulk::RegionEngine& eng, std::uint64_t seed,
            std::vector<std::uint64_t>& trace) {
    Xorshift64Star rng{seed};
    const std::size_t mw = f.ops().elem_words();
    std::vector<std::uint64_t> region(kRegionSymbols * mw);
    trace.reserve(kIters);
    for (int i = 0; i < kIters; ++i) {
        const Poly a = testutil::random_element(f, rng);
        const Poly b = testutil::random_nonzero_element(f, rng);
        switch (rng() % 4) {
            case 0:
                trace.push_back(checksum(f.mul(a, b)));
                break;
            case 1:
                trace.push_back(checksum(f.sqr(a)));
                break;
            case 2:
                trace.push_back(checksum(f.inv(b)));
                break;
            default: {
                std::fill(region.begin(), region.end(), 0);
                for (std::size_t k = 0; k < kRegionSymbols; ++k) {
                    const Poly e = testutil::random_element(f, rng);
                    const auto w = e.words();
                    std::copy(w.begin(), w.end(),
                              region.begin() + static_cast<long>(k * mw));
                }
                const auto prep = eng.prepare(b);
                if (eng.single_word()) {
                    eng.scale_region(prep, region);
                } else {
                    eng.mul_region_mw(prep, region, region);
                }
                std::uint64_t acc = 0;
                for (const auto w : region) {
                    acc = (acc ^ w) * 0x2545F4914F6CDD1DULL;
                }
                trace.push_back(acc);
                break;
            }
        }
    }
}

void run_shared_field_hammer(const Field& f) {
    // Threaded run against ONE shared Field and ONE shared engine.
    const bulk::RegionEngine eng{f.ops()};
    std::vector<std::vector<std::uint64_t>> threaded(kThreads);
    {
        std::vector<std::thread> workers;
        workers.reserve(kThreads);
        for (int t = 0; t < kThreads; ++t) {
            workers.emplace_back([&f, &eng, t, &threaded] {
                hammer(f, eng, kSeedBase + t, threaded[t]);
            });
        }
        for (auto& w : workers) {
            w.join();
        }
    }
    // Serial replay with the same seeds on the same field and engine.
    for (int t = 0; t < kThreads; ++t) {
        std::vector<std::uint64_t> serial;
        hammer(f, eng, kSeedBase + t, serial);
        ASSERT_EQ(threaded[static_cast<std::size_t>(t)], serial)
            << "thread " << t << " diverged from serial replay on " << f.to_string();
    }
}

TEST(FieldConcurrency, SharedMultiWordFieldMatchesSerialReplay) {
    const Field f{gf2::Poly::from_exponents({233, 74, 0})};  // NIST B-233
    run_shared_field_hammer(f);
}

TEST(FieldConcurrency, SharedPentanomialFieldMatchesSerialReplay) {
    const Field f = Field::type2(163, 66);  // NIST B-163, pentanomial fold
    run_shared_field_hammer(f);
}

TEST(FieldConcurrency, SharedSingleWordFieldMatchesSerialReplay) {
    const Field f = Field::type2(64, 23);  // u64 fast path + u64 region layout
    run_shared_field_hammer(f);
}

// The multi-word inverse builds its squaring tables on the engine's first
// call.  Four threads released together make inv their first call on one
// fresh Field, so they race for that build; each thread's inverses must
// equal a serial replay on a second fresh Field, whose tables one thread
// built alone.
TEST(FieldConcurrency, FirstInverseRaceBuildsTablesOnce) {
    const Poly modulus = testutil::large_modulus(571);
    const auto inverses = [](const Field& f, std::uint64_t seed,
                             std::vector<std::uint64_t>& out) {
        Xorshift64Star rng{seed};
        for (int i = 0; i < 32; ++i) {
            out.push_back(checksum(f.inv(testutil::random_nonzero_element(f, rng))));
        }
    };

    const Field shared{modulus};
    std::vector<std::vector<std::uint64_t>> threaded(kThreads);
    {
        std::latch start{kThreads};
        std::vector<std::thread> workers;
        workers.reserve(kThreads);
        for (int t = 0; t < kThreads; ++t) {
            workers.emplace_back([&, t] {
                start.arrive_and_wait();
                inverses(shared, kSeedBase + t, threaded[t]);
            });
        }
        for (auto& w : workers) {
            w.join();
        }
    }
    const Field replay{modulus};
    for (int t = 0; t < kThreads; ++t) {
        std::vector<std::uint64_t> serial;
        inverses(replay, kSeedBase + t, serial);
        ASSERT_EQ(threaded[static_cast<std::size_t>(t)], serial) << "thread " << t;
    }
}

// The explicit-scratch API: each thread owns a FieldOps::Scratch and drives
// the raw engine directly (the pattern verify_multiplier uses), again judged
// against a serial replay with per-run scratch.
TEST(FieldConcurrency, ExplicitScratchEngineMatchesSerialReplay) {
    const Field f{testutil::large_modulus(409)};
    const auto& ops = f.ops();

    const auto engine_trace = [&](std::uint64_t seed, std::vector<std::uint64_t>& out) {
        FieldOps::Scratch scratch;  // owned by this run, never shared
        Xorshift64Star rng{seed};
        Poly result;
        out.reserve(kIters);
        for (int i = 0; i < kIters; ++i) {
            const Poly a = testutil::random_element(f, rng);
            const Poly b = testutil::random_nonzero_element(f, rng);
            switch (rng() % 3) {
                case 0:
                    ops.mul(a, b, result, scratch);
                    break;
                case 1:
                    ops.sqr(a, result, scratch);
                    break;
                default:
                    ops.inv(b, result, scratch);
                    break;
            }
            out.push_back(checksum(result));
        }
    };

    std::vector<std::vector<std::uint64_t>> threaded(kThreads);
    {
        std::vector<std::thread> workers;
        workers.reserve(kThreads);
        for (int t = 0; t < kThreads; ++t) {
            workers.emplace_back(
                [&engine_trace, t, &threaded] { engine_trace(kSeedBase ^ t, threaded[t]); });
        }
        for (auto& w : workers) {
            w.join();
        }
    }
    for (int t = 0; t < kThreads; ++t) {
        std::vector<std::uint64_t> serial;
        engine_trace(kSeedBase ^ t, serial);
        ASSERT_EQ(threaded[static_cast<std::size_t>(t)], serial) << "thread " << t;
    }
}

}  // namespace
}  // namespace gfr::field
