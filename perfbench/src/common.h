#ifndef GFR_PERFBENCH_COMMON_H
#define GFR_PERFBENCH_COMMON_H

// Shared pieces of the repository benchmark: the workload interface, the
// per-layer trace accumulator, seeded input generation and statistics.
//
// Measurement model (see perfbench/README.md): every workload is a closed
// loop with one caller on one thread.  A workload's pass is a fixed amount of
// work; main.cpp repeats passes for the requested number of seconds and
// reports medians of their times rescaled to a reference host speed.  End-to-end numbers come from untraced passes; per-layer
// numbers come from traced passes, whose spans are taken here, in the
// benchmark, around calls into each library layer's public functions.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// splitmix64: every seeded input of the benchmark is drawn from this.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : s_{seed} {}
    std::uint64_t next() {
        std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
        z = (z ^ (z >> 30U)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27U)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31U);
    }
    /// Uniform in [0, n), n >= 1.
    std::uint64_t below(std::uint64_t n) { return next() % n; }

private:
    std::uint64_t s_;
};

/// Per-layer accumulator of a traced pass: span seconds and counts, keyed by
/// the per-layer metric name.  Spans are leaf calls into one layer each, so
/// a span's duration is that layer's self time.
class Trace {
public:
    void add(const std::string& name, double value) { values_[name] += value; }
    void set(const std::string& name, double value) { values_[name] = value; }

    /// Run f(), add its duration to `name`, return its result.
    template <typename F>
    decltype(auto) span(const std::string& name, F&& f) {
        const auto t0 = Clock::now();
        struct Stop {
            Trace* trace;
            const std::string* name;
            Clock::time_point t0;
            ~Stop() { trace->add(*name, seconds_since(t0)); }
        } stop{this, &name, t0};
        return f();
    }

    [[nodiscard]] double get(const std::string& name) const {
        const auto it = values_.find(name);
        return it == values_.end() ? 0.0 : it->second;
    }

private:
    std::map<std::string, double> values_;
};

/// What one pass did.  Times are the timed sections only; known-answer
/// comparisons run between sections and are not counted.
struct PassStats {
    double pass_s = 0.0;    ///< everything the pass timed
    double part_a_s = 0.0;  ///< first half of the workload (see README)
    double part_b_s = 0.0;  ///< second half of the workload
    std::vector<double> op_ms;  ///< latencies behind op_p50_ms (scaled_ms)
    long ops = 0;
    long failed = 0;
    double speed = 1.0;  ///< host speed during the pass (see speed_checkpoint)
};

/// A named result printed in the report (workload-specific figures).
struct Figure {
    std::string name;
    double value = 0.0;
    std::string unit;
};

class Workload {
public:
    virtual ~Workload() = default;
    /// Fields and lazy state this workload needs; part of set-up time.
    virtual void set_up(Trace& setup_trace) = 0;
    /// Generate every input from the seed (untimed).
    virtual void make_inputs(std::uint64_t seed) = 0;
    /// One pass; `trace` is null on untraced passes.
    virtual PassStats pass(Trace* trace) = 0;
    /// Known-answer checks after the timed passes; returns failed checks.
    /// Appends one line per check to `log`.
    virtual long check(std::vector<std::string>& log) = 0;
    /// Workload-specific figures for the report.
    [[nodiscard]] virtual std::vector<Figure> figures() const = 0;
    /// Traced-run figures derived after the traced passes (ratios etc.).
    virtual void finish_trace(Trace& /*trace*/, int /*traced_passes*/) {}
};

std::unique_ptr<Workload> make_table5();
std::unique_ptr<Workload> make_verdict();
std::unique_ptr<Workload> make_rs();
std::unique_ptr<Workload> make_field();

/// Statistics over samples (copies; inputs need not be sorted).
double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);

/// FNV-1a over a byte string (digests of rendered tables and failure text).
std::uint64_t fnv1a(std::string_view s, std::uint64_t h = 0xCBF29CE484222325ULL);

/// Triggers every process-wide lazy initialisation the workloads reach:
/// bulk and exec dispatch (with their guard self-tests), the XAG database,
/// and thread-local field scratch.  Records bulk.dispatch_s and
/// exec.dispatch_s.
void warm_up(Trace& setup_trace);

/// Host-speed sampling.  On a shared host, other tenants' load slows the
/// same code by up to ~1.8x for tens of seconds at a time.  A fixed
/// vectorisable probe (benchmark code, L1-resident, throughput-bound like
/// the region and tape kernels) slows by the same factor, so every pass is
/// rescaled by (reference probe time / probe time during the pass).
/// Workloads call speed_checkpoint() between operations, outside timed
/// sections; it samples at most every 50 ms.
void speed_checkpoint();

/// Reference probe time over the median probe time sampled since the last
/// call (or the latest sample when none was taken); resets the samples.
double take_pass_speed();

/// An operation's latency in ms, rescaled by the latest probe sample.
double scaled_ms(double seconds);

/// The environment block: CPU, dispatched rungs, quarantines, GFR_*
/// overrides, build flags and compiler, as one JSON object.
std::string environment_json();

/// Every per-layer metric (name, unit), in report order.  A traced run
/// reports all of them; a layer the workload bypasses reads 0.
const std::vector<std::pair<std::string, std::string>>& layer_metrics();

}  // namespace pb

#endif  // GFR_PERFBENCH_COMMON_H
