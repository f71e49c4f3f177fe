#ifndef GFR_BENCH_HARNESS_H
#define GFR_BENCH_HARNESS_H

// Timing and report lines for the bench programs that measure rather than
// reproduce a paper table.  Lines use perfbench's report format:
//
//   figure <name> = <value> <unit>
//   check <name> ok|FAILED
//
// A program returns exit_status() from main: nonzero when any check failed.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace gfr::bench {

/// Seconds per call of the timed function over the timed batches.
struct Timing {
    double median_s = 0;
    double min_s = 0;
};

/// Times fn(): the warmup doubles a batch of calls until one batch takes
/// 10 ms, then kRepeats batches of that size are timed.
template <typename Fn>
Timing time_call(const Fn& fn) {
    constexpr int kRepeats = 9;
    using Clock = std::chrono::steady_clock;
    const auto batch_s = [&](long calls) {
        const auto t0 = Clock::now();
        for (long i = 0; i < calls; ++i) {
            fn();
        }
        return std::chrono::duration<double>(Clock::now() - t0).count();
    };
    long calls = 1;
    while (batch_s(calls) < 0.01) {
        calls *= 2;
    }
    std::vector<double> per_call;
    for (int r = 0; r < kRepeats; ++r) {
        per_call.push_back(batch_s(calls) / static_cast<double>(calls));
    }
    std::sort(per_call.begin(), per_call.end());
    return {per_call[kRepeats / 2], per_call.front()};
}

inline void figure(const std::string& name, double value, const char* unit) {
    std::printf("figure %s = %.9g %s\n", name.c_str(), value, unit);
}

/// `<name>` is `work` per call at the median time, `<name>.peak` at the
/// minimum.
inline void figure_rate(const std::string& name, double work, const Timing& t,
                        const char* unit) {
    figure(name, work / t.median_s, unit);
    figure(name + ".peak", work / t.min_s, unit);
}

/// `<name>` is the median time per call in ns, `<name>.min` the minimum.
inline void figure_ns(const std::string& name, const Timing& t) {
    figure(name, t.median_s * 1e9, "ns");
    figure(name + ".min", t.min_s * 1e9, "ns");
}

inline int failed_checks = 0;

inline bool check(const std::string& name, bool ok) {
    std::printf("check %s %s\n", name.c_str(), ok ? "ok" : "FAILED");
    failed_checks += ok ? 0 : 1;
    return ok;
}

inline int exit_status() { return failed_checks == 0 ? 0 : 1; }

}  // namespace gfr::bench

#endif  // GFR_BENCH_HARNESS_H
