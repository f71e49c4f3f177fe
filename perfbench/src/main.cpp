// gfr_perfbench — one workload of the repository benchmark per invocation.
//
//   gfr_perfbench --workload <table5|verdict|rs|field> --seed <n>
//                 --seconds <s> --trace <0|1> [--setup-only]
//
// Prints a human-readable report (every figure by name with its unit), the
// environment block, and as its last line one JSON object with the keys
// correct / attempted / failed / metrics.  Untraced runs report the
// end-to-end metrics; traced runs spend half the budget untraced and half
// traced and report the per-layer metrics plus the tracing overhead.
// --setup-only stops after set-up and prints the host-speed factor (the
// runner times those processes for setup_s).  Exit status is nonzero when any known-answer check fails.

#include "common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

namespace {

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool setup_only = false;
};

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "gfr_perfbench: %s\nusage: gfr_perfbench --workload "
                 "<table5|verdict|rs|field> --seed <n> --seconds <s> --trace <0|1> "
                 "[--setup-only]\n",
                 why);
    std::exit(2);
}

Args parse(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (key == "--setup-only") {
            a.setup_only = true;
            continue;
        }
        if (i + 1 >= argc) {
            usage(("missing value for " + key).c_str());
        }
        const char* value = argv[++i];
        if (key == "--workload") {
            a.workload = value;
        } else if (key == "--seed") {
            a.seed = std::strtoull(value, nullptr, 10);
        } else if (key == "--seconds") {
            a.seconds = std::strtod(value, nullptr);
        } else if (key == "--trace") {
            a.trace = std::strcmp(value, "0") != 0;
        } else {
            usage(("unknown option " + key).c_str());
        }
    }
    if (a.seconds <= 0.0) {
        usage("--seconds must be positive");
    }
    return a;
}

std::unique_ptr<pb::Workload> make(const std::string& name) {
    if (name == "table5") return pb::make_table5();
    if (name == "verdict") return pb::make_verdict();
    if (name == "rs") return pb::make_rs();
    if (name == "field") return pb::make_field();
    usage(("unknown workload '" + name + "'").c_str());
}

struct Loop {
    std::vector<pb::PassStats> passes;
    long ops = 0;
    long failed = 0;
};

/// Repeat passes until the budget is spent; the last pass may overrun it.
Loop run_loop(pb::Workload& w, double budget, pb::Trace* trace) {
    Loop loop;
    const auto t0 = pb::Clock::now();
    do {
        pb::speed_checkpoint();
        loop.passes.push_back(w.pass(trace));
        loop.passes.back().speed = pb::take_pass_speed();
        loop.ops += loop.passes.back().ops;
        loop.failed += loop.passes.back().failed;
    } while (pb::seconds_since(t0) < budget);
    return loop;
}

/// One timing per pass, rescaled to the reference host speed.
std::vector<double> field_of(const Loop& loop, double pb::PassStats::*member) {
    std::vector<double> v;
    for (const auto& p : loop.passes) {
        v.push_back(p.*member * p.speed);
    }
    return v;
}

std::string num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

}  // namespace

int main(int argc, char** argv) {
    const Args args = parse(argc, argv);
    try {
        const auto t_start = pb::Clock::now();
        auto workload = make(args.workload);
        pb::Trace setup_trace;
        pb::warm_up(setup_trace);
        workload->set_up(setup_trace);
        const double setup_s = pb::seconds_since(t_start);
        if (args.setup_only) {
            pb::speed_checkpoint();
            std::printf("{\"setup_in_process_s\": %s, \"speed\": %s}\n",
                        num(setup_s).c_str(), num(pb::take_pass_speed()).c_str());
            return 0;
        }

        workload->make_inputs(args.seed);
        const double budget = args.trace ? args.seconds / 2.0 : args.seconds;
        const Loop plain = run_loop(*workload, budget, nullptr);
        pb::Trace trace;
        Loop traced;
        if (args.trace) {
            traced = run_loop(*workload, budget, &trace);
        }

        std::vector<std::string> log;
        const long failed_checks = workload->check(log);
        const long attempted = plain.ops + traced.ops;
        const long failed = plain.failed + traced.failed + failed_checks;
        const bool correct = failed == 0;

        std::printf("workload %s seed %llu passes %zu traced_passes %zu\n",
                    args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                    plain.passes.size(), traced.passes.size());
        std::printf("environment %s\n", pb::environment_json().c_str());
        for (const auto& line : log) {
            std::printf("check %s\n", line.c_str());
        }
        std::printf("figure setup_in_process_s = %s s\n", num(setup_s).c_str());
        for (const auto& f : workload->figures()) {
            std::printf("figure %s = %s %s\n", f.name.c_str(), num(f.value).c_str(),
                        f.unit.c_str());
        }

        std::vector<double> ops;
        std::vector<double> raw_pass;
        std::vector<double> speed;
        for (const auto& p : plain.passes) {
            ops.insert(ops.end(), p.op_ms.begin(), p.op_ms.end());
            raw_pass.push_back(p.pass_s);
            speed.push_back(p.speed);
        }
        const double pass_s = pb::median(field_of(plain, &pb::PassStats::pass_s));
        std::printf("figure pass_raw_s = %s s\n", num(pb::median(raw_pass)).c_str());
        std::printf("figure host_speed = %s x\n", num(pb::median(speed)).c_str());

        std::string metrics;
        const auto emit = [&](const std::string& name, double value, const char* unit) {
            std::printf("metric %s = %s %s\n", name.c_str(), num(value).c_str(), unit);
            metrics += (metrics.empty() ? "" : ", ") + ("\"" + name + "\": {\"value\": ") +
                       num(value) + ", \"unit\": \"" + unit + "\"}";
        };
        if (!args.trace) {
            emit("pass_s", pass_s, "s");
            emit("part_a_s", pb::median(field_of(plain, &pb::PassStats::part_a_s)), "s");
            emit("part_b_s", pb::median(field_of(plain, &pb::PassStats::part_b_s)), "s");
            emit("op_p50_ms", pb::median(ops), "ms");
        } else {
            const auto n = static_cast<double>(traced.passes.size());
            workload->finish_trace(trace, static_cast<int>(traced.passes.size()));
            trace.set("trace.overhead_s",
                      pb::median(field_of(traced, &pb::PassStats::pass_s)) - pass_s);
            // Pass-accumulated totals are reported per traced pass; set-up
            // figures and the tracing overhead are per run.
            for (const auto& [name, unit] : pb::layer_metrics()) {
                const bool from_setup = name == "bulk.dispatch_s" ||
                                        name == "exec.dispatch_s" ||
                                        name == "field.construct_s";
                const bool additive = unit == "s" || unit == "count" || unit == "bytes";
                double v = from_setup ? setup_trace.get(name) : trace.get(name);
                if (additive && !from_setup && name != "trace.overhead_s") {
                    v /= n;
                }
                emit(name, v, unit.c_str());
            }
        }
        std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                    "\"metrics\": {%s}}\n",
                    correct ? "true" : "false", attempted, failed, metrics.c_str());
        return correct ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "gfr_perfbench: %s\n", e.what());
        return 1;
    }
}
