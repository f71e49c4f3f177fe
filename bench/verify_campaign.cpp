// Verification campaign driver: the paper-style sweep plus the throughput
// ladders behind BENCH_9.json.
//
// Part 1 — Table V campaign: every generator family x every Table V field,
// each verified through the parallel campaign engine over the compiled
// execution layer (exhaustive where the operand space allows, random sweeps
// beyond), printed as a pass/fail + throughput table in the spirit of the
// paper's Table V.  argv[2] overrides the worker-thread count (the CI gate
// runs this with 2); any FAIL exits nonzero.
//
// Part 2 — exhaustive GF(2^8) ladder: all 2^16 products of the paper's
// worked field, swept per tape backend (scalar / AVX2 / AVX-512, whichever
// this build+CPU can run) x batching width {1, 4, 8, 16}, all at 1 thread.
//
// Part 3 — random-regime GF(2^163) ladder, same grid.
//
// Every ladder point measures CAMPAIGN EXECUTION on a prepared verifier:
// tape compilation and oracle anchoring are one-time setup, hoisted out of
// the timed region (the fixed ~13us m=8 compile would otherwise cap every
// per-op number regardless of how fast the sweeps get).  And every point is
// GATED on verdict correctness: the clean netlist must verify, and a
// fault-injected sibling must report a counterexample string byte-identical
// to the scalar width-1 reference — the measured configuration provably
// preserves both the verdict and the repro coordinates.  BENCH_9.json keeps
// the earlier speedups over the gate-by-gate interpreter paths and the older
// per-block campaign loop.

#include "exec/program.h"
#include "exec/run_kernels.h"
#include "field/field_catalog.h"
#include "multipliers/generator.h"
#include "multipliers/verify.h"
#include "netlist/clone.h"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <thread>
#include <vector>

namespace gfr {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct ThroughputPoint {
    std::string label;
    std::string backend;
    int width = 0;  ///< blocks per batched tape pass
    int threads = 1;
    double seconds = 0;
    double products_per_sec = 0;
    bool ok = false;               ///< clean netlist verified
    bool repro_invariant = false;  ///< faulted repro string == scalar w1
};

template <typename Fn>
ThroughputPoint measure(const std::string& label, double products, const Fn& run,
                        int repeats) {
    ThroughputPoint p;
    p.label = label;
    p.ok = true;
    double best = 1e100;
    for (int r = 0; r < repeats; ++r) {
        const auto t0 = Clock::now();
        p.ok = run() && p.ok;
        best = std::min(best, seconds_since(t0));
    }
    p.seconds = best;
    p.products_per_sec = products / best;
    return p;
}

/// A fault-injected sibling of `good` whose output `index` picks up an
/// extra XOR of input `input` — the fixture each measured configuration
/// must report with the same counterexample string as the scalar width-1
/// reference.
netlist::Netlist faulted_clone(const netlist::Netlist& good, std::size_t index,
                               std::size_t input) {
    return netlist::clone_netlist(
        good, {.intern = true}, nullptr,
        [&](std::size_t i, std::span<const netlist::NodeId> mapped,
            netlist::Netlist& dst) {
            return i == index ? dst.make_xor(mapped[i], dst.inputs()[input].node)
                              : mapped[i];
        });
}

/// Tape backends this build + CPU can execute, scalar first.
std::vector<exec::Backend> runnable_backends() {
    std::vector<exec::Backend> out;
    const auto cpu = bulk::detect_cpu();
    for (const exec::Backend b : exec::compiled_tape_backends()) {
        if (exec::backend_supported(b, cpu)) {
            out.push_back(b);
        }
    }
    return out;
}

struct LadderSpec {
    const netlist::Netlist* good = nullptr;
    const netlist::Netlist* bad = nullptr;
    const field::Field* field = nullptr;
    double products = 0;
    int repeats = 0;
    mult::VerifyOptions base_opts;  ///< threads/seed/sweeps pinned; width and
                                    ///< backend filled per point
};

/// One backend x width grid over `spec`, each point measured and then
/// gated: the clean verify must pass and the faulted sibling must reproduce
/// `want_repro` byte-for-byte.
std::vector<ThroughputPoint> run_ladder(const LadderSpec& spec,
                                        const std::string& want_repro) {
    std::vector<ThroughputPoint> points;
    for (const exec::Backend backend : runnable_backends()) {
        for (const int width : {1, 4, 8, 16}) {
            mult::VerifyOptions opts = spec.base_opts;
            opts.threads = 1;
            opts.max_batch_blocks = width;
            opts.exec_backend = backend;
            const std::string label =
                std::string{exec::backend_name(backend)} + "_w" +
                std::to_string(width);
            const mult::MultiplierVerifier good{*spec.good, *spec.field, opts};
            ThroughputPoint p = measure(
                label, spec.products, [&] { return !good.run().has_value(); },
                spec.repeats);
            p.backend = exec::backend_name(backend);
            p.width = width;
            const auto failure =
                mult::MultiplierVerifier{*spec.bad, *spec.field, opts}.run();
            p.repro_invariant =
                failure.has_value() && failure->to_string() == want_repro;
            points.push_back(std::move(p));
        }
    }
    return points;
}

/// The scalar width-1 counterexample string every measured point must
/// reproduce.
std::string reference_repro(const LadderSpec& spec) {
    mult::VerifyOptions opts = spec.base_opts;
    opts.threads = 1;
    opts.max_batch_blocks = 1;
    opts.exec_backend = exec::Backend::Scalar;
    const auto failure = mult::verify_multiplier(*spec.bad, *spec.field, opts);
    if (!failure.has_value()) {
        std::fprintf(stderr, "faulted fixture verified clean — bench is broken\n");
        std::exit(1);
    }
    return failure->to_string();
}

struct SweepRow {
    std::string method;
    std::string field;
    std::string regime;
    double products = 0;
    double seconds = 0;
    double products_per_sec = 0;
    bool pass = false;
};

void print_ladder(const char* title, const std::vector<ThroughputPoint>& ladder,
                  int repeats) {
    std::printf("\n%s (best of %d runs)\n", title, repeats);
    std::printf("%-22s %6s %12s %16s\n", "path", "width", "seconds", "products/s");
    for (const auto& p : ladder) {
        std::printf("%-22s %6d %12.6f %16.0f  %s%s\n", p.label.c_str(), p.width,
                    p.seconds, p.products_per_sec, p.ok ? "" : "(VERIFY FAILED) ",
                    p.repro_invariant ? "" : "(REPRO DRIFTED)");
    }
}

void json_ladder(std::FILE* json, const char* key, double products,
                 const std::vector<ThroughputPoint>& ladder) {
    std::fprintf(json, "  \"%s\": {\n", key);
    std::fprintf(json, "    \"products\": %.0f,\n", products);
    std::fprintf(json, "    \"paths\": [\n");
    for (std::size_t i = 0; i < ladder.size(); ++i) {
        const auto& p = ladder[i];
        std::fprintf(json,
                     "      {\"path\": \"%s\", \"backend\": \"%s\", \"width\": %d, "
                     "\"threads\": %d, \"seconds\": %.6f, "
                     "\"products_per_sec\": %.0f, "
                     "\"verdict_ok\": %s, \"repro_invariant\": %s}%s\n",
                     p.label.c_str(), p.backend.c_str(), p.width, p.threads,
                     p.seconds, p.products_per_sec, p.ok ? "true" : "false",
                     p.repro_invariant ? "true" : "false",
                     i + 1 < ladder.size() ? "," : "");
    }
    std::fprintf(json, "    ]\n  },\n");
}

}  // namespace
}  // namespace gfr

int main(int argc, char** argv) {
    using namespace gfr;
    const std::string json_path = (argc > 1) ? argv[1] : "BENCH_9.json";
    const int thread_override = (argc > 2) ? std::atoi(argv[2]) : 0;
    const int hw = static_cast<int>(std::max(1U, std::thread::hardware_concurrency()));

    // --- Part 1: generator family x Table V field campaign ------------------
    std::vector<SweepRow> rows;
    std::printf("Table V verification campaign (compiled tapes, %s threads)\n",
                thread_override > 0 ? std::to_string(thread_override).c_str()
                                    : "auto");
    std::printf("%-14s %-12s %-11s %12s %10s %14s  %s\n", "method", "field", "regime",
                "products", "seconds", "products/s", "verdict");
    for (const auto& info : mult::all_methods()) {
        for (const auto& spec : field::table5_fields()) {
            const field::Field fld = spec.make();
            const auto nl = mult::build_multiplier(info.method, fld);
            mult::VerifyOptions opts;
            opts.threads = thread_override;
            const bool exhaustive = 2 * fld.degree() <= opts.max_exhaustive_inputs;
            const double products =
                exhaustive ? static_cast<double>(std::uint64_t{1} << (2 * fld.degree()))
                           : 64.0 * opts.random_sweeps;
            const auto t0 = Clock::now();
            const auto failure = mult::verify_multiplier(nl, fld, opts);
            const double secs = seconds_since(t0);
            SweepRow row;
            row.method = std::string{info.key};
            row.field = spec.label();
            row.regime = exhaustive ? "exhaustive" : "random";
            row.products = products;
            row.seconds = secs;
            row.products_per_sec = products / secs;
            row.pass = !failure.has_value();
            rows.push_back(row);
            std::printf("%-14s %-12s %-11s %12.0f %10.4f %14.0f  %s\n",
                        row.method.c_str(), row.field.c_str(), row.regime.c_str(),
                        row.products, row.seconds, row.products_per_sec,
                        row.pass ? "PASS" : "FAIL");
        }
    }

    // --- Part 2: exhaustive GF(2^8) backend x width ladder ------------------
    const field::Field gf256 = field::gf256_paper_field();
    const auto nl8 = mult::build_multiplier(mult::Method::Date2018Flat, gf256);
    const auto bad8 = faulted_clone(nl8, 5, 2);
    constexpr int kRepeats8 = 21;

    LadderSpec spec8;
    spec8.good = &nl8;
    spec8.bad = &bad8;
    spec8.field = &gf256;
    spec8.products = 65536.0;
    spec8.repeats = kRepeats8;
    const std::string repro8 = reference_repro(spec8);

    const std::vector<ThroughputPoint> ladder8 = run_ladder(spec8, repro8);
    print_ladder("Exhaustive GF(2^8) space: 65536 products", ladder8, kRepeats8);

    // --- Part 3: random-regime GF(2^163) backend x width ladder -------------
    const field::Field gf163 = field::Field::type2(163, 68);
    const auto nl163 = mult::build_multiplier(mult::Method::Date2018Flat, gf163);
    const auto bad163 = faulted_clone(nl163, 56, 3);
    const exec::Program prog163 = exec::Program::compile(nl163);
    const auto stats163 = prog163.stats();
    constexpr int kSweeps163 = 256;
    constexpr int kRepeats163 = 5;

    LadderSpec spec163;
    spec163.good = &nl163;
    spec163.bad = &bad163;
    spec163.field = &gf163;
    spec163.products = 64.0 * kSweeps163;
    spec163.repeats = kRepeats163;
    spec163.base_opts.random_sweeps = kSweeps163;
    spec163.base_opts.seed = 0xD1CEULL;
    const std::string repro163 = reference_repro(spec163);

    const std::vector<ThroughputPoint> ladder163 = run_ladder(spec163, repro163);
    print_ladder("Random-regime GF(2^163): 16384 products", ladder163,
                 kRepeats163);
    std::printf(
        "m=163 tape: %zu source nodes -> %zu instructions "
        "(%zu fused ANDs), working set %u slots\n",
        stats163.source_nodes, stats163.instructions, stats163.fused_ands,
        stats163.slots);

    // --- JSON ----------------------------------------------------------------
    std::FILE* json = std::fopen(json_path.c_str(), "w");
    if (json == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
        return 1;
    }
    std::fprintf(json, "{\n  \"schema\": \"gfr-bench-v9\",\n");
    std::fprintf(json, "  \"hardware_concurrency\": %d,\n", hw);
    json_ladder(json, "verify_exhaustive_m8", spec8.products, ladder8);
    json_ladder(json, "verify_random_m163", spec163.products, ladder163);
    std::fprintf(json,
                 "  \"exec_tape_m163\": {\"source_nodes\": %zu, \"instructions\": "
                 "%zu, \"fused_ands\": %zu, \"slots\": %u},\n",
                 stats163.source_nodes, stats163.instructions, stats163.fused_ands,
                 stats163.slots);
    std::fprintf(json, "  \"table5_campaign\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto& r = rows[i];
        std::fprintf(json,
                     "    {\"method\": \"%s\", \"field\": \"%s\", \"regime\": \"%s\", "
                     "\"products\": %.0f, \"seconds\": %.6f, \"products_per_sec\": "
                     "%.0f, \"pass\": %s}%s\n",
                     r.method.c_str(), r.field.c_str(), r.regime.c_str(), r.products,
                     r.seconds, r.products_per_sec, r.pass ? "true" : "false",
                     i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("\nwrote %s\n", json_path.c_str());

    for (const auto& r : rows) {
        if (!r.pass) {
            return 1;
        }
    }
    for (const auto* ladder : {&ladder8, &ladder163}) {
        for (const auto& p : *ladder) {
            if (!p.ok || !p.repro_invariant) {
                return 1;
            }
        }
    }
    return 0;
}
