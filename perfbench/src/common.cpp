#include "common.h"

#include "acv/acv.h"
#include "bulk/cpu.h"
#include "bulk/kernels.h"
#include "exec/run_kernels.h"
#include "field/field_catalog.h"
#include "fpga/flow.h"
#include "guard/exec_check.h"
#include "guard/kernel_check.h"
#include "multipliers/generator.h"
#include "multipliers/verify.h"
#include "rs/codec.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <span>
#include <thread>

extern char** environ;

namespace pb {

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::uint64_t fnv1a(std::string_view s, std::uint64_t h) {
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001B3ULL;
    }
    return h;
}

namespace {

/// Probe time on a quiet host when this benchmark was defined (4-vCPU VM,
/// gcc 12, Release).  Only a scale: normalised times read in seconds at
/// that host speed.
constexpr double kProbeReference = 120e-6;

double run_probe() {
    static std::vector<std::uint64_t> a(4096, 1);
    static std::vector<std::uint64_t> b(4096, 3);
    const auto t0 = Clock::now();
    for (int r = 0; r < 50; ++r) {
        for (std::size_t i = 0; i < a.size(); ++i) {
            a[i] = ((a[i] ^ (a[i] >> 7)) * 0x9E3779B97F4A7C15ULL) + b[i];
        }
    }
    static volatile std::uint64_t sink;
    sink = a[17];
    return seconds_since(t0);
}

struct SpeedSamples {
    Clock::time_point last{};
    bool any = false;
    double latest = kProbeReference;
    std::vector<double> since_take;
};

SpeedSamples& speed_samples() {
    static SpeedSamples s;
    return s;
}

}  // namespace

void speed_checkpoint() {
    SpeedSamples& s = speed_samples();
    if (s.any && Clock::now() - s.last < std::chrono::milliseconds(50)) {
        return;
    }
    s.latest = run_probe();
    s.since_take.push_back(s.latest);
    s.last = Clock::now();
    s.any = true;
}

double take_pass_speed() {
    SpeedSamples& s = speed_samples();
    const double probe = s.since_take.empty() ? s.latest : median(s.since_take);
    s.since_take.clear();
    return kProbeReference / probe;
}

double scaled_ms(double seconds) {
    return seconds * 1e3 * kProbeReference / speed_samples().latest;
}

void warm_up(Trace& setup_trace) {
    using namespace gfr;
    setup_trace.span("bulk.dispatch_s", [] { (void)bulk::dispatch(); });
    setup_trace.span("exec.dispatch_s", [] { (void)exec::dispatch(); });

    // One small instance of every workflow: builds the XAG database, sizes
    // thread-local tape and field scratch, and touches every code path once.
    const field::Field f = field::gf256_paper_field();
    const netlist::Netlist nl = mult::build_multiplier(
        mult::Method::Date2018Flat, f, mult::Elaboration::Literal);
    opt::OptOptions opt_options;
    opt_options.verify.threads = 1;
    mult::VerifyOptions verify_options;
    verify_options.threads = 1;
    (void)mult::optimize_and_verify(nl, f, opt_options, verify_options);
    (void)acv::prove_multiplier(nl, f, acv::ProveOptions{.threads = 1});
    fpga::FlowOptions flow;
    flow.synthesis_freedom = true;
    (void)fpga::run_flow(nl, flow);

    const rs::Codec codec{f.ops(), 14, 10};
    std::vector<std::vector<std::uint8_t>> shards(14, std::vector<std::uint8_t>(64, 1));
    std::vector<std::span<const std::uint8_t>> data(shards.begin(), shards.begin() + 10);
    std::vector<std::span<std::uint8_t>> parity(shards.begin() + 10, shards.end());
    codec.encode(data, parity);
}

namespace {

std::string json_str(std::string_view s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

const char* b(bool v) { return v ? "true" : "false"; }

}  // namespace

std::string environment_json() {
    using namespace gfr;
    const bulk::CpuFeatures cpu = bulk::detect_cpu();
    const bulk::Dispatch& bd = bulk::dispatch();
    const exec::ExecDispatch& ed = exec::dispatch();

    std::string quarantined = "[";
    for (const auto& q : guard::quarantine_report()) {
        quarantined += (quarantined.size() > 1 ? ", " : "") + json_str(q.to_string());
    }
    for (const auto& q : guard::exec_quarantine_report()) {
        quarantined += (quarantined.size() > 1 ? ", " : "") + json_str(q.to_string());
    }
    quarantined += "]";

    std::string overrides = "{";
    for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
        const std::string_view kv{*e};
        if (kv.rfind("GFR_", 0) != 0) {
            continue;
        }
        const auto eq = kv.find('=');
        overrides += (overrides.size() > 1 ? ", " : "") +
                     json_str(kv.substr(0, eq)) + ": " +
                     json_str(eq == std::string_view::npos ? "" : kv.substr(eq + 1));
    }
    overrides += "}";

#ifdef GFR_USE_PCLMUL
    const bool pclmul_build = true;
#else
    const bool pclmul_build = false;
#endif

    char buf[1024];
    std::snprintf(
        buf, sizeof buf,
        "{\"hardware_concurrency\": %u, "
        "\"cpu\": {\"ssse3\": %s, \"avx2\": %s, \"pclmul\": %s, \"vpclmulqdq\": %s, "
        "\"gfni\": %s, \"avx512f\": %s}, "
        "\"bulk_byte_kernel\": \"%s\", \"bulk_word_kernel\": \"%s\", "
        "\"bulk_forced_scalar\": %s, \"exec_backend\": \"%s\", "
        "\"exec_forced_scalar\": %s, ",
        std::thread::hardware_concurrency(), b(cpu.ssse3), b(cpu.avx2),
        b(cpu.pclmul), b(cpu.vpclmulqdq), b(cpu.gfni), b(cpu.avx512f),
        bulk::kernel_name(bd.byte->kind),
        bd.word != nullptr ? bulk::kernel_name(bd.word->kind) : "window-walk",
        b(bd.forced_scalar), exec::backend_name(ed.kernel->backend),
        b(ed.forced_scalar));
    std::string out = buf;
    out += "\"quarantined\": " + quarantined + ", \"overrides\": " + overrides;
    std::snprintf(buf, sizeof buf,
                  ", \"build\": {\"pclmul\": %s, \"pclmul_option\": %s, "
                  "\"portable_only\": %s, \"build_type\": %s, \"compiler\": %s}}",
                  b(pclmul_build), b(GFR_PB_ENABLE_PCLMUL != 0),
                  b(GFR_PB_PORTABLE_ONLY != 0), json_str(GFR_PB_BUILD_TYPE).c_str(),
                  json_str(__VERSION__).c_str());
    return out + buf;
}

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
    static const std::vector<std::pair<std::string, std::string>> metrics = [] {
        std::vector<std::pair<std::string, std::string>> v = {
            // set-up and tracing (every workload)
            {"bulk.dispatch_s", "s"},
            {"exec.dispatch_s", "s"},
            {"field.construct_s", "s"},
            {"trace.overhead_s", "s"},
            {"trace.unattributed_s", "s"},
            // table5
            {"multipliers.build_s", "s"},
            {"netlist.dce_s", "s"},
            {"netlist.synthesize_s", "s"},
            {"netlist.synth_calls", "count"},
            {"fpga.map_s", "s"},
            {"fpga.map_calls", "count"},
            {"fpga.pack_s", "s"},
            {"fpga.timing_s", "s"},
            {"fpga.replay_match", "bool"},
            {"fpga.search_useful_ratio", "ratio"},
        };
        for (int s = 0; s < 6; ++s) {
            v.emplace_back("fpga.strategy_wins." + std::to_string(s), "count");
        }
        for (const char* name :
             {"verify.prepare_s", "verify.run_s", "exec.compile_s", "acv.prove_s",
              "acv.reject_s", "opt.passes_s", "opt.gate_check_s"}) {
            v.emplace_back(name, "s");
        }
        for (const char* name :
             {"verify.products", "exec.instructions", "acv.expansion_events"}) {
            v.emplace_back(name, "count");
        }
        v.emplace_back("acv.peak_monomials", "monomials");  // max over the pass
        for (const char* pass : {"strash", "restructure", "rewrite", "reduce"}) {
            v.emplace_back(std::string{"opt.gates_removed."} + pass, "count");
        }
        v.emplace_back("rs.encode_s", "s");
        v.emplace_back("rs.decode_s", "s");
        v.emplace_back("bulk.bytes", "bytes");
        v.emplace_back("bulk.addmul_gbps", "GB/s");
        v.emplace_back("bulk.prepare_us", "us");
        v.emplace_back("rs.invert_us", "us");
        for (const char* kind : {"mul_ns", "sqr_ns", "inv_ns", "mul_calls", "inv_calls"}) {
            const bool count = std::strstr(kind, "calls") != nullptr;
            for (const int m : gfr::field::nist_ecdsa_degrees()) {
                v.emplace_back(std::string{"field."} + kind + "." + std::to_string(m),
                               count ? "count" : "ns");
            }
        }
        return v;
    }();
    return metrics;
}

}  // namespace pb
