// Region-kernel throughput ladder behind BENCH_6.json — single core, per-op
// wins only (the container the acceptance numbers are recorded on has one
// core; thread scaling is a non-goal here).
//
// The acceptance metric is GF(2^8) *region-encode* throughput: the
// multiply-accumulate dst[i] ^= c * src[i] that systematic Reed-Solomon
// encoding performs per generator coefficient per stripe.  The baseline is
// the frozen PR-4 path — per-constant 4-bit window tables walked one u64
// element at a time (ConstMultiplier as it stood before the bulk
// subsystem), composed into an encode exactly the way the PR-4 RS example
// composed it (dst[i] ^= cm.mul(src[i])).  Against it: every bulk kernel
// compiled into this binary that the running CPU supports, each
// differentially checked against the scalar kernel before its number is
// recorded.  The bar: dispatched kernel >= 3x baseline symbols/s at one
// thread.
//
// Also recorded: pure region scale (mul, no accumulate) for GF(2^8) and
// GF(2^64), the u64-layout ladder on GF(2^64) (VPCLMULQDQ wide kernel),
// the multi-word m=163 region path against the Poly-element loop that
// was the only option before PR 5, and the ABFT checked-encode overhead
// (checksum lanes through the checked region ops, bar <= 15% at GF(2^8)).

#include "bulk/kernels.h"
#include "bulk/region_engine.h"
#include "field/field_catalog.h"
#include "field/field_ops.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace gfr {
namespace {

using Clock = std::chrono::steady_clock;

/// Seconds per iteration of fn, repeated until >= 0.15 s total.
double time_it(const std::function<void()>& fn) {
    fn();  // warmup
    int iters = 1;
    for (;;) {
        const auto t0 = Clock::now();
        for (int i = 0; i < iters; ++i) {
            fn();
        }
        const double secs =
            std::chrono::duration<double>(Clock::now() - t0).count();
        if (secs >= 0.15) {
            return secs / iters;
        }
        iters = (secs <= 0.0) ? iters * 8
                              : static_cast<int>(static_cast<double>(iters) *
                                                 (0.2 / secs)) +
                                    1;
    }
}

/// The PR-4 ConstMultiplier, frozen verbatim (window build and element
/// walk byte-for-byte as before the bulk dispatch), so BENCH_5 speedups
/// stay anchored to the same baseline over time.
class FrozenConstMultiplier {
public:
    FrozenConstMultiplier(const field::FieldOps& ops, std::uint64_t c) {
        c_ = ops.reduce(0, c);
        windows_ = (ops.degree() + 3) / 4;
        table_.assign(static_cast<std::size_t>(windows_) * 16, 0);
        for (int w = 0; w < windows_; ++w) {
            for (std::uint64_t v = 1; v < 16; ++v) {
                table_[static_cast<std::size_t>(w) * 16 + v] =
                    ops.mul(c_, ops.reduce(0, v << (4 * w)));
            }
        }
    }

    [[nodiscard]] std::uint64_t mul(std::uint64_t a) const noexcept {
        std::uint64_t acc = 0;
        const std::uint64_t* t = table_.data();
        for (int w = 0; w < windows_; ++w, t += 16) {
            acc ^= t[(a >> (4 * w)) & 0xF];
        }
        return acc;
    }

    void mul_region(std::span<const std::uint64_t> in,
                    std::span<std::uint64_t> out) const {
        for (std::size_t i = 0; i < in.size(); ++i) {
            out[i] = mul(in[i]);
        }
    }

private:
    std::uint64_t c_ = 0;
    int windows_ = 0;
    std::vector<std::uint64_t> table_;
};

constexpr std::size_t kSymbols = 1 << 16;  // 64 Ki symbols per region pass

struct PathResult {
    std::string kernel;
    std::string layout;
    double symbols_per_sec = 0;
    double gb_per_sec = 0;
    double speedup = 0;
    bool bit_identical = true;
};

std::uint64_t g_sink = 0;  // defeats dead-code elimination

void emit_paths(std::FILE* out, const std::vector<PathResult>& paths) {
    for (std::size_t i = 0; i < paths.size(); ++i) {
        std::fprintf(out,
                     "      {\"kernel\": \"%s\", \"layout\": \"%s\", "
                     "\"symbols_per_sec\": %.0f, \"gb_per_sec\": %.3f, "
                     "\"speedup_vs_baseline\": %.2f, \"bit_identical\": %s}%s\n",
                     paths[i].kernel.c_str(), paths[i].layout.c_str(),
                     paths[i].symbols_per_sec, paths[i].gb_per_sec,
                     paths[i].speedup, paths[i].bit_identical ? "true" : "false",
                     i + 1 < paths.size() ? "," : "");
    }
}

/// Kernel kinds compiled into this binary and runnable on this CPU, in
/// compiled order: Scalar, then the ladder's rungs worst first.
template <class Kernel>
std::vector<bulk::KernelKind> runnable(
    const guard::Ladder<bulk::KernelKind, Kernel>& ladder) {
    std::vector<bulk::KernelKind> out = ladder.runnable(bulk::detect_cpu());
    out.push_back(bulk::KernelKind::Scalar);
    std::reverse(out.begin(), out.end());
    return out;
}

}  // namespace
}  // namespace gfr

int main(int argc, char** argv) {
    using namespace gfr;
    const char* out_path = argc > 1 ? argv[1] : "BENCH_6.json";

    std::printf("== bulk region kernel throughput (1 thread) ==\n");

    // ---- GF(2^8): the acceptance field --------------------------------------
    const field::Field f8 = field::gf256_paper_field();
    const std::uint64_t c8 = 0xC3;

    std::vector<std::uint64_t> src64(kSymbols);
    std::vector<std::uint64_t> dst64(kSymbols, 0);
    for (std::size_t i = 0; i < kSymbols; ++i) {
        src64[i] = (i * 73 + 11) & 0xFF;
    }
    std::vector<std::uint8_t> src8(kSymbols);
    std::vector<std::uint8_t> dst8(kSymbols, 0);
    for (std::size_t i = 0; i < kSymbols; ++i) {
        src8[i] = static_cast<std::uint8_t>(src64[i]);
    }

    // Baseline: frozen PR-4 window walk composed as the PR-4 RS example
    // composed its encode inner loop (element-wise accumulate).
    const FrozenConstMultiplier frozen8{f8.ops(), c8};
    const double base8_secs = time_it([&] {
        for (std::size_t i = 0; i < kSymbols; ++i) {
            dst64[i] ^= frozen8.mul(src64[i]);
        }
        g_sink ^= dst64[kSymbols - 1];
    });
    const double base8_sps = static_cast<double>(kSymbols) / base8_secs;
    std::printf("GF(2^8) encode baseline (PR-4 window walk, u64): %.0fM sym/s\n",
                base8_sps / 1e6);

    // Scalar-kernel reference parity block for the bit-identity checks.
    const bulk::RegionEngine eng8_scalar{f8.ops(), bulk::KernelKind::Scalar};
    const auto prep8_scalar = eng8_scalar.prepare(c8);
    std::vector<std::uint8_t> ref8(kSymbols, 0);
    eng8_scalar.addmul_region(prep8_scalar, src8, ref8);

    std::vector<PathResult> enc8_paths;
    double dispatched8_speedup = 0;
    std::string dispatched8_kernel;
    for (const auto kind : runnable(bulk::kByteLadder)) {
        const bulk::RegionEngine eng{f8.ops(), kind};
        const auto prep = eng.prepare(c8);
        std::vector<std::uint8_t> acc(kSymbols, 0);
        eng.addmul_region(prep, src8, acc);
        const bool identical = acc == ref8;
        const double secs = time_it([&] {
            eng.addmul_region(prep, src8, acc);
            g_sink ^= acc[kSymbols - 1];
        });
        PathResult r;
        r.kernel = bulk::kernel_name(kind);
        r.layout = "byte";
        r.symbols_per_sec = static_cast<double>(kSymbols) / secs;
        r.gb_per_sec = r.symbols_per_sec / 1e9;  // 1 byte per symbol
        r.speedup = r.symbols_per_sec / base8_sps;
        r.bit_identical = identical;
        enc8_paths.push_back(r);
        std::printf("GF(2^8) encode %-7s (byte): %8.0fM sym/s  %6.2f GB/s  %5.1fx  %s\n",
                    r.kernel.c_str(), r.symbols_per_sec / 1e6, r.gb_per_sec,
                    r.speedup, identical ? "bit-identical" : "MISMATCH");
    }
    {
        // What the auto dispatch actually picks (the acceptance number).
        const bulk::RegionEngine eng{f8.ops()};
        dispatched8_kernel = bulk::kernel_name(eng.byte_kernel_kind());
        for (const auto& r : enc8_paths) {
            if (r.kernel == dispatched8_kernel) {
                dispatched8_speedup = r.speedup;
            }
        }
    }
    const bool acceptance_met = dispatched8_speedup >= 3.0;
    std::printf("dispatched GF(2^8) kernel: %s -> %.1fx vs PR-4 baseline (bar 3x): %s\n",
                dispatched8_kernel.c_str(), dispatched8_speedup,
                acceptance_met ? "MET" : "NOT MET");

    // Pure region scale (mul, no accumulate), frozen mul_region baseline.
    std::vector<PathResult> scale8_paths;
    const double base8_scale_secs = time_it([&] {
        frozen8.mul_region(src64, dst64);
        g_sink ^= dst64[0];
    });
    const double base8_scale_sps = static_cast<double>(kSymbols) / base8_scale_secs;
    eng8_scalar.mul_region(prep8_scalar, src8, ref8);
    for (const auto kind : runnable(bulk::kByteLadder)) {
        const bulk::RegionEngine eng{f8.ops(), kind};
        const auto prep = eng.prepare(c8);
        std::vector<std::uint8_t> out(kSymbols, 0);
        eng.mul_region(prep, src8, out);
        const bool identical = out == ref8;
        const double secs = time_it([&] {
            eng.mul_region(prep, src8, out);
            g_sink ^= out[kSymbols - 1];
        });
        PathResult r;
        r.kernel = bulk::kernel_name(kind);
        r.layout = "byte";
        r.symbols_per_sec = static_cast<double>(kSymbols) / secs;
        r.gb_per_sec = r.symbols_per_sec / 1e9;
        r.speedup = r.symbols_per_sec / base8_scale_sps;
        r.bit_identical = identical;
        scale8_paths.push_back(r);
    }

    // ---- GF(2^8) ABFT checked-encode overhead -------------------------------
    // One systematic-RS feed step over a kSymbols-wide stripe: feedback XOR
    // plus 32 constant multiply-accumulates, measured plain and through the
    // checked region ops that maintain one checksum symbol per stripe.  The
    // checked path adds the O(n) ingest fold plus one O(1) scalar multiply
    // per region op; the bar is <= 15% overhead on the dispatched kernel.
    const bulk::RegionEngine eng8_auto{f8.ops()};
    constexpr int kFeedTaps = 32;
    std::vector<bulk::RegionEngine::Prepared> feed_prep;
    feed_prep.reserve(kFeedTaps);
    for (int j = 0; j < kFeedTaps; ++j) {
        feed_prep.push_back(
            eng8_auto.prepare(static_cast<std::uint64_t>((j * 7 + 3) | 1) & 0xFF));
    }
    const auto one8 = eng8_auto.prepare(std::uint64_t{1});
    // Separate register banks per path: a plain pass over the checked bank
    // would silently stale its checksum lane.
    std::vector<std::vector<std::uint8_t>> plain_reg(
        kFeedTaps, std::vector<std::uint8_t>(kSymbols, 0));
    std::vector<std::vector<std::uint8_t>> checked_reg(
        kFeedTaps, std::vector<std::uint8_t>(kSymbols, 0));
    std::vector<std::uint64_t> feed_sum(kFeedTaps, 0);
    std::vector<std::uint8_t> feed_fb(kSymbols);
    const auto feed_plain = [&] {
        std::copy(src8.begin(), src8.end(), feed_fb.begin());
        eng8_auto.addmul_region(one8, plain_reg[kFeedTaps - 1], feed_fb);
        eng8_auto.mul_region(feed_prep[0], feed_fb, plain_reg[0]);
        for (int j = 1; j < kFeedTaps; ++j) {
            eng8_auto.addmul_region(feed_prep[static_cast<std::size_t>(j)],
                                    feed_fb,
                                    plain_reg[static_cast<std::size_t>(j)]);
        }
        g_sink ^= plain_reg[0][kSymbols - 1];
    };
    const auto feed_checked = [&] {
        std::copy(src8.begin(), src8.end(), feed_fb.begin());
        std::uint64_t fb_sum =
            eng8_auto.region_checksum(std::span<const std::uint8_t>{src8});
        eng8_auto.addmul_region_checked(one8, checked_reg[kFeedTaps - 1],
                                        feed_sum[kFeedTaps - 1], feed_fb,
                                        fb_sum);
        eng8_auto.mul_region_checked(feed_prep[0], feed_fb, fb_sum,
                                     checked_reg[0], feed_sum[0]);
        for (int j = 1; j < kFeedTaps; ++j) {
            eng8_auto.addmul_region_checked(
                feed_prep[static_cast<std::size_t>(j)], feed_fb, fb_sum,
                checked_reg[static_cast<std::size_t>(j)],
                feed_sum[static_cast<std::size_t>(j)]);
        }
        g_sink ^= checked_reg[0][kSymbols - 1];
    };
    // Best of three timing passes each way; a single pass on a shared box
    // swings more than the checksum lane costs.
    double plain_feed_secs = 1e30;
    double checked_feed_secs = 1e30;
    for (int r = 0; r < 3; ++r) {
        plain_feed_secs = std::min(plain_feed_secs, time_it(feed_plain));
        checked_feed_secs = std::min(checked_feed_secs, time_it(feed_checked));
    }
    // The checksum lane must still reconcile after every timed iteration;
    // then, from reset banks, one plain and one checked feed must agree
    // bit for bit.
    bool checked_verify_ok = true;
    for (int j = 0; j < kFeedTaps; ++j) {
        checked_verify_ok =
            checked_verify_ok &&
            eng8_auto
                .verify_region(std::span<const std::uint8_t>{
                                   checked_reg[static_cast<std::size_t>(j)]},
                               feed_sum[static_cast<std::size_t>(j)])
                .ok();
    }
    for (auto& reg : plain_reg) {
        std::fill(reg.begin(), reg.end(), 0);
    }
    for (auto& reg : checked_reg) {
        std::fill(reg.begin(), reg.end(), 0);
    }
    std::fill(feed_sum.begin(), feed_sum.end(), 0);
    feed_plain();
    feed_checked();
    const bool checked_identical = plain_reg == checked_reg;
    const double checked_overhead_pct =
        (checked_feed_secs / plain_feed_secs - 1.0) * 100.0;
    const bool checked_bar_met = checked_overhead_pct <= 15.0;
    std::printf(
        "GF(2^8) checked encode: plain feed %.0f us, checked feed %.0f us "
        "(%+.1f%% overhead, bar 15%%: %s, %s, verify %s)\n",
        plain_feed_secs * 1e6, checked_feed_secs * 1e6, checked_overhead_pct,
        checked_bar_met ? "MET" : "NOT MET",
        checked_identical ? "bit-identical" : "MISMATCH",
        checked_verify_ok ? "ok" : "FAILED");

    // ---- GF(2^64): the u64 carry-less ladder --------------------------------
    const field::Field f64 = field::Field::type2(64, 23);
    const std::uint64_t c64 = 0x0123456789ABCDEFULL;
    std::vector<std::uint64_t> src64w(kSymbols);
    {
        std::uint64_t x = 0x9E3779B97F4A7C15ULL;
        for (auto& w : src64w) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            w = x;
        }
    }
    const FrozenConstMultiplier frozen64{f64.ops(), c64};
    std::vector<std::uint64_t> acc64(kSymbols, 0);
    const double base64_secs = time_it([&] {
        for (std::size_t i = 0; i < kSymbols; ++i) {
            acc64[i] ^= frozen64.mul(src64w[i]);
        }
        g_sink ^= acc64[kSymbols - 1];
    });
    const double base64_sps = static_cast<double>(kSymbols) / base64_secs;
    std::printf("GF(2^64) encode baseline (PR-4 window walk): %.0fM sym/s\n",
                base64_sps / 1e6);

    const bulk::RegionEngine eng64_scalar{f64.ops(), bulk::KernelKind::Scalar};
    const auto prep64_scalar = eng64_scalar.prepare(c64);
    std::vector<std::uint64_t> ref64(kSymbols, 0);
    eng64_scalar.addmul_region(prep64_scalar, src64w, ref64);

    std::vector<PathResult> enc64_paths;
    for (const auto kind : runnable(bulk::kWordLadder)) {
        const bulk::RegionEngine eng{f64.ops(), kind};
        const auto prep = eng.prepare(c64);
        std::vector<std::uint64_t> acc(kSymbols, 0);
        eng.addmul_region(prep, src64w, acc);
        const bool identical = acc == ref64;
        const double secs = time_it([&] {
            eng.addmul_region(prep, src64w, acc);
            g_sink ^= acc[kSymbols - 1];
        });
        PathResult r;
        r.kernel = bulk::kernel_name(kind);
        r.layout = "u64";
        r.symbols_per_sec = static_cast<double>(kSymbols) / secs;
        r.gb_per_sec = r.symbols_per_sec * 8 / 1e9;
        r.speedup = r.symbols_per_sec / base64_sps;
        r.bit_identical = identical;
        enc64_paths.push_back(r);
        std::printf("GF(2^64) encode %-7s (u64): %8.0fM sym/s  %6.2f GB/s  %5.1fx  %s\n",
                    r.kernel.c_str(), r.symbols_per_sec / 1e6, r.gb_per_sec,
                    r.speedup, identical ? "bit-identical" : "MISMATCH");
    }

    // ---- m=163 multi-word region scale --------------------------------------
    const field::Field f163 = field::Field::type2(163, 66);
    const std::size_t mw = f163.ops().elem_words();
    const std::size_t n163 = 8192;
    std::vector<std::uint64_t> src163(n163 * mw);
    {
        std::uint64_t x = 0xD1B54A32D192ED03ULL;
        for (std::size_t i = 0; i < n163; ++i) {
            for (std::size_t k = 0; k < mw; ++k) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                src163[i * mw + k] = x;
            }
            src163[i * mw + mw - 1] &= (std::uint64_t{1} << (163 % 64)) - 1;
        }
    }
    const gf2::Poly c163 = gf2::Poly::from_exponents({160, 97, 31, 2, 0});
    field::FieldOps::Scratch scratch;

    // Baseline: the pre-PR-5 option — one Poly-element engine multiply per
    // symbol (FieldOps::mul with explicit scratch, Poly bookkeeping per op).
    std::vector<gf2::Poly> elems163(n163);
    for (std::size_t i = 0; i < n163; ++i) {
        elems163[i] = gf2::Poly::from_words(
            {src163.data() + i * mw, mw});
    }
    gf2::Poly out_elem;
    const double base163_secs = time_it([&] {
        for (std::size_t i = 0; i < n163; ++i) {
            f163.ops().mul(elems163[i], c163, out_elem, scratch);
        }
        g_sink ^= out_elem.words().empty() ? 0 : out_elem.words()[0];
    });
    const double base163_sps = static_cast<double>(n163) / base163_secs;

    const bulk::RegionEngine eng163{f163.ops()};
    const auto prep163 = eng163.prepare(c163);
    std::vector<std::uint64_t> out163(n163 * mw, 0);
    const double mw163_secs = time_it([&] {
        eng163.mul_region_mw(prep163, src163, out163, scratch);
        g_sink ^= out163[0];
    });
    const double mw163_sps = static_cast<double>(n163) / mw163_secs;
    // Verify against the Poly loop.
    bool mw_identical = true;
    eng163.mul_region_mw(prep163, src163, out163, scratch);
    for (std::size_t i = 0; i < n163 && mw_identical; ++i) {
        f163.ops().mul(elems163[i], c163, out_elem, scratch);
        const auto w = out_elem.words();
        for (std::size_t k = 0; k < mw; ++k) {
            const std::uint64_t want = k < w.size() ? w[k] : 0;
            if (out163[i * mw + k] != want) {
                mw_identical = false;
            }
        }
    }
    const double mw163_speedup = mw163_sps / base163_sps;
    std::printf("GF(2^163) region scale: poly loop %.2fM sym/s -> region_mw %.2fM sym/s (%.2fx, %s)\n",
                base163_sps / 1e6, mw163_sps / 1e6, mw163_speedup,
                mw_identical ? "bit-identical" : "MISMATCH");

    // ---- JSON ---------------------------------------------------------------
    std::FILE* out = std::fopen(out_path, "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", out_path);
        return 1;
    }
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"schema\": \"gfr-bench-v6\",\n");
    std::fprintf(out, "  \"threads\": 1,\n");
    std::fprintf(out, "  \"region_symbols\": %zu,\n", kSymbols);
    std::fprintf(out, "  \"gf256_region_encode\": {\n");
    // gb_per_sec is symbol payload (1 byte/symbol) throughout this block,
    // so baseline and kernel rows are directly comparable.
    std::fprintf(out,
                 "    \"baseline\": {\"path\": \"pr4_constmul_window_walk_u64\", "
                 "\"symbols_per_sec\": %.0f, \"gb_per_sec\": %.3f},\n",
                 base8_sps, base8_sps / 1e9);
    std::fprintf(out, "    \"kernels\": [\n");
    emit_paths(out, enc8_paths);
    std::fprintf(out, "    ],\n");
    std::fprintf(out, "    \"dispatched_kernel\": \"%s\",\n",
                 dispatched8_kernel.c_str());
    std::fprintf(out, "    \"dispatched_speedup_vs_baseline\": %.2f,\n",
                 dispatched8_speedup);
    std::fprintf(out, "    \"acceptance_bar\": 3.0,\n");
    std::fprintf(out, "    \"acceptance_met\": %s\n",
                 acceptance_met ? "true" : "false");
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"gf256_region_scale\": {\n");
    std::fprintf(out,
                 "    \"baseline\": {\"path\": \"pr4_constmul_mul_region_u64\", "
                 "\"symbols_per_sec\": %.0f},\n",
                 base8_scale_sps);
    std::fprintf(out, "    \"kernels\": [\n");
    emit_paths(out, scale8_paths);
    std::fprintf(out, "    ]\n");
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"gf256_checked_encode\": {\n");
    std::fprintf(out, "    \"feed_taps\": %d,\n", kFeedTaps);
    std::fprintf(out, "    \"kernel\": \"%s\",\n",
                 bulk::kernel_name(eng8_auto.byte_kernel_kind()));
    std::fprintf(out, "    \"plain_feed_secs\": %.6e,\n", plain_feed_secs);
    std::fprintf(out, "    \"checked_feed_secs\": %.6e,\n", checked_feed_secs);
    std::fprintf(out, "    \"overhead_pct\": %.2f,\n", checked_overhead_pct);
    std::fprintf(out, "    \"overhead_bar_pct\": 15.0,\n");
    std::fprintf(out, "    \"overhead_bar_met\": %s,\n",
                 checked_bar_met ? "true" : "false");
    std::fprintf(out, "    \"bit_identical\": %s,\n",
                 checked_identical ? "true" : "false");
    std::fprintf(out, "    \"verify_ok\": %s\n",
                 checked_verify_ok ? "true" : "false");
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"gf2_64_region_encode\": {\n");
    std::fprintf(out,
                 "    \"baseline\": {\"path\": \"pr4_constmul_window_walk_u64\", "
                 "\"symbols_per_sec\": %.0f, \"gb_per_sec\": %.3f},\n",
                 base64_sps, base64_sps * 8 / 1e9);
    std::fprintf(out, "    \"kernels\": [\n");
    emit_paths(out, enc64_paths);
    std::fprintf(out, "    ]\n");
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"m163_region_scale\": {\n");
    std::fprintf(out, "    \"symbols\": %zu,\n", n163);
    std::fprintf(out,
                 "    \"baseline_poly_loop_symbols_per_sec\": %.0f,\n"
                 "    \"region_mw_symbols_per_sec\": %.0f,\n"
                 "    \"speedup\": %.2f,\n"
                 "    \"bit_identical\": %s\n",
                 base163_sps, mw163_sps, mw163_speedup,
                 mw_identical ? "true" : "false");
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"sink\": %llu\n",
                 static_cast<unsigned long long>(g_sink & 1));
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("wrote %s\n", out_path);

    bool all_identical = mw_identical && checked_identical && checked_verify_ok;
    for (const auto* paths : {&enc8_paths, &scale8_paths, &enc64_paths}) {
        for (const auto& r : *paths) {
            all_identical = all_identical && r.bit_identical;
        }
    }
    return all_identical ? 0 : 1;
}
