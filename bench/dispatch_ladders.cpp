// Every rung of the three ISA dispatch ladders, side by side, at one thread.
// perfbench times only the rung the dispatch selects; this program checks
// and times every rung this build and CPU can run, floor included:
//
//   byte  GF(2^8) addmul_region and mul_region over 64 Ki symbols, each
//         rung bit-identical to the forced-Scalar engine before it is
//         timed;
//   word  GF(2^64) addmul_region, VPCLMULQDQ against the window walk, with
//         the same check;
//   tape  the campaign of a prepared MultiplierVerifier on every tape
//         backend x batch width {1, 4, 8, 16}: exhaustive at (8,2), 256
//         random sweeps at (163,68).  A point is timed only when the
//         multiplier verifies clean and a faulted sibling fails with the
//         scalar width-1 counterexample string, byte for byte;
//   abft  one 32-tap RS feed step on the dispatched byte kernel, plain
//         against checked (checksum-lane) region ops: bit-identical, and
//         every lane still reconciles after the timed runs.
//
// Rates are given at the median and the fastest batch (bench/harness.h);
// ratios compare medians.  Exits nonzero when any check fails.

#include "harness.h"

#include "bulk/kernels.h"
#include "bulk/region_engine.h"
#include "exec/run_kernels.h"
#include "field/field_catalog.h"
#include "multipliers/generator.h"
#include "multipliers/verify.h"
#include "netlist/clone.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

namespace gfr {
namespace {

constexpr std::size_t kSymbols = 1 << 16;

/// `floor`, then the ladder's rungs this build and CPU can run, worst first.
template <typename Kind, typename Kernel>
std::vector<Kind> floor_and_rungs(const guard::Ladder<Kind, Kernel>& ladder, Kind floor) {
    std::vector<Kind> out = ladder.runnable(bulk::detect_cpu());
    out.push_back(floor);
    std::reverse(out.begin(), out.end());
    return out;
}

/// Checks, then times, the region op `op(engine, prepared, src, dst)` for
/// the constant `c` on every kernel of `kinds` (the scalar floor first,
/// printed as `floor_label`).  dst starts nonzero so an accumulate that
/// drops dst shows.
template <typename Symbol, typename Op>
void region_ladder(const std::string& name, const field::Field& f, std::uint64_t c,
                   const std::vector<bulk::KernelKind>& kinds, const char* floor_label,
                   const std::vector<Symbol>& src, const Op& op) {
    const std::vector<Symbol> dst0(src.rbegin(), src.rend());
    const bulk::RegionEngine floor{f.ops(), bulk::KernelKind::Scalar};
    std::vector<Symbol> want = dst0;
    op(floor, floor.prepare(c), src, want);
    const double gigabytes = static_cast<double>(sizeof(Symbol) * src.size()) / 1e9;
    double floor_s = 0;
    for (const bulk::KernelKind kind : kinds) {
        const bool is_floor = kind == bulk::KernelKind::Scalar;
        const std::string point =
            name + "." + (is_floor ? floor_label : bulk::kernel_name(kind));
        const bulk::RegionEngine eng{f.ops(), kind};
        const auto prep = eng.prepare(c);
        std::vector<Symbol> dst = dst0;
        op(eng, prep, src, dst);
        if (!bench::check(point + ".identical", dst == want)) {
            continue;
        }
        const bench::Timing t = bench::time_call([&] { op(eng, prep, src, dst); });
        bench::figure_rate(point, gigabytes, t, "GB/s");
        if (is_floor) {
            floor_s = t.median_s;
        } else {
            bench::figure(point + ".vs_floor", floor_s / t.median_s, "x");
        }
    }
}

/// The multiplier with one extra XOR of input `input` on output `index`.
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

/// The backend x width grid of the flat multiplier over `f`, faulted at
/// output `fault_output` by input `fault_input`.  `products` is the
/// campaign's size.
void tape_ladder(const std::string& name, const field::Field& f, std::size_t fault_output,
                 std::size_t fault_input, const mult::VerifyOptions& base, double products) {
    const auto good = mult::build_multiplier(mult::Method::Date2018Flat, f);
    const auto bad = faulted_clone(good, fault_output, fault_input);
    const auto at = [&](exec::Backend backend, int width) {
        mult::VerifyOptions o = base;
        o.threads = 1;
        o.max_batch_blocks = width;
        o.exec_backend = backend;
        return o;
    };
    const auto repro = [&](const mult::VerifyOptions& o) {
        const auto failure = mult::verify_multiplier(bad, f, o);
        return failure ? failure->to_string() : std::string{};
    };
    const std::string want = repro(at(exec::Backend::Scalar, 1));
    bench::check(name + ".fault_found", !want.empty());
    for (const exec::Backend backend :
         floor_and_rungs(exec::kTapeLadder, exec::Backend::Scalar)) {
        for (const int width : {1, 4, 8, 16}) {
            const std::string point = name + "." + exec::backend_name(backend) + ".w" +
                                      std::to_string(width);
            const mult::VerifyOptions o = at(backend, width);
            const mult::MultiplierVerifier verifier{good, f, o};
            const bool clean = bench::check(point + ".verify", !verifier.run().has_value());
            const bool same = bench::check(point + ".repro", repro(o) == want);
            if (clean && same) {
                bench::figure_rate(point, products,
                                   bench::time_call([&] { (void)verifier.run(); }),
                                   "products/s");
            }
        }
    }
}

/// One systematic-RS feed step over a kSymbols-wide stripe: the feedback
/// XOR plus 32 constant multiply-accumulates, plain and through the checked
/// region ops that keep one checksum symbol per register.
void abft_feed(const field::Field& f, const std::vector<std::uint8_t>& src) {
    constexpr std::size_t kTaps = 32;
    const bulk::RegionEngine eng{f.ops()};
    std::vector<bulk::RegionEngine::Prepared> taps;
    for (std::size_t j = 0; j < kTaps; ++j) {
        taps.push_back(eng.prepare(((j * 7 + 3) | 1) & 0xFF));
    }
    const auto one = eng.prepare(std::uint64_t{1});
    // Separate register banks: a plain pass over the checked bank would
    // stale its checksum lanes.
    std::vector<std::vector<std::uint8_t>> plain(kTaps, std::vector<std::uint8_t>(kSymbols, 0));
    std::vector<std::vector<std::uint8_t>> checked = plain;
    std::vector<std::uint64_t> sums(kTaps, 0);
    std::vector<std::uint8_t> fb(kSymbols);
    const auto feed_plain = [&] {
        std::copy(src.begin(), src.end(), fb.begin());
        eng.addmul_region(one, plain[kTaps - 1], fb);
        eng.mul_region(taps[0], fb, plain[0]);
        for (std::size_t j = 1; j < kTaps; ++j) {
            eng.addmul_region(taps[j], fb, plain[j]);
        }
    };
    const auto feed_checked = [&] {
        std::copy(src.begin(), src.end(), fb.begin());
        std::uint64_t fb_sum = eng.region_checksum(std::span<const std::uint8_t>{src});
        eng.addmul_region_checked(one, checked[kTaps - 1], sums[kTaps - 1], fb, fb_sum);
        eng.mul_region_checked(taps[0], fb, fb_sum, checked[0], sums[0]);
        for (std::size_t j = 1; j < kTaps; ++j) {
            eng.addmul_region_checked(taps[j], fb, fb_sum, checked[j], sums[j]);
        }
    };
    feed_plain();
    feed_checked();
    bench::check("abft.identical", plain == checked);
    const bench::Timing plain_t = bench::time_call(feed_plain);
    const bench::Timing checked_t = bench::time_call(feed_checked);
    bool lanes_ok = true;
    for (std::size_t j = 0; j < kTaps; ++j) {
        lanes_ok = lanes_ok && eng.verify_region(std::span<const std::uint8_t>{checked[j]},
                                                 sums[j]).ok();
    }
    bench::check("abft.verify_region", lanes_ok);
    bench::figure_ns("abft.plain_feed", plain_t);
    bench::figure_ns("abft.checked_feed", checked_t);
    bench::figure("abft.overhead_pct", (checked_t.median_s / plain_t.median_s - 1) * 100,
                  "%");
}

}  // namespace
}  // namespace gfr

int main() {
    using namespace gfr;
    const auto addmul = [](const bulk::RegionEngine& e, const bulk::RegionEngine::Prepared& p,
                           const auto& src, auto& dst) { e.addmul_region(p, src, dst); };
    const auto mul = [](const bulk::RegionEngine& e, const bulk::RegionEngine::Prepared& p,
                        const auto& src, auto& dst) { e.mul_region(p, src, dst); };

    const field::Field f8 = field::gf256_paper_field();
    std::vector<std::uint8_t> src8(kSymbols);
    for (std::size_t i = 0; i < kSymbols; ++i) {
        src8[i] = static_cast<std::uint8_t>(i * 73 + 11);
    }
    const auto byte_kinds = floor_and_rungs(bulk::kByteLadder, bulk::KernelKind::Scalar);
    const bulk::KernelKind byte_dispatch = bulk::RegionEngine{f8.ops()}.byte_kernel_kind();
    std::printf("== byte ladder: GF(2^8), %zu symbols, dispatch %s ==\n", kSymbols,
                bulk::kernel_name(byte_dispatch));
    region_ladder("byte.addmul", f8, 0xC3, byte_kinds, "scalar", src8, addmul);
    region_ladder("byte.mul", f8, 0xC3, byte_kinds, "scalar", src8, mul);

    const field::Field f64 = field::Field::type2(64, 23);
    std::vector<std::uint64_t> src64(kSymbols);
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (auto& w : src64) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        w = x;
    }
    const bulk::KernelKind word_dispatch = bulk::RegionEngine{f64.ops()}.word_kernel_kind();
    std::printf("== word ladder: GF(2^64), %zu symbols, dispatch %s ==\n", kSymbols,
                word_dispatch == bulk::KernelKind::Scalar ? "window_walk"
                                                          : bulk::kernel_name(word_dispatch));
    region_ladder("word.addmul", f64, 0x0123456789ABCDEFULL,
                  floor_and_rungs(bulk::kWordLadder, bulk::KernelKind::Scalar),
                  "window_walk", src64, addmul);

    std::printf("== tape ladder: flat multiplier campaigns, dispatch %s ==\n",
                exec::backend_name(exec::dispatch().kernel->backend));
    tape_ladder("tape.m8", f8, 5, 2, {}, 65536.0);
    mult::VerifyOptions random163;
    random163.random_sweeps = 256;
    tape_ladder("tape.m163", field::Field::type2(163, 68), 56, 3, random163, 64.0 * 256);

    std::printf("== abft: 32-tap RS feed step on the %s byte kernel ==\n",
                bulk::kernel_name(byte_dispatch));
    abft_feed(f8, src8);
    return bench::exit_status();
}
