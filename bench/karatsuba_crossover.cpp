// Extension bench (not a paper table): where does Karatsuba overtake the
// schoolbook-based methods?
//
// Part 1, the model flow: gate counts and mapped A x T for the proposed
// method vs Karatsuba across the Table V fields (GFR_TABLE5_FAST=1: the
// first two) — the natural "future work" comparison for the paper's
// architectures.
//
// Part 2, the software engine: Poly::mul_schoolbook_into against
// Poly::mul_into at 4-64 words per operand, raw products without
// reduction.  This is the measurement behind kDefaultKaratsubaThresholdWords
// (src/gf2/gf2_poly.cpp), which differs between PCLMUL and portable builds,
// so run it in both.  Prints figure lines (bench/harness.h), including the
// first size above the threshold where Karatsuba wins (0: none), and exits
// nonzero when the two products differ.

#include "harness.h"

#include "field/field_catalog.h"
#include "fpga/flow.h"
#include "gf2/gf2_poly.h"
#include "multipliers/generator.h"
#include "multipliers/karatsuba.h"
#include "report/table.h"

#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

int main() {
    using namespace gfr;

    const bool fast = std::getenv("GFR_TABLE5_FAST") != nullptr;
    std::puts("=== Karatsuba vs proposed flat method (library extension) ===\n");

    report::TextTable t{{"field", "KOA ANDs", "flat ANDs", "KOA XORs", "flat XORs",
                         "KOA LUTs", "flat LUTs", "KOA AxT", "flat AxT"}};
    int done = 0;
    for (const auto& spec : field::table5_fields()) {
        if (fast && done >= 2) {
            break;
        }
        ++done;
        const field::Field fld = spec.make();
        const auto koa_nl = mult::build_karatsuba(fld);
        const auto flat_nl = mult::build_multiplier(mult::Method::Date2018Flat, fld);
        const auto koa_stats = koa_nl.stats();
        const auto flat_stats = flat_nl.stats();

        fpga::FlowOptions opts;
        opts.synthesis_freedom = true;  // both get full freedom here
        const auto koa = fpga::run_flow(koa_nl, opts);
        const auto flat = fpga::run_flow(flat_nl, opts);

        t.add_row({spec.label(), std::to_string(koa_stats.n_and),
                   std::to_string(flat_stats.n_and), std::to_string(koa_stats.n_xor),
                   std::to_string(flat_stats.n_xor), std::to_string(koa.luts),
                   std::to_string(flat.luts), report::fmt(koa.area_time, 2),
                   report::fmt(flat.area_time, 2)});
    }
    std::printf("%s\n", t.render().c_str());
    std::puts("Reading: KOA saves AND gates (sub-quadratic) but its XOR overhead");
    std::puts("and irregular structure cost LUTs after mapping — consistent with");
    std::puts("the literature preferring schoolbook-based bit-parallel forms at");
    std::puts("these field sizes on LUT fabrics.");

    const int threshold = gf2::karatsuba_threshold_words();
    std::printf("\n=== Software engine: word-level product, Karatsuba above %d words ===\n",
                threshold);
    std::mt19937_64 rng{0xCA2A};
    gf2::MulArena arena;
    gf2::Poly school;
    gf2::Poly kara;
    int crossover = 0;
    for (const int n : {4, 8, 12, 16, 24, 32, 64}) {
        std::vector<std::uint64_t> wa(static_cast<std::size_t>(n));
        std::vector<std::uint64_t> wb(static_cast<std::size_t>(n));
        for (auto& w : wa) {
            w = rng();
        }
        for (auto& w : wb) {
            w = rng();
        }
        const gf2::Poly a = gf2::Poly::from_words(wa);
        const gf2::Poly b = gf2::Poly::from_words(wb);
        const std::string point = "karatsuba.w" + std::to_string(n);
        gf2::Poly::mul_schoolbook_into(a, b, school);
        gf2::Poly::mul_into(a, b, kara, arena);
        if (!bench::check(point + ".identical", school == kara)) {
            continue;
        }
        const bench::Timing school_t =
            bench::time_call([&] { gf2::Poly::mul_schoolbook_into(a, b, school); });
        const bench::Timing kara_t =
            bench::time_call([&] { gf2::Poly::mul_into(a, b, kara, arena); });
        bench::figure_ns(point + ".schoolbook", school_t);
        bench::figure_ns(point + ".mul_into", kara_t);
        // At or below the threshold both calls run the same schoolbook, so
        // a faster mul_into there is noise, not a crossover.
        if (crossover == 0 && n > threshold && kara_t.median_s < school_t.median_s) {
            crossover = n;
        }
    }
    bench::figure("karatsuba.threshold_words", threshold, "words");
    bench::figure("karatsuba.crossover_words", crossover, "words");
    return bench::exit_status();
}
