// Reference-vs-engine microbenchmarks of the field arithmetic — the substrate
// every verification run and example leans on.
//
// Three generations of each operation are timed side by side:
//
//   *_seed      the original seed path (comb product + bit-serial divmod that
//               materialised `den << shift` on every loop iteration),
//               re-created locally so the trajectory survives the divmod fix;
//   *_reference the current reference path (comb product + in-place divmod);
//   *_engine    the fixed-modulus fast engine (FieldOps: sparse shift-XOR
//               reduction, single-word u64 kernels); the region row runs
//               bulk::RegionEngine over the same FieldOps.
//
// PR 2 adds the large-field tier on top: an inversion sweep over every
// Table V field (extended Euclid vs the engine's Itoh-Tsujii chain) and the
// Karatsuba crossover measurement (word-level schoolbook vs the recursive
// split at growing word counts, plus the full modular multiply at m = 1024).
//
// Results go to stdout as a table and to BENCH_2.json (path overridable as
// argv[1]) as machine-readable ns/op so future PRs have a perf trajectory.

#include "bulk/region_engine.h"
#include "field/field_catalog.h"
#include "field/field_ops.h"
#include "gf2/pentanomial.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

namespace {

using namespace gfr;
using field::Field;
using gf2::Poly;

std::uint64_t g_sink = 0;  // defeats dead-code elimination

/// Raw ns per iteration of fn at a self-calibrated iteration count, taking
/// the minimum of three timed runs to shed scheduler noise.
template <typename Fn>
double measure_raw_ns(Fn&& fn, double min_time_ms) {
    using clock = std::chrono::steady_clock;
    long long iters = 1;
    double best_ms = 0.0;
    for (;;) {
        const auto t0 = clock::now();
        for (long long i = 0; i < iters; ++i) {
            g_sink ^= fn();
        }
        best_ms = std::chrono::duration<double, std::milli>(clock::now() - t0).count();
        if (best_ms >= min_time_ms || iters >= (1LL << 32)) {
            break;
        }
        const double scale = (best_ms > 0.01) ? (min_time_ms * 1.5 / best_ms) : 1000.0;
        iters = static_cast<long long>(static_cast<double>(iters) * scale) + 1;
    }
    for (int rep = 0; rep < 2; ++rep) {
        const auto t0 = clock::now();
        for (long long i = 0; i < iters; ++i) {
            g_sink ^= fn();
        }
        const double ms =
            std::chrono::duration<double, std::milli>(clock::now() - t0).count();
        if (ms < best_ms) {
            best_ms = ms;
        }
    }
    return best_ms * 1e6 / static_cast<double>(iters);
}

/// The harness's own per-iteration cost (loop + indirect call + sink XOR),
/// subtracted from every measurement so ns/op reflects the operation itself.
double harness_overhead_ns() {
    static const double overhead = [] {
        std::uint64_t c = 0x1234;
        return measure_raw_ns([&] { return ++c; }, 20.0);
    }();
    return overhead;
}

/// ns/op of fn (fn performs one operation and returns a checksum word).
template <typename Fn>
double measure_ns(Fn&& fn, double min_time_ms = 20.0) {
    const double raw = measure_raw_ns(fn, min_time_ms);
    return std::max(raw - harness_overhead_ns(), 0.01);
}

std::uint64_t checksum(const Poly& p) {
    return p.words().empty() ? 0 : p.words()[0] ^ static_cast<std::uint64_t>(p.degree());
}

// --- The seed's Field::mul, reproduced faithfully over std::vector ---------
//
// The seed stored polynomials in heap vectors (no small-buffer optimisation)
// and its divmod materialised `den << shift` as a fresh vector every loop
// iteration.  Reproducing that here — rather than calling today's Poly —
// keeps the baseline stable as the substrate improves, so BENCH_N.json files
// stay comparable across PRs.

using Words = std::vector<std::uint64_t>;

int words_degree(const Words& w) {
    for (std::size_t i = w.size(); i-- > 0;) {
        if (w[i] != 0) {
            return static_cast<int>(i) * 64 + 63 - std::countl_zero(w[i]);
        }
    }
    return -1;
}

Words seed_shl(const Words& a, int shift) {
    const auto ws = static_cast<std::size_t>(shift / 64);
    const int bs = shift % 64;
    Words out(a.size() + ws + 1, 0);  // fresh allocation, like the seed
    for (std::size_t i = 0; i < a.size(); ++i) {
        out[i + ws] ^= a[i] << bs;
        if (bs != 0) {
            out[i + ws + 1] ^= a[i] >> (64 - bs);
        }
    }
    return out;
}

Words seed_add(const Words& a, const Words& b) {
    Words out = a;  // copy, like the seed's operator+
    if (b.size() > out.size()) {
        out.resize(b.size(), 0);
    }
    for (std::size_t i = 0; i < b.size(); ++i) {
        out[i] ^= b[i];
    }
    return out;
}

Words seed_mul(const Words& a, const Words& b, const Words& modulus) {
    // Comb product into a fresh vector.
    Words rem(a.size() + b.size() + 1, 0);
    for (std::size_t wi = 0; wi < a.size(); ++wi) {
        std::uint64_t w = a[wi];
        while (w != 0) {
            const int bit = std::countr_zero(w);
            w &= w - 1;
            const int shift = static_cast<int>(wi) * 64 + bit;
            const auto ws = static_cast<std::size_t>(shift / 64);
            const int bs = shift % 64;
            for (std::size_t bj = 0; bj < b.size(); ++bj) {
                rem[bj + ws] ^= b[bj] << bs;
                if (bs != 0) {
                    rem[bj + ws + 1] ^= b[bj] >> (64 - bs);
                }
            }
        }
    }
    // Bit-serial divmod allocating den << shift per iteration.
    const int dd = words_degree(modulus);
    int rd = words_degree(rem);
    while (rd >= dd) {
        rem = seed_add(rem, seed_shl(modulus, rd - dd));
        rd = words_degree(rem);
    }
    return rem;
}

struct Result {
    std::string name;
    int m = 0;
    double ns = 0.0;
};

std::vector<Result> g_results;

void record(const std::string& name, int m, double ns) {
    std::printf("  %-28s %10.2f ns/op\n", name.c_str(), ns);
    g_results.push_back({name, m, ns});
}

double ns_of(const std::string& name, int m) {
    for (const auto& r : g_results) {
        if (r.name == name && r.m == m) {
            return r.ns;
        }
    }
    return 0.0;
}

void bench_field(const Field& f) {
    const int m = f.degree();
    std::printf("%s\n", f.to_string().c_str());
    std::mt19937_64 rng{static_cast<std::uint64_t>(m) * 0x9E3779B97F4A7C15ULL};
    Poly a = f.random_element(rng);
    Poly b = f.random_element(rng);
    if (a.is_zero()) a = f.one();
    if (b.is_zero()) b = f.one();

    const Words aw{a.words().begin(), a.words().end()};
    const Words bw{b.words().begin(), b.words().end()};
    const Words mw{f.modulus().words().begin(), f.modulus().words().end()};
    record("mul_seed", m, measure_ns([&] {
        const Words r = seed_mul(aw, bw, mw);
        return r.empty() ? 0 : r[0];
    }));
    record("mul_reference", m,
           measure_ns([&] { return checksum(f.mul_reference(a, b)); }));
    record("mul_engine", m, measure_ns([&] { return checksum(f.mul(a, b)); }));
    if (f.ops().single_word()) {
        const std::uint64_t a_bits = f.to_bits(a);
        const std::uint64_t b_bits = f.to_bits(b);
        const auto& ops = f.ops();
        record("mul_engine_raw", m,
               measure_ns([&] { return ops.mul(a_bits, b_bits); }));
    }

    record("sqr_reference", m, measure_ns([&] { return checksum(f.sqr_reference(a)); }));
    record("sqr_engine", m, measure_ns([&] { return checksum(f.sqr(a)); }));

    record("inv_euclid", m, measure_ns([&] { return checksum(f.inv_euclid(a)); }));
    record("inv_engine", m, measure_ns([&] { return checksum(f.inv(a)); }));
    record("inv_fermat_engine", m, measure_ns([&] { return checksum(f.inv_fermat(a)); }));

    // Region traffic: scale 4096 symbols by one constant.
    constexpr std::size_t kRegion = 4096;
    std::vector<Poly> elems(kRegion);
    for (auto& e : elems) {
        e = f.random_element(rng);
    }
    record("region_scalar_loop", m, measure_ns(
                                        [&] {
                                            std::uint64_t acc = 0;
                                            for (const auto& e : elems) {
                                                acc ^= checksum(f.mul_reference(b, e));
                                            }
                                            return acc;
                                        },
                                        40.0) /
                                        static_cast<double>(kRegion));
    // The same region through bulk::RegionEngine: the u64 layout for
    // m <= 64, elem_words() words per symbol above.
    const bulk::RegionEngine eng{f.ops()};
    const auto prep = eng.prepare(b);
    const std::size_t ew = f.ops().elem_words();
    std::vector<std::uint64_t> words(kRegion * ew, 0);
    for (std::size_t i = 0; i < kRegion; ++i) {
        const auto w = elems[i].words();
        std::copy(w.begin(), w.end(), words.begin() + static_cast<long>(i * ew));
    }
    record("region_engine", m, measure_ns(
                                   [&] {
                                       if (eng.single_word()) {
                                           eng.scale_region(prep, words);
                                       } else {
                                           eng.mul_region_mw(prep, words, words);
                                       }
                                       return words[0];
                                   },
                                   40.0) /
                                   static_cast<double>(kRegion));
    std::printf("\n");
}

// --- Inversion sweep: every Table V field ------------------------------------
// The acceptance bar for the tier: the engine's Itoh-Tsujii chain must beat
// the seed's extended Euclid on every catalog field.

struct InvRow {
    std::string label;
    int m = 0;
    double euclid_ns = 0.0;
    double engine_ns = 0.0;
};

std::vector<InvRow> bench_inv_table5() {
    std::printf("=== Inversion: Table V fields, extended Euclid vs Itoh-Tsujii ===\n");
    std::vector<InvRow> rows;
    for (const auto& spec : field::table5_fields()) {
        const Field f = spec.make();
        std::mt19937_64 rng{static_cast<std::uint64_t>(spec.m) * 0x51D + spec.n};
        Poly a = f.random_element(rng);
        if (a.is_zero()) {
            a = f.one();
        }
        InvRow row;
        row.label = spec.label();
        row.m = spec.m;
        row.euclid_ns = measure_ns([&] { return checksum(f.inv_euclid(a)); });
        row.engine_ns = measure_ns([&] { return checksum(f.inv(a)); });
        std::printf("  %-12s euclid %9.1f ns  itoh-tsujii %9.1f ns  speedup %5.1fx\n",
                    row.label.c_str(), row.euclid_ns, row.engine_ns,
                    row.euclid_ns / row.engine_ns);
        rows.push_back(row);
    }
    std::printf("\n");
    return rows;
}

// --- Karatsuba crossover -----------------------------------------------------
// Raw word-level products (no reduction): schoolbook vs the Karatsuba layer
// at growing operand sizes, locating the crossover; then the full modular
// multiply and inverse at m = 1024 with the layer on and off.

struct KaraRow {
    int words = 0;
    double school_ns = 0.0;
    double kara_ns = 0.0;
};

std::vector<KaraRow> bench_karatsuba_crossover(int& crossover_words) {
    std::printf("=== Karatsuba layer: word-level product crossover (threshold %d) ===\n",
                gf2::karatsuba_threshold_words());
    std::mt19937_64 rng{0xCA2A};
    std::vector<KaraRow> rows;
    crossover_words = 0;
    gf2::MulArena arena;
    Poly out;
    for (const int n : {4, 8, 12, 16, 24, 32, 64}) {
        std::vector<std::uint64_t> wa(static_cast<std::size_t>(n));
        std::vector<std::uint64_t> wb(static_cast<std::size_t>(n));
        for (auto& w : wa) {
            w = rng();
        }
        for (auto& w : wb) {
            w = rng();
        }
        const Poly a = Poly::from_words(wa);
        const Poly b = Poly::from_words(wb);
        KaraRow row;
        row.words = n;
        row.school_ns = measure_ns([&] {
            Poly::mul_schoolbook_into(a, b, out);
            return checksum(out);
        });
        row.kara_ns = measure_ns([&] {
            Poly::mul_into(a, b, out, arena);
            return checksum(out);
        });
        // Only sizes above the threshold actually diverge from schoolbook —
        // below it both lambdas run the identical kernel and any "win" is
        // timing noise, not a crossover.
        if (crossover_words == 0 && n > gf2::karatsuba_threshold_words() &&
            row.kara_ns < row.school_ns) {
            crossover_words = n;
        }
        std::printf("  n=%-3d words  schoolbook %9.1f ns  karatsuba %9.1f ns  ratio %.2f\n",
                    n, row.school_ns, row.kara_ns, row.school_ns / row.kara_ns);
        rows.push_back(row);
    }
    std::printf("  measured crossover: %d words (~m = %d)\n\n", crossover_words,
                crossover_words * 64);
    return rows;
}

void bench_large_field_tier(const Field& f) {
    const int m = f.degree();
    std::printf("GF(2^%d): modular multiply and inverse, Karatsuba layer on/off\n", m);
    std::mt19937_64 rng{static_cast<std::uint64_t>(m)};
    Poly a = f.random_element(rng);
    Poly b = f.random_element(rng);
    if (a.is_zero()) a = f.one();
    if (b.is_zero()) b = f.one();

    const int tuned = gf2::karatsuba_threshold_words();
    gf2::set_karatsuba_threshold_words(1 << 20);  // force pure schoolbook (PR-1 path)
    record("mul_engine_schoolbook", m, measure_ns([&] { return checksum(f.mul(a, b)); }));
    record("inv_engine_schoolbook", m, measure_ns([&] { return checksum(f.inv(a)); }));
    gf2::set_karatsuba_threshold_words(tuned);
    record("mul_engine_karatsuba", m, measure_ns([&] { return checksum(f.mul(a, b)); }));
    record("inv_engine_karatsuba", m, measure_ns([&] { return checksum(f.inv(a)); }));
    record("inv_euclid", m, measure_ns([&] { return checksum(f.inv_euclid(a)); }));
    std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
    const std::string json_path = (argc > 1) ? argv[1] : "BENCH_2.json";

    std::vector<Field> fields;
    fields.push_back(Field::type2(8, 2));     // the paper's worked example
    fields.push_back(Field::type2(64, 23));   // largest single-word Table V field
    fields.push_back(Field::type2(163, 66));  // NIST B-163
    if (const auto mod233 = gf2::preferred_low_weight_modulus(233)) {
        fields.push_back(Field{*mod233});     // NIST B-233 (trinomial reduction)
    }

    for (const auto& f : fields) {
        bench_field(f);
    }

    const auto inv_rows = bench_inv_table5();
    int crossover_words = 0;
    const auto kara_rows = bench_karatsuba_crossover(crossover_words);
    // The large-m showcase: 16-word operands, where the layer must beat the
    // PR-1 schoolbook outright.
    const Field f1024{Poly::from_exponents({1024, 19, 6, 1, 0})};
    bench_large_field_tier(f1024);

    std::FILE* json = std::fopen(json_path.c_str(), "w");
    if (json == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
        return 1;
    }
    std::fprintf(json, "{\n  \"schema\": \"gfr-bench-v2\",\n");
    std::fprintf(json, "  \"karatsuba_threshold_words\": %d,\n",
                 gf2::karatsuba_threshold_words());
    std::fprintf(json, "  \"karatsuba_crossover_words\": %d,\n", crossover_words);
    std::fprintf(json, "  \"benchmarks\": [\n");
    for (std::size_t i = 0; i < g_results.size(); ++i) {
        const auto& r = g_results[i];
        std::fprintf(json, "    {\"name\": \"%s\", \"m\": %d, \"ns_per_op\": %.3f}%s\n",
                     r.name.c_str(), r.m, r.ns, (i + 1 < g_results.size()) ? "," : "");
    }
    std::fprintf(json, "  ],\n  \"inv_table5\": [\n");
    for (std::size_t i = 0; i < inv_rows.size(); ++i) {
        const auto& r = inv_rows[i];
        std::fprintf(json,
                     "    {\"field\": \"%s\", \"m\": %d, \"euclid_ns\": %.3f, "
                     "\"engine_ns\": %.3f, \"speedup\": %.2f}%s\n",
                     r.label.c_str(), r.m, r.euclid_ns, r.engine_ns,
                     r.euclid_ns / r.engine_ns, (i + 1 < inv_rows.size()) ? "," : "");
    }
    std::fprintf(json, "  ],\n  \"karatsuba_crossover\": [\n");
    for (std::size_t i = 0; i < kara_rows.size(); ++i) {
        const auto& r = kara_rows[i];
        std::fprintf(json,
                     "    {\"words\": %d, \"schoolbook_ns\": %.3f, "
                     "\"karatsuba_ns\": %.3f, \"ratio\": %.2f}%s\n",
                     r.words, r.school_ns, r.kara_ns, r.school_ns / r.kara_ns,
                     (i + 1 < kara_rows.size()) ? "," : "");
    }
    std::fprintf(json, "  ],\n  \"speedups\": [\n");
    bool first = true;
    for (const auto& f : fields) {
        const int m = f.degree();
        const double seed = ns_of("mul_seed", m);
        const double engine = ns_of("mul_engine", m);
        if (seed <= 0.0 || engine <= 0.0) {
            continue;
        }
        std::fprintf(json,
                     "%s    {\"name\": \"mul_seed_vs_engine\", \"m\": %d, "
                     "\"seed_ns\": %.3f, \"engine_ns\": %.3f, \"speedup\": %.2f}",
                     first ? "" : ",\n", m, seed, engine, seed / engine);
        first = false;
        std::printf("m=%-3d mul speedup seed/engine: %.1fx\n", m, seed / engine);
    }
    for (const auto& f : fields) {
        const int m = f.degree();
        const double euclid = ns_of("inv_euclid", m);
        const double engine = ns_of("inv_engine", m);
        if (euclid <= 0.0 || engine <= 0.0) {
            continue;
        }
        std::fprintf(json,
                     "%s    {\"name\": \"inv_euclid_vs_engine\", \"m\": %d, "
                     "\"seed_ns\": %.3f, \"engine_ns\": %.3f, \"speedup\": %.2f}",
                     first ? "" : ",\n", m, euclid, engine, euclid / engine);
        first = false;
        std::printf("m=%-3d inv speedup euclid/engine: %.1fx\n", m, euclid / engine);
    }
    {
        const double school = ns_of("mul_engine_schoolbook", 1024);
        const double kara = ns_of("mul_engine_karatsuba", 1024);
        if (school > 0.0 && kara > 0.0) {
            std::fprintf(json,
                         "%s    {\"name\": \"mul_schoolbook_vs_karatsuba\", \"m\": 1024, "
                         "\"seed_ns\": %.3f, \"engine_ns\": %.3f, \"speedup\": %.2f}",
                         first ? "" : ",\n", school, kara, school / kara);
            first = false;
            std::printf("m=1024 mul speedup schoolbook/karatsuba: %.2fx\n",
                        school / kara);
        }
    }
    std::fprintf(json, "\n  ]\n}\n");
    std::fclose(json);
    std::printf("(sink %llu)\nwrote %s\n", static_cast<unsigned long long>(g_sink),
                json_path.c_str());
    return 0;
}
