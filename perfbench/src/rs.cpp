// Workload `rs`: Reed-Solomon erasure coding on the bulk region engine.
// RS(14,10) Cauchy over GF(2^8) (byte layout, dispatched kernel) and over
// GF(2^16) (u16 layout), 128 KiB shards: each stripe is encoded, loses 1-4
// shards (seeded positions, data and parity mixed), is repaired and
// compared.  Every pass repairs one stripe per loss count 1..4 per field
// (seeded order), so a pass does the same work on every seed.  A small
// stream of 64 GF(2^8) stripes with 4 KiB shards and 4 losses per pass
// measures repair latency, where the survivor-matrix inversion and per-call
// overhead outweigh kernel bandwidth.  Loads bulk and rs; no netlist code.
//
// part_a_s = all encodes, part_b_s = all repairs; op_p50_ms = the small
// stream's repair latency.

#include "common.h"

#include "bulk/region_engine.h"
#include "field/field_catalog.h"
#include "rs/codec.h"
#include "rs/rs_matrix.h"

#include <algorithm>
#include <cstdio>
#include <span>

namespace pb {
namespace {

using namespace gfr;

constexpr int kN = 14;
constexpr int kK = 10;
/// Big-stream shard size.  BENCH_8 used 1 MiB shards; those stripes stream
/// from DRAM, where other tenants' memory traffic on a shared host made the
/// fastest pass of a run swing by up to 1.8x.  128 KiB shards keep the
/// stripe pool in cache while still amortising per-call cost over long
/// regions.
constexpr std::size_t kBigBytes = std::size_t{1} << 17;
constexpr std::size_t kSmallBytes = 4096;
constexpr int kSmallPerPass = 64;
constexpr int kPool = 2;         ///< distinct big stripes per field
constexpr int kSmallPool = 16;   ///< distinct small stripes
constexpr int kPatterns = 4096;  ///< seeded erasure patterns per stream

using Pattern = std::vector<bool>;  // present[shard]

/// `lost` distinct shards, data and parity mixed whenever lost >= 2.
Pattern draw_pattern(Rng& rng, int lost) {
    for (;;) {
        Pattern present(kN, true);
        int data_lost = 0;
        for (int placed = 0; placed < lost;) {
            const auto s = static_cast<std::size_t>(rng.below(kN));
            if (present[s]) {
                present[s] = false;
                data_lost += s < kK ? 1 : 0;
                ++placed;
            }
        }
        if (lost < 2 || (data_lost > 0 && data_lost < lost)) {
            return present;
        }
    }
}

/// One stream: a code, a pool of stripes with their known-good parity, and
/// the working stripe repaired in place.
template <typename T>
struct Stream {
    const rs::Codec* codec = nullptr;
    std::size_t symbols = 0;
    std::vector<std::vector<std::vector<T>>> golden;  ///< pool of full stripes
    std::vector<std::vector<T>> work;
    double encode_s = 0.0;
    double decode_s = 0.0;
    double encoded_bytes = 0.0;
    double repaired_bytes = 0.0;

    void fill(const field::Field& f, const rs::Codec& scalar, Rng& rng, int pool,
              std::size_t bytes) {
        symbols = bytes / sizeof(T);
        const T mask = static_cast<T>((std::uint64_t{1} << f.degree()) - 1);
        for (int p = 0; p < pool; ++p) {
            std::vector<std::vector<T>> stripe(kN, std::vector<T>(symbols, 0));
            for (int i = 0; i < kK; ++i) {
                for (auto& v : stripe[static_cast<std::size_t>(i)]) {
                    v = static_cast<T>(rng.next() & mask);
                }
            }
            // Known-good parity from the forced-scalar codec.
            scalar.encode(data_of(stripe), parity_of(stripe));
            golden.push_back(std::move(stripe));
        }
        work.assign(kN, std::vector<T>(symbols, 0));
    }

    static std::vector<std::span<const T>> data_of(std::vector<std::vector<T>>& s) {
        return {s.begin(), s.begin() + kK};
    }
    static std::vector<std::span<T>> parity_of(std::vector<std::vector<T>>& s) {
        return {s.begin() + kK, s.end()};
    }
    static std::vector<std::span<T>> all_of(std::vector<std::vector<T>>& s) {
        return {s.begin(), s.end()};
    }

    /// Encode, erase, repair and compare stripe `index`.  Returns
    /// (encode seconds, decode seconds); `ok` turns false on any mismatch.
    std::pair<double, double> stripe(std::size_t index, const Pattern& present, bool& ok,
                                     Trace* trace) {
        speed_checkpoint();
        const auto& ref = golden[index % golden.size()];
        for (int i = 0; i < kK; ++i) {
            std::copy(ref[i].begin(), ref[i].end(), work[i].begin());
        }
        auto t0 = Clock::now();
        codec->encode(data_of(work), parity_of(work));
        const double enc = seconds_since(t0);
        ok = ok && std::equal(ref.begin() + kK, ref.end(), work.begin() + kK);

        int lost = 0;
        for (int i = 0; i < kN; ++i) {
            if (!present[static_cast<std::size_t>(i)]) {
                std::fill(work[i].begin(), work[i].end(), static_cast<T>(0x5A));
                ++lost;
            }
        }
        t0 = Clock::now();
        codec->decode(all_of(work), present);
        const double dec = seconds_since(t0);
        ok = ok && work == ref;

        const double shard = static_cast<double>(symbols * sizeof(T));
        encode_s += enc;
        decode_s += dec;
        encoded_bytes += kK * shard;
        repaired_bytes += lost * shard;
        if (trace != nullptr) {
            trace->add("rs.encode_s", enc);
            trace->add("rs.decode_s", dec);
            // Region traffic implied by the codec algebra: every parity shard
            // accumulates k data shards; every lost shard is rebuilt from k.
            trace->add("bulk.bytes", (kK * (kN - kK) + kK * lost) * shard);
        }
        return {enc, dec};
    }

    bool scalar_repair_matches(const rs::Codec& scalar, const Pattern& present) {
        std::vector<std::vector<T>> copy = golden[0];
        for (int i = 0; i < kN; ++i) {
            if (!present[static_cast<std::size_t>(i)]) {
                std::fill(copy[i].begin(), copy[i].end(), static_cast<T>(0x33));
            }
        }
        scalar.decode(all_of(copy), present);
        return copy == golden[0];
    }
};

class Rs final : public Workload {
public:
    void set_up(Trace& setup_trace) override {
        setup_trace.span("field.construct_s", [&] {
            f8_.emplace_back(field::gf256_paper_field());
            f8_.emplace_back(gf2::Poly::from_exponents({16, 12, 3, 1, 0}));
        });
        codec8_ = std::make_unique<rs::Codec>(f8_[0].ops(), kN, kK);
        codec16_ = std::make_unique<rs::Codec>(f8_[1].ops(), kN, kK);
        scalar8_ = std::make_unique<rs::Codec>(f8_[0].ops(), kN, kK, rs::GeneratorKind::Cauchy,
                                               bulk::KernelKind::Scalar);
        scalar16_ = std::make_unique<rs::Codec>(f8_[1].ops(), kN, kK,
                                                rs::GeneratorKind::Cauchy,
                                                bulk::KernelKind::Scalar);
    }

    void make_inputs(std::uint64_t seed) override {
        Rng rng{seed};
        big8_.codec = codec8_.get();
        big16_.codec = codec16_.get();
        small_.codec = codec8_.get();
        big8_.fill(f8_[0], *scalar8_, rng, kPool, kBigBytes);
        big16_.fill(f8_[1], *scalar16_, rng, kPool, kBigBytes);
        small_.fill(f8_[0], *scalar8_, rng, kSmallPool, kSmallBytes);
        for (int i = 0; i < kPatterns; ++i) {
            big_patterns_.push_back(draw_pattern(rng, 1 + i % 4));
            small_patterns_.push_back(draw_pattern(rng, 4));
        }
        // Seeded order of the four loss counts inside each pass.
        for (int i = 0; i < kPatterns / 4; ++i) {
            std::vector<int> order = {0, 1, 2, 3};
            for (int j = 3; j > 0; --j) {
                std::swap(order[static_cast<std::size_t>(j)],
                          order[static_cast<std::size_t>(rng.below(j + 1))]);
            }
            orders_.push_back(order);
        }
    }

    PassStats pass(Trace* trace) override {
        PassStats st;
        bool ok = true;
        const std::size_t round = passes_++;
        const auto& order = orders_[round % orders_.size()];
        for (const int loss : order) {
            // big_patterns_[q] loses 1 + q % 4 shards.
            const std::size_t q =
                4 * (round % (kPatterns / 4)) + static_cast<std::size_t>(loss);
            const auto [e8, d8] = big8_.stripe(round, big_patterns_[q], ok, trace);
            const auto [e16, d16] = big16_.stripe(round, big_patterns_[q], ok, trace);
            st.part_a_s += e8 + e16;
            st.part_b_s += d8 + d16;
            st.ops += 2;
        }
        for (int i = 0; i < kSmallPerPass; ++i) {
            const std::size_t j = round * kSmallPerPass + static_cast<std::size_t>(i);
            const auto [e, d] = small_.stripe(j, small_patterns_[j % kPatterns], ok, trace);
            st.part_a_s += e;
            st.part_b_s += d;
            st.op_ms.push_back(scaled_ms(d));
            small_repair_us_.push_back(d * 1e6);
            ++st.ops;
        }
        st.failed += ok ? 0 : 1;
        st.pass_s = st.part_a_s + st.part_b_s;
        if (trace != nullptr) {
            trace_layers(*trace);
            trace->add("trace.unattributed_s", 0.0);
        }
        return st;
    }

    long check(std::vector<std::string>& log) override {
        // Every pass compared each encode with forced-scalar parity and each
        // repair with the original.  Here one stripe per field is also
        // repaired by the forced-scalar codec.
        const Pattern& present = small_patterns_[0];
        const bool ok8 = big8_.scalar_repair_matches(*scalar8_, present);
        const bool ok16 = big16_.scalar_repair_matches(*scalar16_, present);
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "rs forced-scalar repair bit-identical: GF(2^8) %s, GF(2^16) %s; "
                      "%zu passes compared every stripe",
                      ok8 ? "yes" : "NO", ok16 ? "yes" : "NO", passes_);
        log.emplace_back(buf);
        return (ok8 ? 0 : 1) + (ok16 ? 0 : 1);
    }

    [[nodiscard]] std::vector<Figure> figures() const override {
        return {
            {"encode_gbps", big8_.encoded_bytes / big8_.encode_s / 1e9, "GB/s"},
            {"repair_gbps", big8_.repaired_bytes / big8_.decode_s / 1e9, "GB/s"},
            {"encode16_gbps", big16_.encoded_bytes / big16_.encode_s / 1e9, "GB/s"},
            {"repair16_gbps", big16_.repaired_bytes / big16_.decode_s / 1e9, "GB/s"},
            {"small_repair_p50_us", quantile(small_repair_us_, 0.5), "us"},
            {"small_repair_p99_us", quantile(small_repair_us_, 0.99), "us"},
        };
    }

    void finish_trace(Trace& trace, int /*traced_passes*/) override {
        trace.set("bulk.addmul_gbps", median(addmul_gbps_));
        trace.set("bulk.prepare_us", median(prepare_us_));
        trace.set("rs.invert_us", median(invert_us_));
    }

private:
    /// Direct layer probes: one region addmul over a big-stream shard, constant
    /// preparation, and the survivor-matrix inversion of a small repair.
    void trace_layers(Trace& trace) {
        const bulk::RegionEngine& engine = codec8_->engine();
        const auto& src = big8_.golden[0][0];
        auto& dst = big8_.work[0];
        const auto prep = engine.prepare(std::uint64_t{0x53});
        auto t0 = Clock::now();
        constexpr int kCalls = 8;
        for (int i = 0; i < kCalls; ++i) {
            engine.addmul_region(prep, src, dst);
        }
        addmul_gbps_.push_back(kCalls * static_cast<double>(src.size()) / seconds_since(t0) / 1e9);

        t0 = Clock::now();
        for (std::uint64_t c = 1; c < 256; ++c) {
            sink_ ^= engine.prepare(c).constant();
        }
        prepare_us_.push_back(seconds_since(t0) * 1e6 / 255.0);

        // Rows of [I ; P] for the first k survivors of a small-stream pattern.
        const Pattern& present = small_patterns_[passes_ % kPatterns];
        rs::Matrix sub(kK, kK);
        int row = 0;
        for (int s = 0; s < kN && row < kK; ++s) {
            if (!present[static_cast<std::size_t>(s)]) {
                continue;
            }
            for (int c = 0; c < kK; ++c) {
                sub.at(row, c) = s < kK ? (s == c ? 1 : 0)
                                        : codec8_->parity_matrix().at(s - kK, c);
            }
            ++row;
        }
        t0 = Clock::now();
        constexpr int kInverts = 64;
        for (int i = 0; i < kInverts; ++i) {
            sink_ ^= rs::invert(f8_[0].ops(), sub).at(0, 0);
        }
        invert_us_.push_back(seconds_since(t0) * 1e6 / kInverts);
    }

    std::vector<field::Field> f8_;  ///< GF(2^8), GF(2^16)
    std::unique_ptr<rs::Codec> codec8_;
    std::unique_ptr<rs::Codec> codec16_;
    std::unique_ptr<rs::Codec> scalar8_;
    std::unique_ptr<rs::Codec> scalar16_;
    Stream<std::uint8_t> big8_;
    Stream<std::uint16_t> big16_;
    Stream<std::uint8_t> small_;
    std::vector<Pattern> big_patterns_;
    std::vector<Pattern> small_patterns_;
    std::vector<std::vector<int>> orders_;
    std::vector<double> small_repair_us_;
    std::vector<double> addmul_gbps_;
    std::vector<double> prepare_us_;
    std::vector<double> invert_us_;
    std::size_t passes_ = 0;
    std::uint64_t sink_ = 0;  ///< keeps probe results observable
};

}  // namespace

std::unique_ptr<Workload> make_rs() { return std::make_unique<Rs>(); }

}  // namespace pb
