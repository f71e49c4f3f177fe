// rs::Codec and rs_matrix — the Reed-Solomon erasure tier.
//
// The heart of this file is the exhaustive sweep: for RS(12,8) over both
// GF(2^8) (byte layout) and GF(2^16) (u16 layout), EVERY erasure pattern
// of <= n-k losses (794 subsets) must decode bit-identically to the
// original stripe, for both generator families.  A randomized large-stripe
// tier then cross-checks the codec against a brute-force Gaussian
// -elimination reference solver that shares no code with rs::invert.

#include "field/field_catalog.h"
#include "field/gf2m.h"
#include "rs/codec.h"
#include "rs/rs_matrix.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "testutil.h"

namespace gfr {
namespace {

using field::Field;
using rs::Codec;
using rs::GeneratorKind;
using rs::Matrix;
using testutil::Xorshift64Star;

/// The PAR2 field: x^16 + x^12 + x^3 + x + 1.
Field gf2_16_field() {
    return Field{gf2::Poly::from_exponents({16, 12, 3, 1, 0})};
}

/// EXPECT_THROW with the exact what() string (test_region_errors idiom).
template <typename Fn>
void expect_invalid(Fn&& fn, const std::string& message) {
    try {
        fn();
        ADD_FAILURE() << "expected std::invalid_argument: " << message;
    } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string{e.what()}, message);
    }
}

/// A full stripe: n shards of len symbols, data filled from rng.
template <typename T>
struct Stripe {
    std::vector<std::vector<T>> shards;

    Stripe(const Field& f, int n, int k, std::size_t len, Xorshift64Star& rng)
        : shards(static_cast<std::size_t>(n), std::vector<T>(len)) {
        for (int i = 0; i < k; ++i) {
            for (auto& v : shards[static_cast<std::size_t>(i)]) {
                v = static_cast<T>(testutil::random_word_element(f, rng));
            }
        }
    }

    [[nodiscard]] std::vector<std::span<const T>> data_spans(int k) const {
        std::vector<std::span<const T>> s;
        for (int i = 0; i < k; ++i) {
            s.emplace_back(shards[static_cast<std::size_t>(i)]);
        }
        return s;
    }
    [[nodiscard]] std::vector<std::span<T>> parity_spans(int k) {
        std::vector<std::span<T>> s;
        for (std::size_t i = static_cast<std::size_t>(k); i < shards.size();
             ++i) {
            s.emplace_back(shards[i]);
        }
        return s;
    }
    [[nodiscard]] std::vector<std::span<T>> all_spans() {
        std::vector<std::span<T>> s;
        for (auto& sh : shards) {
            s.emplace_back(sh);
        }
        return s;
    }
};

/// Brute-force reference decoder: rebuilds the k data shards from any k
/// survivors by Gaussian elimination with back-substitution on the
/// augmented system M * D = S (M the survivor rows of [I ; P], S the
/// survivor symbols).  Shares nothing with rs::invert — forward
/// elimination plus back-substitution on an augmented tableau, not
/// Gauss-Jordan on an identity block.
template <typename T>
std::vector<std::vector<T>> reference_decode(const field::FieldOps& ops,
                                             const Matrix& parity, int n, int k,
                                             const std::vector<std::vector<T>>& shards,
                                             const std::vector<bool>& present) {
    std::vector<int> survivors;
    for (int i = 0; i < n && static_cast<int>(survivors.size()) < k; ++i) {
        if (present[static_cast<std::size_t>(i)]) {
            survivors.push_back(i);
        }
    }
    EXPECT_EQ(static_cast<int>(survivors.size()), k) << "not enough survivors";
    const std::size_t len = shards[0].size();
    // Augmented tableau: k rows of [ M | S ], one symbol column per
    // position in the stripe.
    std::vector<std::vector<std::uint64_t>> aug(
        static_cast<std::size_t>(k),
        std::vector<std::uint64_t>(static_cast<std::size_t>(k) + len, 0));
    for (int t = 0; t < k; ++t) {
        auto& row = aug[static_cast<std::size_t>(t)];
        const int s = survivors[static_cast<std::size_t>(t)];
        if (s < k) {
            row[static_cast<std::size_t>(s)] = 1;
        } else {
            for (int c = 0; c < k; ++c) {
                row[static_cast<std::size_t>(c)] = parity.at(s - k, c);
            }
        }
        const auto& sh = shards[static_cast<std::size_t>(s)];
        for (std::size_t j = 0; j < len; ++j) {
            row[static_cast<std::size_t>(k) + j] = sh[j];
        }
    }
    // Forward elimination to row echelon form.
    for (int col = 0; col < k; ++col) {
        int pivot = -1;
        for (int r = col; r < k; ++r) {
            if (aug[static_cast<std::size_t>(r)][static_cast<std::size_t>(col)] != 0) {
                pivot = r;
                break;
            }
        }
        EXPECT_GE(pivot, 0) << "survivor matrix singular — not MDS";
        std::swap(aug[static_cast<std::size_t>(col)],
                  aug[static_cast<std::size_t>(pivot)]);
        const std::uint64_t inv_p = ops.inv(
            aug[static_cast<std::size_t>(col)][static_cast<std::size_t>(col)]);
        for (auto& v : aug[static_cast<std::size_t>(col)]) {
            v = ops.mul(inv_p, v);
        }
        for (int r = col + 1; r < k; ++r) {
            const std::uint64_t f =
                aug[static_cast<std::size_t>(r)][static_cast<std::size_t>(col)];
            if (f == 0) {
                continue;
            }
            for (std::size_t c = 0; c < aug[0].size(); ++c) {
                aug[static_cast<std::size_t>(r)][c] ^=
                    ops.mul(f, aug[static_cast<std::size_t>(col)][c]);
            }
        }
    }
    // Back-substitution.
    for (int col = k - 1; col > 0; --col) {
        for (int r = 0; r < col; ++r) {
            const std::uint64_t f =
                aug[static_cast<std::size_t>(r)][static_cast<std::size_t>(col)];
            if (f == 0) {
                continue;
            }
            for (std::size_t c = 0; c < aug[0].size(); ++c) {
                aug[static_cast<std::size_t>(r)][c] ^=
                    ops.mul(f, aug[static_cast<std::size_t>(col)][c]);
            }
        }
    }
    std::vector<std::vector<T>> out(static_cast<std::size_t>(k),
                                    std::vector<T>(len));
    for (int i = 0; i < k; ++i) {
        for (std::size_t j = 0; j < len; ++j) {
            out[static_cast<std::size_t>(i)][j] = static_cast<T>(
                aug[static_cast<std::size_t>(i)][static_cast<std::size_t>(k) + j]);
        }
    }
    return out;
}

/// Encode a stripe, erase per-mask, decode, and demand bit-identity.
template <typename T>
void exhaustive_erasure_sweep(const Field& f, GeneratorKind kind) {
    constexpr int kN = 12;
    constexpr int kK = 8;
    constexpr std::size_t kLen = 48;
    Xorshift64Star rng{0xE4A5E5EEDULL ^ static_cast<std::uint64_t>(kind)};
    const Codec codec{f.ops(), kN, kK, kind};

    Stripe<T> stripe{f, kN, kK, kLen, rng};
    codec.encode(stripe.data_spans(kK), stripe.parity_spans(kK));
    const std::vector<std::vector<T>> golden = stripe.shards;

    int patterns = 0;
    for (std::uint32_t mask = 0; mask < (1U << kN); ++mask) {
        if (std::popcount(mask) > kN - kK) {
            continue;
        }
        ++patterns;
        Stripe<T> work = stripe;
        std::vector<bool> present(kN, true);
        for (int i = 0; i < kN; ++i) {
            if ((mask >> i) & 1U) {
                present[static_cast<std::size_t>(i)] = false;
                // Poison the erased shard so a decoder that "recovers" by
                // reading stale bytes fails loudly.
                std::fill(work.shards[static_cast<std::size_t>(i)].begin(),
                          work.shards[static_cast<std::size_t>(i)].end(),
                          static_cast<T>(0x55));
            }
        }
        codec.decode(work.all_spans(), present);
        for (int i = 0; i < kN; ++i) {
            ASSERT_EQ(work.shards[static_cast<std::size_t>(i)],
                      golden[static_cast<std::size_t>(i)])
                << "mask=" << mask << " shard=" << i;
        }
    }
    // 1 + 12 + 66 + 220 + 495 subsets of size <= 4.
    EXPECT_EQ(patterns, 794);
}

TEST(RsCodec, ExhaustiveErasuresGf256Cauchy) {
    exhaustive_erasure_sweep<std::uint8_t>(field::gf256_paper_field(),
                                           GeneratorKind::Cauchy);
}

TEST(RsCodec, ExhaustiveErasuresGf256Vandermonde) {
    exhaustive_erasure_sweep<std::uint8_t>(field::gf256_paper_field(),
                                           GeneratorKind::Vandermonde);
}

TEST(RsCodec, ExhaustiveErasuresGf65536Cauchy) {
    exhaustive_erasure_sweep<std::uint16_t>(gf2_16_field(),
                                            GeneratorKind::Cauchy);
}

TEST(RsCodec, ExhaustiveErasuresGf65536Vandermonde) {
    exhaustive_erasure_sweep<std::uint16_t>(gf2_16_field(),
                                            GeneratorKind::Vandermonde);
}

/// Randomized large stripes vs the independent Gaussian reference.
template <typename T>
void random_large_stripes(const Field& f, GeneratorKind kind,
                          std::uint64_t seed) {
    constexpr int kN = 14;
    constexpr int kK = 10;
    constexpr std::size_t kLen = 1 << 12;
    Xorshift64Star rng{seed};
    const Codec codec{f.ops(), kN, kK, kind};

    for (int round = 0; round < 6; ++round) {
        Stripe<T> stripe{f, kN, kK, kLen, rng};
        codec.encode(stripe.data_spans(kK), stripe.parity_spans(kK));
        const std::vector<std::vector<T>> golden = stripe.shards;

        // Random erasure pattern: 1..n-k losses.
        std::vector<int> idx(kN);
        std::iota(idx.begin(), idx.end(), 0);
        for (int i = kN - 1; i > 0; --i) {
            std::swap(idx[static_cast<std::size_t>(i)],
                      idx[static_cast<std::size_t>(rng.next() %
                                                   static_cast<std::uint64_t>(i + 1))]);
        }
        const int losses = 1 + static_cast<int>(rng.next() % (kN - kK));
        std::vector<bool> present(kN, true);
        for (int i = 0; i < losses; ++i) {
            present[static_cast<std::size_t>(idx[static_cast<std::size_t>(i)])] =
                false;
        }

        // Independent reference rebuilds the data block from survivors.
        const auto ref_data = reference_decode<T>(f.ops(), codec.parity_matrix(),
                                                  kN, kK, stripe.shards, present);
        for (int i = 0; i < kK; ++i) {
            ASSERT_EQ(ref_data[static_cast<std::size_t>(i)],
                      golden[static_cast<std::size_t>(i)])
                << "reference decoder disagrees with the original data";
        }

        Stripe<T> work = stripe;
        for (int i = 0; i < kN; ++i) {
            if (!present[static_cast<std::size_t>(i)]) {
                std::fill(work.shards[static_cast<std::size_t>(i)].begin(),
                          work.shards[static_cast<std::size_t>(i)].end(),
                          static_cast<T>(1));
            }
        }
        codec.decode(work.all_spans(), present);
        for (int i = 0; i < kN; ++i) {
            ASSERT_EQ(work.shards[static_cast<std::size_t>(i)],
                      golden[static_cast<std::size_t>(i)])
                << "round=" << round << " shard=" << i;
        }
    }
}

TEST(RsCodec, RandomLargeStripesGf256VsGaussianReference) {
    random_large_stripes<std::uint8_t>(field::gf256_paper_field(),
                                       GeneratorKind::Cauchy, 0xBADC0DE1);
    random_large_stripes<std::uint8_t>(field::gf256_paper_field(),
                                       GeneratorKind::Vandermonde, 0xBADC0DE2);
}

TEST(RsCodec, RandomLargeStripesGf65536VsGaussianReference) {
    random_large_stripes<std::uint16_t>(gf2_16_field(), GeneratorKind::Cauchy,
                                        0xBADC0DE3);
    random_large_stripes<std::uint16_t>(gf2_16_field(),
                                        GeneratorKind::Vandermonde, 0xBADC0DE4);
}

TEST(RsCodec, U64LayoutRoundTripsAnySingleWordField) {
    // One canonical element per u64 word: the layout every m <= 64 field
    // supports, including GF(2^16) next to its dense u16 layout.
    Xorshift64Star rng{0x60D15EEDULL};
    for (const Field& f : {gf2_16_field(), Field::type2(64, 23)}) {
        const Codec codec{f.ops(), 9, 6};
        Stripe<std::uint64_t> stripe{f, 9, 6, 257, rng};
        codec.encode(stripe.data_spans(6), stripe.parity_spans(6));
        const auto golden = stripe.shards;
        std::vector<bool> present{true, false, true, true, false, true,
                                  true, false, true};
        for (int i = 0; i < 9; ++i) {
            if (!present[static_cast<std::size_t>(i)]) {
                std::fill(stripe.shards[static_cast<std::size_t>(i)].begin(),
                          stripe.shards[static_cast<std::size_t>(i)].end(), 0);
            }
        }
        codec.decode(stripe.all_spans(), present);
        EXPECT_EQ(stripe.shards, golden) << f.to_string();
    }
}

TEST(RsCodec, ForcedScalarMatchesAutoKernels) {
    // The SIMD encode/decode paths must be bit-identical to forced scalar
    // — the same known answer perfbench `rs` checks.
    Xorshift64Star rng{0x5CA1A45EEDULL};
    const Field f8 = field::gf256_paper_field();
    const Codec fast{f8.ops(), 12, 8};
    const Codec slow{f8.ops(), 12, 8, GeneratorKind::Cauchy,
                     bulk::KernelKind::Scalar};

    Stripe<std::uint8_t> a{f8, 12, 8, 4097, rng};
    Stripe<std::uint8_t> b = a;
    fast.encode(a.data_spans(8), a.parity_spans(8));
    slow.encode(b.data_spans(8), b.parity_spans(8));
    EXPECT_EQ(a.shards, b.shards);

    std::vector<bool> present(12, true);
    present[0] = present[5] = present[9] = present[11] = false;
    for (auto* s : {&a, &b}) {
        for (int i : {0, 5, 9, 11}) {
            std::fill(s->shards[static_cast<std::size_t>(i)].begin(),
                      s->shards[static_cast<std::size_t>(i)].end(), 0xFF);
        }
    }
    fast.decode(a.all_spans(), present);
    slow.decode(b.all_spans(), present);
    EXPECT_EQ(a.shards, b.shards);
}

// --- Matrix tier -------------------------------------------------------------

TEST(RsMatrix, EverySurvivorSubmatrixInvertible) {
    // MDS means ANY k rows of [I ; P] are invertible: all C(12,8) = 495
    // survivor subsets, both families, both fields.
    for (const Field& f : {field::gf256_paper_field(), gf2_16_field()}) {
        for (const GeneratorKind kind :
             {GeneratorKind::Cauchy, GeneratorKind::Vandermonde}) {
            constexpr int kN = 12;
            constexpr int kK = 8;
            const Matrix p = kind == GeneratorKind::Cauchy
                                 ? rs::cauchy_parity_matrix(f.ops(), kN, kK)
                                 : rs::vandermonde_parity_matrix(f.ops(), kN, kK);
            int subsets = 0;
            for (std::uint32_t mask = 0; mask < (1U << kN); ++mask) {
                if (std::popcount(mask) != kK) {
                    continue;
                }
                ++subsets;
                Matrix m(kK, kK);
                int row = 0;
                for (int i = 0; i < kN; ++i) {
                    if (!((mask >> i) & 1U)) {
                        continue;
                    }
                    if (i < kK) {
                        m.at(row, i) = 1;
                    } else {
                        for (int c = 0; c < kK; ++c) {
                            m.at(row, c) = p.at(i - kK, c);
                        }
                    }
                    ++row;
                }
                const Matrix inv = rs::invert(f.ops(), m);
                // Spot-check M * inv(M) = I on the diagonal corners.
                const Matrix prod = rs::mat_mul(f.ops(), m, inv);
                ASSERT_EQ(prod.at(0, 0), 1U);
                ASSERT_EQ(prod.at(kK - 1, kK - 1), 1U);
                ASSERT_EQ(prod.at(0, kK - 1), 0U);
            }
            EXPECT_EQ(subsets, 495);
        }
    }
}

TEST(RsMatrix, InverseRoundTripsRandomMatrices) {
    const Field f = gf2_16_field();
    Xorshift64Star rng{0x1237EA5EEDULL};
    for (int round = 0; round < 8; ++round) {
        Matrix m(5, 5);
        for (auto& v : m.a) {
            v = testutil::random_word_element(f, rng);
        }
        Matrix inv;
        try {
            inv = rs::invert(f.ops(), m);
        } catch (const std::invalid_argument&) {
            continue;  // genuinely singular random draw
        }
        const Matrix prod = rs::mat_mul(f.ops(), m, inv);
        for (int i = 0; i < 5; ++i) {
            for (int j = 0; j < 5; ++j) {
                ASSERT_EQ(prod.at(i, j), i == j ? 1U : 0U);
            }
        }
    }
}

TEST(RsMatrix, ErrorPaths) {
    const Field f = field::gf256_paper_field();
    expect_invalid([&] { (void)rs::cauchy_parity_matrix(f.ops(), 4, 4); },
                   "rs: requires 1 <= k < n");
    expect_invalid([&] { (void)rs::cauchy_parity_matrix(f.ops(), 4, 0); },
                   "rs: requires 1 <= k < n");
    expect_invalid([&] { (void)rs::vandermonde_parity_matrix(f.ops(), 3, 5); },
                   "rs: requires 1 <= k < n");
    // n must fit in the field: GF(2^4) has only 16 elements.
    const Field f4{gf2::preferred_low_weight_modulus(4).value()};
    expect_invalid(
        [&] { (void)rs::cauchy_parity_matrix(f4.ops(), 17, 12); },
        "rs: n exceeds the field size (need n <= 2^m distinct elements)");
    // Multi-word fields have no single-word canonical elements.
    const Field f163 = Field::type2(163, 66);
    expect_invalid([&] { (void)rs::cauchy_parity_matrix(f163.ops(), 12, 8); },
                   "rs: field degree must be <= 64");
    Matrix rect(2, 3);
    expect_invalid([&] { (void)rs::invert(f.ops(), rect); },
                   "rs::invert: matrix must be square");
    Matrix zero(3, 3);
    expect_invalid([&] { (void)rs::invert(f.ops(), zero); },
                   "rs::invert: matrix is singular");
    Matrix a(2, 3);
    Matrix b(2, 3);
    expect_invalid([&] { (void)rs::mat_mul(f.ops(), a, b); },
                   "rs::mat_mul: shape mismatch");
}

// --- Codec error paths -------------------------------------------------------

TEST(RsCodec, ErrorPaths) {
    const Field f = field::gf256_paper_field();
    const Codec codec{f.ops(), 6, 4};
    std::vector<std::vector<std::uint8_t>> bufs(
        6, std::vector<std::uint8_t>(8, 0));
    auto data = [&](int count) {
        std::vector<std::span<const std::uint8_t>> s;
        for (int i = 0; i < count; ++i) {
            s.emplace_back(bufs[static_cast<std::size_t>(i)]);
        }
        return s;
    };
    auto spans = [&](int count) {
        std::vector<std::span<std::uint8_t>> s;
        for (int i = 0; i < count; ++i) {
            s.emplace_back(bufs[static_cast<std::size_t>(i)]);
        }
        return s;
    };
    expect_invalid([&] { codec.encode(data(3), spans(2)); },
                   "rs::Codec::encode: expected k data shards");
    expect_invalid([&] { codec.encode(data(4), spans(3)); },
                   "rs::Codec::encode: expected n-k parity shards");
    std::vector<std::uint8_t> short_buf(4);
    {
        auto d = data(4);
        d[2] = std::span<const std::uint8_t>{short_buf};
        auto p = spans(2);
        expect_invalid([&] { codec.encode(d, p); },
                       "rs::Codec: shard lengths differ");
    }
    expect_invalid([&] { codec.decode(spans(5), std::vector<bool>(5, true)); },
                   "rs::Codec::decode: expected n shards");
    expect_invalid([&] { codec.decode(spans(6), std::vector<bool>(5, true)); },
                   "rs::Codec::decode: present flags must have n entries");
    {
        std::vector<bool> few(6, false);
        few[0] = few[1] = few[2] = true;
        expect_invalid([&] { codec.decode(spans(6), few); },
                       "rs::Codec::decode: fewer than k shards present");
    }
    // Wrong layout for the field degree trips the RegionEngine gate.
    const Field f16 = gf2_16_field();
    const Codec c16{f16.ops(), 6, 4};
    EXPECT_THROW(c16.encode(data(4), spans(2)), std::invalid_argument);
}

}  // namespace
}  // namespace gfr
