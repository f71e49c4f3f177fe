#include "gf2/irreducibility.h"

#include "gf2/word_fold.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>

namespace gfr::gf2 {

namespace {

// Product of two polynomials whose degrees sum below 64.
constexpr std::uint64_t mul_small(std::uint64_t a, std::uint64_t b) {
    std::uint64_t r = 0;
    for (; b != 0; b &= b - 1) {
        r ^= a << std::countr_zero(b);
    }
    return r;
}

// P, the product of the twelve irreducibles of degree 2-5 (one of degree
// 2, two of 3, three of 4, six of 5).  Degree-1 factors are the cheap
// rejections' concern.
constexpr std::uint64_t kSmallFactors = [] {
    std::uint64_t p = 1;
    for (const std::uint64_t g : {0b111, 0b1011, 0b1101, 0b10011, 0b11001, 0b11111, 0b100101,
                                  0b101001, 0b101111, 0b110111, 0b111011, 0b111101}) {
        p = mul_small(p, g);
    }
    return p;
}();
constexpr int kSmallFactorsDegree = std::bit_width(kSmallFactors) - 1;
static_assert(kSmallFactorsDegree == 50);

// kByteFold[t] = t y^50 mod P: folds the byte a residue shifts past y^50.
constexpr std::array<std::uint64_t, 256> kByteFold = [] {
    std::array<std::uint64_t, 256> table{};
    for (std::uint64_t t = 0; t < 256; ++t) {
        std::uint64_t v = t << kSmallFactorsDegree;
        for (int bit = kSmallFactorsDegree + 7; bit >= kSmallFactorsDegree; --bit) {
            if ((v >> bit) & 1U) {
                v ^= kSmallFactors << (bit - kSmallFactorsDegree);
            }
        }
        table[t] = v;
    }
    return table;
}();

// f mod P, a byte at a time from the top (a CRC with generator P).
std::uint64_t mod_small_factors(std::span<const std::uint64_t> words) {
    constexpr int kKeep = kSmallFactorsDegree - 8;  // residue bits that shift in place
    std::uint64_t r = 0;
    for (auto w = words.rbegin(); w != words.rend(); ++w) {
        for (int s = 56; s >= 0; s -= 8) {
            r = ((r & ((std::uint64_t{1} << kKeep) - 1)) << 8) ^ ((*w >> s) & 0xFF) ^
                kByteFold[r >> kKeep];
        }
    }
    return r;
}

// gcd of two polynomials of one word each, by Euclid.
std::uint64_t gcd_small(std::uint64_t a, std::uint64_t b) {
    while (b != 0) {
        const int db = std::bit_width(b) - 1;
        for (int da = std::bit_width(a) - 1; da >= db; da = std::bit_width(a) - 1) {
            a ^= b << (da - db);
        }
        std::swap(a, b);
    }
    return a;
}

}  // namespace

std::vector<int> distinct_prime_factors(int n) {
    if (n < 1) {
        throw std::invalid_argument{"distinct_prime_factors: n must be >= 1"};
    }
    std::vector<int> out;
    for (int p = 2; static_cast<long long>(p) * p <= n; ++p) {
        if (n % p == 0) {
            out.push_back(p);
            while (n % p == 0) {
                n /= p;
            }
        }
    }
    if (n > 1) {
        out.push_back(n);
    }
    return out;
}

bool is_irreducible(const Poly& f) {
    const int m = f.degree();
    if (m <= 0) {
        return false;
    }
    if (m == 1) {
        return true;
    }
    // A polynomial with zero constant term is divisible by y; an even-weight
    // polynomial is divisible by (y + 1).  Cheap rejections first.
    if (!f.coeff(0) || f.weight() % 2 == 0) {
        return false;
    }
    // A factor of degree 2-5 shows in gcd(f mod P, P).  Above degree 5 an
    // irreducible f shares none with P; at or below it f may divide P.
    if (m > 5 && gcd_small(mod_small_factors(f.words()), kSmallFactors) != 1) {
        return false;
    }

    // One chain of m squarings, y -> y^2 -> ... -> y^(2^m) mod f, on raw
    // words: spread, then fold.  As it passes i = m/p it snapshots
    // y^(2^(m/p)) for every prime p of m, for condition (2).
    const WordFold fold{f};
    const std::vector<int> primes = distinct_prime_factors(m);
    const auto mw = static_cast<std::size_t>(m + 63) / 64;  // words per residue
    const std::size_t bufn = 2 * mw;                         // a square, unfolded
    std::vector<std::uint64_t> words(2 * bufn + primes.size() * mw, 0);
    std::uint64_t* cur = words.data();
    std::uint64_t* next = cur + bufn;
    std::uint64_t* snapshots = next + bufn;
    cur[0] = 2;  // y, already reduced since m >= 2
    for (int i = 1; i <= m; ++i) {
        spread_words(cur, mw, next);
        fold.reduce_words(next, bufn);
        std::swap(cur, next);
        for (std::size_t k = 0; k < primes.size(); ++k) {
            if (i == m / primes[k]) {
                std::copy_n(cur, mw, snapshots + k * mw);
            }
        }
    }

    // Condition (1): y^(2^m) == y mod f.
    cur[0] ^= 2;  // y^(2^m) - y
    if (std::any_of(cur, cur + mw, [](std::uint64_t w) { return w != 0; })) {
        return false;
    }
    // Condition (2): no factor of degree dividing m/p survives.
    for (std::size_t k = 0; k < primes.size(); ++k) {
        std::uint64_t* g = snapshots + k * mw;
        g[0] ^= 2;  // y^(2^(m/p)) - y
        if (!Poly::gcd(Poly::from_words(std::span<const std::uint64_t>{g, mw}), f).is_one()) {
            return false;
        }
    }
    return true;
}

}  // namespace gfr::gf2
