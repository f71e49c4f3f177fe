#include "gf2/irreducibility.h"

#include "gf2/word_fold.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>

namespace gfr::gf2 {

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
