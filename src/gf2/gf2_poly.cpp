#include "gf2/gf2_poly.h"

#include "gf2/clmul.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <stdexcept>

namespace gfr::gf2 {

namespace {
constexpr int kWordBits = 64;

// Default Karatsuba crossover, in words per operand (measured by
// bench/karatsuba_crossover, in this build and the portable one).  With
// PCLMULQDQ the word product is a single instruction and schoolbook stays
// competitive longer — the measured crossover sits at 16 words, so operands
// below that never split (15 keeps 9-15-word operands, e.g. NIST m=571, on
// the faster schoolbook) and a 16-word multiply does one split onto 8-word
// schoolbook halves.  The portable comb clmul is ~an order of magnitude
// costlier per word pair, so splitting pays off much earlier there.
#if defined(GFR_USE_PCLMUL) && defined(__PCLMUL__)
constexpr int kDefaultKaratsubaThresholdWords = 15;
#else
constexpr int kDefaultKaratsubaThresholdWords = 2;
#endif

std::atomic<int> g_karatsuba_threshold{kDefaultKaratsubaThresholdWords};

// --- Word-level product kernels ---------------------------------------------
//
// All kernels XOR the product of (a, an words) x (b, bn words) into dest,
// which the caller supplies pre-zeroed with an + bn words.  Working over raw
// word spans keeps the Karatsuba recursion free of Poly bookkeeping and lets
// every temporary live in one caller-owned arena.

/// Schoolbook: one carry-less 64x64 product per word pair.
void school_mul_words(const std::uint64_t* a, std::size_t an, const std::uint64_t* b,
                      std::size_t bn, std::uint64_t* dest) noexcept {
    for (std::size_t i = 0; i < an; ++i) {
        const std::uint64_t ai = a[i];
        if (ai == 0) {
            continue;
        }
        for (std::size_t j = 0; j < bn; ++j) {
            std::uint64_t hi = 0;
            std::uint64_t lo = 0;
            detail::clmul64(ai, b[j], hi, lo);
            dest[i + j] ^= lo;
            dest[i + j + 1] ^= hi;
        }
    }
}

/// Scratch words kara_mul_words may touch for operands of <= n words per
/// side at the given threshold: 4*ceil(n/2) per recursion level (two split
/// sums plus one 2k-word temporary product), summed down the levels.
std::size_t kara_scratch_words(std::size_t n, std::size_t threshold) noexcept {
    std::size_t total = 0;
    while (n > threshold) {
        const std::size_t k = (n + 1) / 2;
        total += 4 * k;
        n = k;
    }
    return total;
}

/// Karatsuba on word-aligned splits.  dest (an + bn words) must be
/// pre-zeroed; scratch must hold kara_scratch_words(max(an, bn), threshold)
/// words.  Recurses until the smaller operand fits the schoolbook threshold.
void kara_mul_words(const std::uint64_t* a, std::size_t an, const std::uint64_t* b,
                    std::size_t bn, std::uint64_t* dest, std::uint64_t* scratch,
                    std::size_t threshold) noexcept {
    if (an < bn) {
        std::swap(a, b);
        std::swap(an, bn);
    }
    if (bn == 0) {
        return;
    }
    if (bn <= threshold) {
        school_mul_words(a, an, b, bn, dest);
        return;
    }
    const std::size_t k = (an + 1) / 2;
    if (bn <= k) {
        // b spans only the low split of a: a*b = a0*b + (a1*b) << 64k, two
        // subproducts with no middle term.  The high part goes through a
        // zeroed temporary because its destination overlaps a0*b's words.
        kara_mul_words(a, k, b, bn, dest, scratch, threshold);
        const std::size_t hi_words = (an - k) + bn;
        std::uint64_t* t = scratch;
        std::memset(t, 0, hi_words * sizeof(std::uint64_t));
        kara_mul_words(a + k, an - k, b, bn, t, scratch + 2 * k, threshold);
        for (std::size_t i = 0; i < hi_words; ++i) {
            dest[k + i] ^= t[i];
        }
        return;
    }
    // Balanced split at k words: a = a0 + a1 X, b = b0 + b1 X with X = y^64k.
    //   z0 = a0*b0, z2 = a1*b1, middle = (a0^a1)(b0^b1) ^ z0 ^ z2.
    // z0 and z2 land in disjoint halves of dest directly; the middle term is
    // built in scratch and XORed in at offset k.
    const std::size_t a1n = an - k;
    const std::size_t b1n = bn - k;
    kara_mul_words(a, k, b, k, dest, scratch, threshold);
    kara_mul_words(a + k, a1n, b + k, b1n, dest + 2 * k, scratch, threshold);
    std::uint64_t* sa = scratch;
    std::uint64_t* sb = scratch + k;
    std::uint64_t* t = scratch + 2 * k;
    for (std::size_t i = 0; i < k; ++i) {
        sa[i] = a[i] ^ (i < a1n ? a[k + i] : 0);
        sb[i] = b[i] ^ (i < b1n ? b[k + i] : 0);
    }
    std::memset(t, 0, 2 * k * sizeof(std::uint64_t));
    kara_mul_words(sa, k, sb, k, t, scratch + 4 * k, threshold);
    for (std::size_t i = 0; i < 2 * k; ++i) {
        t[i] ^= dest[i];  // ^= z0
    }
    for (std::size_t i = 0; i < a1n + b1n; ++i) {
        t[i] ^= dest[2 * k + i];  // ^= z2
    }
    for (std::size_t i = 0; i < 2 * k; ++i) {
        dest[k + i] ^= t[i];
    }
}

}  // namespace

int karatsuba_threshold_words() noexcept {
    return g_karatsuba_threshold.load(std::memory_order_relaxed);
}

void set_karatsuba_threshold_words(int words) {
    g_karatsuba_threshold.store(std::max(words, 1), std::memory_order_relaxed);
}

void mul_words(const std::uint64_t* a, std::size_t an, const std::uint64_t* b,
               std::size_t bn, std::uint64_t* dest, MulArena& arena) {
    const auto threshold = static_cast<std::size_t>(karatsuba_threshold_words());
    if (std::min(an, bn) <= threshold) {
        school_mul_words(a, an, b, bn, dest);
        return;
    }
    std::uint64_t* scratch = arena.ensure(kara_scratch_words(std::max(an, bn), threshold));
    kara_mul_words(a, an, b, bn, dest, scratch, threshold);
}

void WordVec::grow(std::size_t n) {
    const std::size_t new_cap = std::max(n, cap_ * 2);
    auto* block = new std::uint64_t[new_cap];
    std::memcpy(block, ptr_, size_ * sizeof(std::uint64_t));
    if (ptr_ != inline_) {
        delete[] ptr_;
    }
    ptr_ = block;
    cap_ = new_cap;
}

void WordVec::grow_discard(std::size_t n) {
    const std::size_t new_cap = std::max(n, cap_ * 2);
    auto* block = new std::uint64_t[new_cap];
    if (ptr_ != inline_) {
        delete[] ptr_;
    }
    ptr_ = block;
    cap_ = new_cap;
}

void Poly::normalize() {
    while (!words_.empty() && words_.back() == 0) {
        words_.pop_back();
    }
}

Poly Poly::monomial(int degree) {
    if (degree < 0) {
        throw std::invalid_argument{"Poly::monomial: negative degree"};
    }
    Poly p;
    p.words_.assign(static_cast<std::size_t>(degree / kWordBits) + 1, 0);
    p.words_.back() = std::uint64_t{1} << (degree % kWordBits);
    return p;
}

Poly Poly::from_exponents(std::initializer_list<int> exponents) {
    return from_exponents(std::vector<int>{exponents});
}

Poly Poly::from_exponents(const std::vector<int>& exponents) {
    Poly p;
    for (const int e : exponents) {
        p.set_coeff(e, !p.coeff(e));  // duplicates cancel mod 2
    }
    return p;
}

Poly Poly::from_words(std::span<const std::uint64_t> words) {
    Poly p;
    p.words_.assign(words);
    p.normalize();
    return p;
}

Poly Poly::from_words(std::initializer_list<std::uint64_t> words) {
    return from_words(std::span<const std::uint64_t>{words.begin(), words.size()});
}

void Poly::assign_words(std::span<const std::uint64_t> words) {
    words_.assign(words);
    normalize();
}

bool Poly::is_one() const noexcept {
    return words_.size() == 1 && words_[0] == 1;
}

int Poly::degree() const noexcept {
    if (words_.empty()) {
        return -1;
    }
    const int top = static_cast<int>(words_.size()) - 1;
    return top * kWordBits + (kWordBits - 1 - std::countl_zero(words_.back()));
}

bool Poly::coeff(int k) const noexcept {
    if (k < 0) {
        return false;
    }
    const auto w = static_cast<std::size_t>(k / kWordBits);
    if (w >= words_.size()) {
        return false;
    }
    return (words_[w] >> (k % kWordBits)) & 1U;
}

void Poly::set_coeff(int k, bool value) {
    if (k < 0) {
        throw std::invalid_argument{"Poly::set_coeff: negative exponent"};
    }
    const auto w = static_cast<std::size_t>(k / kWordBits);
    if (value) {
        if (w >= words_.size()) {
            words_.resize(w + 1);
        }
        words_[w] |= std::uint64_t{1} << (k % kWordBits);
    } else if (w < words_.size()) {
        words_[w] &= ~(std::uint64_t{1} << (k % kWordBits));
        normalize();
    }
}

int Poly::weight() const noexcept {
    int count = 0;
    for (const auto w : words_) {
        count += std::popcount(w);
    }
    return count;
}

std::vector<int> Poly::support() const {
    std::vector<int> out;
    out.reserve(static_cast<std::size_t>(weight()));
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
        std::uint64_t w = words_[wi];
        while (w != 0) {
            const int bit = std::countr_zero(w);
            out.push_back(static_cast<int>(wi) * kWordBits + bit);
            w &= w - 1;
        }
    }
    return out;
}

Poly operator+(const Poly& a, const Poly& b) {
    Poly out = a;
    out += b;
    return out;
}

Poly& Poly::operator+=(const Poly& rhs) {
    if (rhs.words_.size() > words_.size()) {
        words_.resize(rhs.words_.size());
    }
    for (std::size_t i = 0; i < rhs.words_.size(); ++i) {
        words_[i] ^= rhs.words_[i];
    }
    normalize();
    return *this;
}

Poly operator<<(const Poly& a, int shift) {
    if (shift < 0) {
        throw std::invalid_argument{"Poly::operator<<: negative shift"};
    }
    if (a.is_zero() || shift == 0) {
        return a;
    }
    Poly out;
    out.add_shifted(a, shift);
    return out;
}

Poly operator>>(const Poly& a, int shift) {
    if (shift < 0) {
        throw std::invalid_argument{"Poly::operator>>: negative shift"};
    }
    Poly out;
    Poly::shr_into(a, shift, out);
    return out;
}

Poly operator*(const Poly& a, const Poly& b) {
    Poly out;
    Poly::mul_into(a, b, out);
    return out;
}

void Poly::add_shifted(const Poly& p, int shift) {
    if (shift < 0) {
        throw std::invalid_argument{"Poly::add_shifted: negative shift"};
    }
    if (p.is_zero()) {
        return;
    }
    const int ws = shift / kWordBits;
    const int bs = shift % kWordBits;
    const std::size_t need =
        p.words_.size() + static_cast<std::size_t>(ws) + (bs != 0 ? 1 : 0);
    if (words_.size() < need) {
        words_.resize(need);
    }
    for (std::size_t i = 0; i < p.words_.size(); ++i) {
        words_[i + static_cast<std::size_t>(ws)] ^= p.words_[i] << bs;
        if (bs != 0) {
            words_[i + static_cast<std::size_t>(ws) + 1] ^=
                p.words_[i] >> (kWordBits - bs);
        }
    }
    normalize();
}

void Poly::mul_into(const Poly& a, const Poly& b, Poly& out, MulArena& arena) {
    if (&out == &a || &out == &b) {
        Poly tmp;
        mul_into(a, b, tmp, arena);  // aliasing: fall back to a temporary
        out = std::move(tmp);
        return;
    }
    if (a.is_zero() || b.is_zero()) {
        out.words_.clear();
        return;
    }
    const std::size_t an = a.words_.size();
    const std::size_t bn = b.words_.size();
    out.words_.assign(an + bn, 0);
    mul_words(a.words_.data(), an, b.words_.data(), bn, out.words_.data(), arena);
    out.normalize();
}

void Poly::mul_into(const Poly& a, const Poly& b, Poly& out) {
    static thread_local MulArena arena;
    mul_into(a, b, out, arena);
}

void Poly::mul_schoolbook_into(const Poly& a, const Poly& b, Poly& out) {
    if (&out == &a || &out == &b) {
        Poly tmp;
        mul_schoolbook_into(a, b, tmp);
        out = std::move(tmp);
        return;
    }
    if (a.is_zero() || b.is_zero()) {
        out.words_.clear();
        return;
    }
    out.words_.assign(a.words_.size() + b.words_.size(), 0);
    school_mul_words(a.words_.data(), a.words_.size(), b.words_.data(),
                     b.words_.size(), out.words_.data());
    out.normalize();
}

void Poly::mul_comb_into(const Poly& a, const Poly& b, Poly& out) {
    if (&out == &a || &out == &b) {
        Poly tmp;
        mul_comb_into(a, b, tmp);
        out = std::move(tmp);
        return;
    }
    if (a.is_zero() || b.is_zero()) {
        out.words_.clear();
        return;
    }
    // Comb multiplication: for every set bit of a, XOR a shifted copy of b.
    // Work over raw words; out's capacity is reused across calls.
    const std::size_t out_words =
        static_cast<std::size_t>((a.degree() + b.degree()) / kWordBits) + 1;
    out.words_.assign(out_words + 1, 0);
    auto& acc = out.words_;
    for (std::size_t wi = 0; wi < a.words_.size(); ++wi) {
        std::uint64_t w = a.words_[wi];
        while (w != 0) {
            const int bit = std::countr_zero(w);
            w &= w - 1;
            const int shift = static_cast<int>(wi) * kWordBits + bit;
            const int ws = shift / kWordBits;
            const int bs = shift % kWordBits;
            for (std::size_t bj = 0; bj < b.words_.size(); ++bj) {
                acc[bj + static_cast<std::size_t>(ws)] ^= b.words_[bj] << bs;
                if (bs != 0) {
                    acc[bj + static_cast<std::size_t>(ws) + 1] ^=
                        b.words_[bj] >> (kWordBits - bs);
                }
            }
        }
    }
    out.normalize();
}

void Poly::square_into(const Poly& a, Poly& out) {
    using detail::spread32;
    if (&out == &a) {
        Poly tmp;
        square_into(a, tmp);
        out = std::move(tmp);
        return;
    }
    out.words_.assign(a.words_.size() * 2, 0);
    for (std::size_t i = 0; i < a.words_.size(); ++i) {
        const std::uint64_t w = a.words_[i];
        out.words_[2 * i] = spread32(static_cast<std::uint32_t>(w));
        out.words_[2 * i + 1] = spread32(static_cast<std::uint32_t>(w >> 32));
    }
    out.normalize();
}

void Poly::shr_into(const Poly& a, int shift, Poly& out) {
    if (shift < 0) {
        throw std::invalid_argument{"Poly::shr_into: negative shift"};
    }
    const int word_shift = shift / kWordBits;
    const int bit_shift = shift % kWordBits;
    if (static_cast<std::size_t>(word_shift) >= a.words_.size()) {
        out.words_.clear();
        return;
    }
    out.words_.resize(a.words_.size() - static_cast<std::size_t>(word_shift));
    for (std::size_t i = 0; i < out.words_.size(); ++i) {
        out.words_[i] = a.words_[i + static_cast<std::size_t>(word_shift)] >> bit_shift;
        if (bit_shift != 0 && i + static_cast<std::size_t>(word_shift) + 1 < a.words_.size()) {
            out.words_[i] ^= a.words_[i + static_cast<std::size_t>(word_shift) + 1]
                             << (kWordBits - bit_shift);
        }
    }
    out.normalize();
}

void Poly::truncate(int bits) {
    if (bits <= 0) {
        words_.clear();
        return;
    }
    const auto keep_words = static_cast<std::size_t>((bits + kWordBits - 1) / kWordBits);
    if (words_.size() > keep_words) {
        words_.resize(keep_words);
    }
    const int top = bits % kWordBits;
    if (top != 0 && words_.size() == keep_words) {
        words_.back() &= (std::uint64_t{1} << top) - 1;
    }
    normalize();
}

void Poly::assign_word(std::uint64_t word) {
    if (word == 0) {
        words_.clear();
        return;
    }
    words_.resize(1);
    words_[0] = word;
}

Poly Poly::square() const {
    // Squaring over GF(2) interleaves each coefficient bit with a zero bit.
    Poly out;
    for (const int e : support()) {
        out.set_coeff(2 * e, true);
    }
    return out;
}

void Poly::divmod_inplace(Poly& rem, const Poly& den, Poly* quot) {
    if (den.is_zero()) {
        throw std::invalid_argument{"Poly::divmod: division by zero polynomial"};
    }
    if (quot != nullptr) {
        quot->words_.clear();
    }
    const int dd = den.degree();
    int rd = rem.degree();
    while (rd >= dd) {
        const int shift = rd - dd;
        if (quot != nullptr) {
            quot->set_coeff(shift, true);
        }
        rem.add_shifted(den, shift);  // in-place; no den << shift temporary
        rd = rem.degree();
    }
}

std::pair<Poly, Poly> Poly::divmod(const Poly& num, const Poly& den) {
    Poly rem = num;
    Poly quot;
    divmod_inplace(rem, den, &quot);
    return {std::move(quot), std::move(rem)};
}

Poly operator%(const Poly& a, const Poly& b) {
    Poly rem = a;
    Poly::divmod_inplace(rem, b);
    return rem;
}

Poly operator/(const Poly& a, const Poly& b) { return Poly::divmod(a, b).first; }

Poly Poly::gcd(Poly a, Poly b) {
    while (!b.is_zero()) {
        divmod_inplace(a, b);  // a = a mod b, no quotient
        std::swap(a, b);
    }
    return a;
}

Poly Poly::mulmod(const Poly& a, const Poly& b, const Poly& f) {
    return (a * b) % f;
}

Poly Poly::sqrmod(const Poly& a, const Poly& f) { return a.square() % f; }

Poly Poly::pow2k_mod(const Poly& a, int k, const Poly& f) {
    if (k < 0) {
        throw std::invalid_argument{"Poly::pow2k_mod: negative k"};
    }
    Poly acc = a % f;
    for (int i = 0; i < k; ++i) {
        acc = sqrmod(acc, f);
    }
    return acc;
}

std::string Poly::to_string() const {
    if (is_zero()) {
        return "0";
    }
    std::string out;
    const auto exps = support();
    for (auto it = exps.rbegin(); it != exps.rend(); ++it) {
        if (!out.empty()) {
            out += " + ";
        }
        if (*it == 0) {
            out += "1";
        } else if (*it == 1) {
            out += "y";
        } else {
            out += "y^" + std::to_string(*it);
        }
    }
    return out;
}

}  // namespace gfr::gf2
