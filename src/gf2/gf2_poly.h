#ifndef GFR_GF2_GF2_POLY_H
#define GFR_GF2_GF2_POLY_H

// Dense polynomials over GF(2).
//
// A polynomial f(y) = sum f_k y^k with f_k in {0,1} is stored as a little-endian
// bit vector: bit (k % 64) of word (k / 64) holds f_k.  All arithmetic is
// carry-less: addition is XOR, multiplication is the shift-and-XOR "comb".
//
// This is the base substrate for everything above it: field reduction,
// Mastrovito matrices, irreducibility testing and the pentanomial catalog.

#include <array>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace gfr::gf2 {

namespace detail {

/// Bit-interleave table: byte abcdefgh -> 16-bit a0b0c0d0e0f0g0h0.  Shared by
/// Poly::square_into and the field engine's single-word squaring.
inline constexpr auto kSpread8 = [] {
    std::array<std::uint16_t, 256> table{};
    for (int v = 0; v < 256; ++v) {
        std::uint16_t s = 0;
        for (int bit = 0; bit < 8; ++bit) {
            if ((v >> bit) & 1) {
                s = static_cast<std::uint16_t>(s | (1U << (2 * bit)));
            }
        }
        table[static_cast<std::size_t>(v)] = s;
    }
    return table;
}();

/// Interleave the 32 bits of x with zeros into 64 bits (GF(2) squaring).
inline constexpr std::uint64_t spread32(std::uint32_t x) noexcept {
    return static_cast<std::uint64_t>(kSpread8[x & 0xFF]) |
           (static_cast<std::uint64_t>(kSpread8[(x >> 8) & 0xFF]) << 16) |
           (static_cast<std::uint64_t>(kSpread8[(x >> 16) & 0xFF]) << 32) |
           (static_cast<std::uint64_t>(kSpread8[(x >> 24) & 0xFF]) << 48);
}

}  // namespace detail

/// Small-buffer word storage for Poly.
///
/// Up to kInlineWords words live inside the object, so field elements of
/// every m <= 256 field — and single-word products before reduction — never
/// touch the heap.  Longer polynomials spill to a heap block with amortised
/// doubling, like std::vector.  resize() zero-fills grown words.
class WordVec {
public:
    static constexpr std::size_t kInlineWords = 4;

    // NOLINTNEXTLINE: user-provided (not defaulted) so `const Poly p;` is
    // well-formed without zeroing the inline buffer.
    WordVec() noexcept {}
    WordVec(const WordVec& other) { assign_from(other); }
    WordVec(WordVec&& other) noexcept { steal_from(other); }
    WordVec& operator=(const WordVec& other) {
        if (this != &other) {
            assign_from(other);
        }
        return *this;
    }
    WordVec& operator=(WordVec&& other) noexcept {
        if (this != &other) {
            release();
            steal_from(other);
        }
        return *this;
    }
    ~WordVec() { release(); }

    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] std::uint64_t* data() noexcept { return ptr_; }
    [[nodiscard]] const std::uint64_t* data() const noexcept { return ptr_; }
    std::uint64_t& operator[](std::size_t i) noexcept { return ptr_[i]; }
    std::uint64_t operator[](std::size_t i) const noexcept { return ptr_[i]; }
    [[nodiscard]] std::uint64_t& back() noexcept { return ptr_[size_ - 1]; }
    [[nodiscard]] std::uint64_t back() const noexcept { return ptr_[size_ - 1]; }
    [[nodiscard]] std::uint64_t* begin() noexcept { return ptr_; }
    [[nodiscard]] std::uint64_t* end() noexcept { return ptr_ + size_; }
    [[nodiscard]] const std::uint64_t* begin() const noexcept { return ptr_; }
    [[nodiscard]] const std::uint64_t* end() const noexcept { return ptr_ + size_; }

    void clear() noexcept { size_ = 0; }
    void pop_back() noexcept { --size_; }

    /// Grow (zero-filling the new words) or shrink to n words.
    void resize(std::size_t n) {
        if (n > cap_) {
            grow(n);
        }
        if (n > size_) {
            std::memset(ptr_ + size_, 0, (n - size_) * sizeof(std::uint64_t));
        }
        size_ = n;
    }

    /// Become n copies of value.
    void assign(std::size_t n, std::uint64_t value) {
        if (n > cap_) {
            grow_discard(n);
        }
        if (value == 0) {
            std::memset(ptr_, 0, n * sizeof(std::uint64_t));
        } else {
            for (std::size_t i = 0; i < n; ++i) {
                ptr_[i] = value;
            }
        }
        size_ = n;
    }

    /// Become a copy of the given words.
    void assign(std::span<const std::uint64_t> words) {
        if (words.size() > cap_) {
            grow_discard(words.size());
        }
        if (!words.empty()) {  // an empty span's data() may be null
            std::memmove(ptr_, words.data(), words.size() * sizeof(std::uint64_t));
        }
        size_ = words.size();
    }

    friend bool operator==(const WordVec& a, const WordVec& b) noexcept {
        return a.size_ == b.size_ &&
               std::memcmp(a.ptr_, b.ptr_, a.size_ * sizeof(std::uint64_t)) == 0;
    }

private:
    void release() noexcept {
        if (ptr_ != inline_) {
            delete[] ptr_;
        }
        ptr_ = inline_;
        cap_ = kInlineWords;
        size_ = 0;
    }
    void assign_from(const WordVec& other) {
        if (other.size_ > cap_) {
            grow_discard(other.size_);
        }
        std::memcpy(ptr_, other.ptr_, other.size_ * sizeof(std::uint64_t));
        size_ = other.size_;
    }
    void steal_from(WordVec& other) noexcept {
        if (other.ptr_ != other.inline_) {
            ptr_ = other.ptr_;
            cap_ = other.cap_;
            size_ = other.size_;
            other.ptr_ = other.inline_;
            other.cap_ = kInlineWords;
        } else {
            ptr_ = inline_;
            cap_ = kInlineWords;
            size_ = other.size_;
            std::memcpy(inline_, other.inline_, other.size_ * sizeof(std::uint64_t));
        }
        other.size_ = 0;
    }
    void grow(std::size_t n);          // preserves contents
    void grow_discard(std::size_t n);  // contents unspecified afterwards

    std::size_t size_ = 0;
    std::size_t cap_ = kInlineWords;
    std::uint64_t* ptr_ = inline_;
    std::uint64_t inline_[kInlineWords];
};

/// Reusable scratch arena for the word-level product kernels.
///
/// The Karatsuba layer in Poly::mul_into needs O(n) words of working space
/// for the split-operand sums and intermediate products.  An arena is one
/// growable word buffer handed down the recursion, so steady-state multiplies
/// allocate nothing once the arena has seen the largest operand size.
/// An arena holds no per-modulus or per-operand state: one instance can be
/// reused across arbitrary multiplies, but must not be shared between
/// threads (each thread should own one, or use the thread-local default).
class MulArena {
public:
    /// Pointer to at least `words` words of scratch (contents unspecified).
    std::uint64_t* ensure(std::size_t words) {
        if (words > buf_.size()) {
            buf_.resize(words);
        }
        return buf_.data();
    }

private:
    WordVec buf_;
};

/// Operand size (in 64-bit words) below which Poly::mul_into uses the plain
/// word-level schoolbook instead of recursing with Karatsuba.  The default is
/// tuned by bench/karatsuba_crossover; tests and benches may override it
/// process-wide to force either path or probe the boundary.
[[nodiscard]] int karatsuba_threshold_words() noexcept;
void set_karatsuba_threshold_words(int words);

// --- Raw word-span product ---------------------------------------------------

/// The kernel under Poly::mul_into, exposed over bare spans for callers that
/// manage their own word buffers (the field engine's inversion chain): XORs
/// the product of (a, an words) x (b, bn words) into dest, which the caller
/// supplies zeroed with an + bn words.  Schoolbook with the Karatsuba layer
/// above karatsuba_threshold_words(); recursion scratch comes from `arena`.
void mul_words(const std::uint64_t* a, std::size_t an, const std::uint64_t* b,
               std::size_t bn, std::uint64_t* dest, MulArena& arena);

/// Immutable-by-convention dense GF(2)[y] polynomial.
///
/// Invariant: words_ has no trailing zero word, so degree() is O(1) on the
/// last word and equality is plain word comparison.  The zero polynomial is
/// the empty word vector and has degree() == -1.
class Poly {
public:
    /// The zero polynomial.
    Poly() = default;

    /// y^degree.  Requires degree >= 0.
    static Poly monomial(int degree);

    /// The constant 1.
    static Poly one() { return monomial(0); }

    /// Polynomial with exactly the listed exponents set, e.g. {8,4,3,2,0}.
    /// Duplicate exponents cancel (mod-2 semantics).
    static Poly from_exponents(std::initializer_list<int> exponents);
    static Poly from_exponents(const std::vector<int>& exponents);

    /// Build from raw little-endian words (trailing zeros allowed; normalised).
    static Poly from_words(std::span<const std::uint64_t> words);
    static Poly from_words(std::initializer_list<std::uint64_t> words);

    [[nodiscard]] bool is_zero() const noexcept { return words_.empty(); }
    [[nodiscard]] bool is_one() const noexcept;

    /// Degree of the polynomial; -1 for the zero polynomial.
    [[nodiscard]] int degree() const noexcept;

    /// Coefficient of y^k (k may exceed degree; such coefficients are 0).
    [[nodiscard]] bool coeff(int k) const noexcept;

    /// Set/clear the coefficient of y^k.
    void set_coeff(int k, bool value);

    /// Number of nonzero coefficients.
    [[nodiscard]] int weight() const noexcept;

    /// Exponents with nonzero coefficient, ascending.
    [[nodiscard]] std::vector<int> support() const;

    /// Raw words, little-endian, normalised (no trailing zero word).
    [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
        return {words_.data(), words_.size()};
    }

    /// Become the polynomial with the given raw words (trailing zeros
    /// allowed; normalised), reusing capacity.  The allocation-free sibling
    /// of from_words for hot paths that own a scratch word buffer.
    void assign_words(std::span<const std::uint64_t> words);

    // --- Ring operations -------------------------------------------------

    friend Poly operator+(const Poly& a, const Poly& b);   // XOR of coefficients
    Poly& operator+=(const Poly& rhs);

    friend Poly operator*(const Poly& a, const Poly& b);   // carry-less product

    friend Poly operator<<(const Poly& a, int shift);      // multiply by y^shift
    friend Poly operator>>(const Poly& a, int shift);      // drop low terms

    friend bool operator==(const Poly& a, const Poly& b) = default;

    /// Square in GF(2)[y]: interleave coefficients with zeros (Frobenius).
    [[nodiscard]] Poly square() const;

    // --- Allocation-free kernels -----------------------------------------
    //
    // These mutate word storage in place (or reuse the capacity of an output
    // polynomial across calls), so hot loops — field reduction, modular
    // exponentiation, verification sweeps — stop churning the allocator.
    // Output parameters must not alias the inputs unless stated otherwise.

    /// *this += p * y^shift, without materialising the shifted copy.
    /// Grows storage only when the result outgrows current capacity.
    void add_shifted(const Poly& p, int shift);

    /// out = a * b reusing out's capacity.  One carry-less 64x64 product per
    /// word pair (word-level schoolbook), with a Karatsuba layer on
    /// word-aligned splits once both operands exceed
    /// karatsuba_threshold_words().  Scratch for the Karatsuba recursion
    /// comes from `arena`; in steady state (arena warmed, out capacity
    /// sufficient) the call does not allocate.  out may alias neither a nor b
    /// (checked; falls back to a temporary if it does).
    static void mul_into(const Poly& a, const Poly& b, Poly& out, MulArena& arena);

    /// mul_into using a thread-local default arena.
    static void mul_into(const Poly& a, const Poly& b, Poly& out);

    /// out = a * b via word-level schoolbook only (no Karatsuba layer) — the
    /// PR-1 engine product, kept callable for crossover benching and for
    /// boundary tests pinning the Karatsuba layer to it.
    static void mul_schoolbook_into(const Poly& a, const Poly& b, Poly& out);

    /// out = a * b via the bit-serial shift-and-XOR comb.  Deliberately
    /// shares no code with the word-level kernels (no clmul, no Karatsuba):
    /// this is the independent reference product that differential tests and
    /// Field::mul_reference cross-check the fast paths against, in the spirit
    /// of formal GF(2^m) verification work (Yu & Ciesielski).
    static void mul_comb_into(const Poly& a, const Poly& b, Poly& out);

    /// out = a * a reusing out's capacity.  out must not alias a.
    static void square_into(const Poly& a, Poly& out);

    /// out = a >> shift reusing out's capacity.  out must not alias a.
    static void shr_into(const Poly& a, int shift, Poly& out);

    /// Drop all coefficients with exponent >= bits (keep the low `bits`).
    void truncate(int bits);

    /// Become the single-word polynomial with bit pattern `word`, reusing
    /// capacity.  The workhorse of the m <= 64 fast field path.
    void assign_word(std::uint64_t word);

    /// In-place division: rem becomes rem mod den; if quot is non-null it
    /// receives the quotient.  The remainder is shift-XORed in place — no
    /// per-iteration temporaries (the seed allocated den << shift each loop).
    /// Requires den != 0; quot must not alias rem or den.
    static void divmod_inplace(Poly& rem, const Poly& den, Poly* quot = nullptr);

    /// Quotient and remainder of num / den.  Requires den != 0.
    static std::pair<Poly, Poly> divmod(const Poly& num, const Poly& den);

    friend Poly operator%(const Poly& a, const Poly& b);
    friend Poly operator/(const Poly& a, const Poly& b);

    /// Greatest common divisor (monic by construction over GF(2)).
    static Poly gcd(Poly a, Poly b);

    /// a * b mod f.  Requires f != 0.
    static Poly mulmod(const Poly& a, const Poly& b, const Poly& f);

    /// a^2 mod f.
    static Poly sqrmod(const Poly& a, const Poly& f);

    /// a^(2^k) mod f via k modular squarings (the Frobenius power of Rabin's
    /// irreducibility test).  With sqrmod, deliberately shares no code with
    /// the word-level fold (gf2::WordFold): square() sets one coefficient per
    /// term and % reduces bit by bit.  This is the independent reference
    /// that the tests rebuild Rabin's test from, to cross-check
    /// gf2::is_irreducible's word-level squaring chain.
    static Poly pow2k_mod(const Poly& a, int k, const Poly& f);

    /// Human-readable form, e.g. "y^8 + y^4 + y^3 + y^2 + 1"; "0" when zero.
    [[nodiscard]] std::string to_string() const;

private:
    void normalize();

    WordVec words_;
};

}  // namespace gfr::gf2

#endif  // GFR_GF2_GF2_POLY_H
