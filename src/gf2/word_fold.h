#ifndef GFR_GF2_WORD_FOLD_H
#define GFR_GF2_WORD_FOLD_H

// Word-level reduction modulo a fixed sparse polynomial over GF(2).
//
// The paper's premise is that sparse (trinomial / pentanomial) moduli admit
// cheap shift-XOR reduction.  WordFold precomputes the modulus's support
// once and reduces a raw word span by folding every excess bit (exponent
// >= m) down through the tail exponents, P mod f == P mod y^m + E * (f - y^m),
// instead of Poly's bit-serial divmod.  It is the one reduction under both
// of its callers:
//
//   - field::FieldOps: the multi-word mul, sqr and inv, and the region
//     engine through FieldOps::reduce_words;
//   - gf2::is_irreducible: the chain of m squarings in Rabin's test.
//
// The fold is defined in this header, so both callers' translation units
// compile the same body.

#include "gf2/clmul.h"
#include "gf2/gf2_poly.h"

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace gfr::gf2 {

/// dst (2n words) = square of (src, n words): interleave each bit with zero.
/// With PCLMULQDQ, w x w is the interleave in one instruction.
inline void spread_words(const std::uint64_t* src, std::size_t n,
                         std::uint64_t* dst) noexcept {
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t w = src[i];
#if defined(GFR_USE_PCLMUL) && defined(__PCLMUL__)
        detail::clmul64(w, w, dst[2 * i + 1], dst[2 * i]);
#else
        dst[2 * i] = detail::spread32(static_cast<std::uint32_t>(w));
        dst[2 * i + 1] = detail::spread32(static_cast<std::uint32_t>(w >> 32));
#endif
    }
}

class WordFold {
public:
    /// Precompute the fold for `modulus` (reduce_words needs its degree m to
    /// be >= 1).  On a build compiled for PCLMULQDQ, throws
    /// std::runtime_error when this CPU lacks it, rather than SIGILL on the
    /// first fold.
    explicit WordFold(const Poly& modulus);

    /// Support of the modulus below y^m, ascending.
    [[nodiscard]] std::span<const int> tails() const noexcept { return tails_; }

    /// In-place word-span reduction: fold every bit >= m of p (pn words)
    /// down through the modulus tails, leaving the canonical residue in the
    /// low ceil(m/64) words and zeros above.  Requires pn >= ceil(m/64) + 1
    /// so tail spill of the boundary word stays in bounds.
    void reduce_words(std::uint64_t* p, std::size_t pn) const noexcept {
        const int top = m_ % 64;  // 0: the element boundary is word-aligned
        const auto mdiv = static_cast<std::size_t>(m_ / 64);
        const std::size_t first_full = (top != 0) ? mdiv + 1 : mdiv;
#if defined(GFR_USE_PCLMUL) && defined(__PCLMUL__)
        // Single-pass carry-less fold: walk the excess words top-down; the
        // word w at index i carries exponents 64i..64i+63, eliminated by
        // XORing w at bit s = 64i - m (constant tail) plus one clmul of w
        // with the packed nonzero-tail cluster deposited at s +
        // cluster_shift.  Every deposit lands strictly below word i (largest
        // tail below m - 63), so the descending scan absorbs re-spills in
        // the same pass and the partial boundary word finishes without
        // looping.  Dense or high-tailed moduli fall through to the generic
        // shift-XOR path.
        if (cluster_fold_ok_) {
            // (hi:lo) XOR-deposited at bit position s; high writes past the
            // value's true top XOR zeros, with one guard keeping them in
            // bounds.
            const auto deposit = [p, pn](std::uint64_t lo, std::uint64_t hi,
                                         std::size_t s) {
                const std::size_t ws = s / 64;
                const int bs = static_cast<int>(s % 64);
                if (bs == 0) {
                    p[ws] ^= lo;
                    p[ws + 1] ^= hi;
                } else {
                    p[ws] ^= lo << bs;
                    p[ws + 1] ^= (lo >> (64 - bs)) ^ (hi << bs);
                    if (ws + 2 < pn) {
                        p[ws + 2] ^= hi >> (64 - bs);
                    }
                }
            };
            for (std::size_t i = pn; i-- > first_full;) {
                const std::uint64_t w = p[i];
                if (w == 0) {
                    continue;
                }
                p[i] = 0;
                const auto s = static_cast<std::size_t>(static_cast<long>(i) * 64 - m_);
                std::uint64_t hi = 0;
                std::uint64_t lo = 0;
                detail::clmul64(w, cluster_mask_, hi, lo);
                deposit(w, 0, s);
                deposit(lo, hi, s + static_cast<std::size_t>(cluster_shift_));
            }
            if (top != 0) {
                const std::uint64_t w = p[mdiv] >> top;
                if (w != 0) {
                    p[mdiv] &= (std::uint64_t{1} << top) - 1;
                    std::uint64_t hi = 0;
                    std::uint64_t lo = 0;
                    detail::clmul64(w, cluster_mask_, hi, lo);
                    p[0] ^= w;
                    deposit(lo, hi, static_cast<std::size_t>(cluster_shift_));
                }
            }
            return;
        }
#endif
        // One pass folds every excess word top-down; for the catalog's
        // sparse moduli (largest tail well below m - 64) nothing re-spills
        // and the second pass just verifies.  Dense or high-tailed moduli
        // re-deposit excess bits, which the outer loop picks up again.
        for (;;) {
            bool any = false;
            for (std::size_t i = pn; i-- > first_full;) {
                const std::uint64_t w = p[i];
                if (w == 0) {
                    continue;
                }
                p[i] = 0;
                any = true;
                const auto base = static_cast<long>(i) * 64 - m_;
                for (const int t : tails_) {
                    const auto sh = static_cast<std::size_t>(base + t);
                    const auto ws = sh / 64;
                    const int bs = static_cast<int>(sh % 64);
                    p[ws] ^= w << bs;
                    if (bs != 0) {
                        p[ws + 1] ^= w >> (64 - bs);
                    }
                }
            }
            if (top != 0) {
                const std::uint64_t w = p[mdiv] >> top;
                if (w != 0) {
                    any = true;
                    p[mdiv] &= (std::uint64_t{1} << top) - 1;
                    for (const int t : tails_) {
                        const auto ws = static_cast<std::size_t>(t) / 64;
                        const int bs = t % 64;
                        p[ws] ^= w << bs;
                        if (bs != 0) {
                            p[ws + 1] ^= w >> (64 - bs);
                        }
                    }
                }
            }
            if (!any) {
                return;
            }
        }
    }

private:
    int m_ = 0;
    std::vector<int> tails_;  ///< support of the modulus below y^m
    // Nonzero tails packed as one word shifted down by their minimum
    // exponent: a type II pentanomial's {n, n+1, n+2} cluster (or a
    // trinomial's single tail) folds with ONE carry-less multiply deposited
    // at bit n, plus a direct XOR for the constant tail.
    std::uint64_t cluster_mask_ = 0;  ///< (f - y^m - 1) >> cluster_shift_
    int cluster_shift_ = 0;           ///< smallest nonzero tail exponent
    bool cluster_fold_ok_ = false;    ///< fast single-pass fold applicable
};

}  // namespace gfr::gf2

#endif  // GFR_GF2_WORD_FOLD_H
