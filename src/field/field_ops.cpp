#include "field/field_ops.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace gfr::field {

using detail::clmul64;

FieldOps::FieldOps(gf2::Poly modulus) : modulus_{std::move(modulus)}, m_{modulus_.degree()} {
#if defined(GFR_USE_PCLMUL) && defined(__PCLMUL__) && defined(__GNUC__)
    // Compiled for PCLMULQDQ: fail loudly here rather than SIGILL later when
    // this binary lands on a CPU without it (rebuild with
    // -DGFR_ENABLE_PCLMUL=OFF for a portable binary).
    if (!__builtin_cpu_supports("pclmul")) {
        throw std::runtime_error{
            "FieldOps: built with GFR_USE_PCLMUL but this CPU lacks PCLMULQDQ"};
    }
#endif
    if (m_ < 2) {
        throw std::invalid_argument{"FieldOps: modulus degree must be >= 2"};
    }
    for (const int e : modulus_.support()) {
        if (e < m_) {
            tails_.push_back(e);
        }
    }
    if (m_ <= 64) {
        elem_mask_ = (m_ == 64) ? ~std::uint64_t{0}
                                : ((std::uint64_t{1} << m_) - 1);
        for (const int t : tails_) {
            tails_mask_ |= std::uint64_t{1} << t;
        }
        // Fold-count bound for the branch-free SIMD reduction: starting
        // from the worst canonical product degree 2m-2, each fold replaces
        // degree d with d - m + max_tail, so iterate that recurrence until
        // it drops below m.  Sparse (paper-catalog) moduli converge in 2-3.
        if (!tails_.empty()) {
            const int t_max = tails_.back();
            long d = 2L * m_ - 2;
            int folds = 0;
            while (d >= m_) {
                d = d - m_ + t_max;
                ++folds;
            }
            fold_bound_ = folds > 0 ? folds : 1;
        }
    }
    // Cluster-fold precomputation: constant tail plus one <64-bit cluster of
    // nonzero tails, all far enough below m that a top-down fold never
    // re-deposits at or above the word being folded.
    if (tails_.size() >= 2 && tails_.front() == 0 && tails_.back() < m_ - 63 &&
        tails_.back() - tails_[1] < 64) {
        cluster_shift_ = tails_[1];
        for (std::size_t k = 1; k < tails_.size(); ++k) {
            cluster_mask_ |= std::uint64_t{1} << (tails_[k] - cluster_shift_);
        }
        cluster_fold_ok_ = true;
    }
}

std::uint64_t FieldOps::inv(std::uint64_t a) const {
    a = reduce(0, a);  // canonicalise: a == 0 mod f has no inverse
    if (a == 0) {
        throw std::invalid_argument{"FieldOps::inv: zero has no inverse"};
    }
    // Itoh-Tsujii addition chain on e = m - 1: maintain cur = a^(2^t - 1)
    // and walk e's bits from the second-highest down.  Doubling t costs t
    // squarings and one multiply ("cur^(2^t) * cur"); absorbing a set bit
    // costs one squaring and one multiply by a.  Finish with
    // a^-1 = (a^(2^(m-1) - 1))^2.
    const auto e = static_cast<unsigned>(m_ - 1);
    std::uint64_t cur = a;
    int t = 1;
    for (int i = std::bit_width(e) - 2; i >= 0; --i) {
        std::uint64_t power = cur;
        for (int j = 0; j < t; ++j) {
            power = sqr(power);
        }
        cur = mul(power, cur);
        t *= 2;
        if ((e >> i) & 1U) {
            cur = mul(sqr(cur), a);
            ++t;
        }
    }
    return sqr(cur);
}

std::uint64_t FieldOps::inv_fermat(std::uint64_t a) const {
    a = reduce(0, a);  // canonicalise: a == 0 mod f has no inverse
    if (a == 0) {
        throw std::invalid_argument{"FieldOps::inv_fermat: zero has no inverse"};
    }
    // Fermat: a^(2^m - 2) as the product of the m-1 high squarings.
    std::uint64_t result = 1;
    std::uint64_t power = sqr(a);
    for (int i = 1; i < m_; ++i) {
        result = mul(result, power);
        power = sqr(power);
    }
    return result;
}

namespace {

/// dst (2n words) = square of (src, n words): interleave each bit with zero.
/// With PCLMULQDQ, w x w is the interleave in one instruction.
void spread_words(const std::uint64_t* src, std::size_t n, std::uint64_t* dst) noexcept {
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

}  // namespace

FieldOps::Scratch& FieldOps::thread_scratch() {
    static thread_local Scratch scratch;
    return scratch;
}

void FieldOps::mul(const gf2::Poly& a, const gf2::Poly& b, gf2::Poly& out,
                   Scratch& scratch) const {
    const auto aw = a.words();
    const auto bw = b.words();
    if (single_word() && aw.size() <= 1 && bw.size() <= 1) {
        out.assign_word(mul(aw.empty() ? 0 : aw[0], bw.empty() ? 0 : bw[0]));
        return;
    }
    if (aw.empty() || bw.empty()) {
        out.assign_words({});
        return;
    }
    // Word-level schoolbook with the Karatsuba layer above the crossover
    // (one carry-less 64x64 product per word pair at the base) straight into
    // the scratch word buffer, then fold the excess and hand the canonical
    // words to out in one assignment — no intermediate Poly bookkeeping.
    const std::size_t pn = std::max(aw.size() + bw.size(), elem_words() + 1);
    scratch.wprod.assign(pn, 0);
    gf2::mul_words(aw.data(), aw.size(), bw.data(), bw.size(), scratch.wprod.data(),
                   scratch.arena);
    reduce_words(scratch.wprod.data(), pn);
    out.assign_words({scratch.wprod.data(), std::min(pn, elem_words())});
}

void FieldOps::sqr(const gf2::Poly& a, gf2::Poly& out, Scratch& scratch) const {
    const auto aw = a.words();
    if (single_word() && aw.size() <= 1) {
        out.assign_word(sqr(aw.empty() ? 0 : aw[0]));
        return;
    }
    if (aw.empty()) {
        out.assign_words({});
        return;
    }
    const std::size_t pn = std::max(2 * aw.size(), elem_words() + 1);
    scratch.wtmp.assign(pn, 0);
    spread_words(aw.data(), aw.size(), scratch.wtmp.data());
    reduce_words(scratch.wtmp.data(), pn);
    out.assign_words({scratch.wtmp.data(), std::min(pn, elem_words())});
}

void FieldOps::reduce_words(std::uint64_t* p, std::size_t pn) const noexcept {
    const int top = m_ % 64;  // 0: the element boundary is word-aligned
    const auto mdiv = static_cast<std::size_t>(m_ / 64);
    const std::size_t first_full = (top != 0) ? mdiv + 1 : mdiv;
#if defined(GFR_USE_PCLMUL) && defined(__PCLMUL__)
    // Single-pass carry-less fold: walk the excess words top-down; the word
    // w at index i carries exponents 64i..64i+63, eliminated by XORing w at
    // bit s = 64i - m (constant tail) plus one clmul of w with the packed
    // nonzero-tail cluster deposited at s + cluster_shift.  Every deposit
    // lands strictly below word i (largest tail below m - 63), so the
    // descending scan absorbs re-spills in the same pass and the partial
    // boundary word finishes without looping.  Dense or high-tailed moduli
    // fall through to the generic shift-XOR path.
    if (cluster_fold_ok_) {
        // (hi:lo) XOR-deposited at bit position s; high writes past the
        // value's true top XOR zeros, with one guard keeping them in bounds.
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
    // One pass folds every excess word top-down; for the catalog's sparse
    // moduli (largest tail well below m - 64) nothing re-spills and the
    // second pass just verifies.  Dense or high-tailed moduli re-deposit
    // excess bits, which the outer loop picks up again.
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

void FieldOps::inv(const gf2::Poly& a, gf2::Poly& out, Scratch& scratch) const {
    const auto aw = a.words();
    if (single_word() && aw.size() <= 1) {
        out.assign_word(inv(aw.empty() ? 0 : aw[0]));  // throws on zero
        return;
    }
    scratch.base = a;
    reduce_in_place(scratch.base, scratch);
    if (scratch.base.is_zero()) {
        throw std::invalid_argument{"FieldOps::inv: zero has no inverse"};
    }
    // Itoh-Tsujii addition chain on e = m - 1 (see the single-word overload
    // for the recurrence).  The ~m squarings dominate the chain, so the loop
    // runs on raw word buffers: spread + fold per squaring, mul_words (with
    // its Karatsuba layer) + fold per multiply — no Poly normalize/degree
    // bookkeeping per operation.
    const std::size_t mw = elem_words();
    const std::size_t bufn = 2 * mw;
    scratch.wcur.assign(bufn, 0);
    scratch.wtmp.assign(bufn, 0);
    scratch.wprod.assign(bufn, 0);
    scratch.wsave.assign(bufn, 0);
    const auto bw = scratch.base.words();
    std::copy(bw.begin(), bw.end(), scratch.wcur.begin());

    const auto square_times = [&](int k) {
        for (int j = 0; j < k; ++j) {
            spread_words(scratch.wcur.data(), mw, scratch.wtmp.data());
            reduce_words(scratch.wtmp.data(), bufn);
            std::swap(scratch.wcur, scratch.wtmp);
        }
    };
    const auto mul_cur_by = [&](const std::uint64_t* other) {
        std::fill(scratch.wprod.begin(), scratch.wprod.end(), 0);
        gf2::mul_words(scratch.wcur.data(), mw, other, mw, scratch.wprod.data(),
                       scratch.arena);
        reduce_words(scratch.wprod.data(), bufn);
        std::swap(scratch.wcur, scratch.wprod);
    };

    const auto e = static_cast<unsigned>(m_ - 1);
    int t = 1;
    for (int i = std::bit_width(e) - 2; i >= 0; --i) {
        std::copy(scratch.wcur.begin(), scratch.wcur.end(), scratch.wsave.begin());
        square_times(t);                      // cur = cur^(2^t)
        mul_cur_by(scratch.wsave.data());     // cur = a^(2^(2t) - 1)
        t *= 2;
        if ((e >> i) & 1U) {
            square_times(1);
            std::copy(bw.begin(), bw.end(), scratch.wsave.begin());
            std::fill(scratch.wsave.begin() + static_cast<long>(bw.size()),
                      scratch.wsave.end(), 0);
            mul_cur_by(scratch.wsave.data()); // cur = a^(2^(t+1) - 1)
            ++t;
        }
    }
    square_times(1);  // a^-1 = (a^(2^(m-1) - 1))^2
    out.assign_words({scratch.wcur.data(), mw});
}

void FieldOps::reduce_in_place(gf2::Poly& p, Scratch& scratch) const {
    if (p.degree() < m_) {
        return;
    }
    // Route through the word-span fold: copy into the scratch buffer sized
    // for the tail-spill contract, reduce, and hand the canonical low words
    // back.  The copies are a few words; the fold itself is the clmul fast
    // path on PCLMUL builds.
    const auto pw = p.words();
    const std::size_t pn = std::max(pw.size(), elem_words()) + 1;
    scratch.wtmp.assign(pn, 0);
    std::copy(pw.begin(), pw.end(), scratch.wtmp.begin());
    reduce_words(scratch.wtmp.data(), pn);
    p.assign_words({scratch.wtmp.data(), elem_words()});
}

}  // namespace gfr::field
