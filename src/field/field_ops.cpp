#include "field/field_ops.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace gfr::field {

FieldOps::FieldOps(gf2::Poly modulus)
    : modulus_{std::move(modulus)}, m_{modulus_.degree()}, fold_{modulus_} {
    if (m_ < 2) {
        throw std::invalid_argument{"FieldOps: modulus degree must be >= 2"};
    }
    if (m_ <= 64) {
        elem_mask_ = (m_ == 64) ? ~std::uint64_t{0}
                                : ((std::uint64_t{1} << m_) - 1);
        const auto tails = fold_.tails();
        for (const int t : tails) {
            tails_mask_ |= std::uint64_t{1} << t;
        }
        // Fold-count bound for the branch-free SIMD reduction: starting
        // from the worst canonical product degree 2m-2, each fold replaces
        // degree d with d - m + max_tail, so iterate that recurrence until
        // it drops below m.  Sparse (paper-catalog) moduli converge in 2-3.
        if (!tails.empty()) {
            const int t_max = tails.back();
            long d = 2L * m_ - 2;
            int folds = 0;
            while (d >= m_) {
                d = d - m_ + t_max;
                ++folds;
            }
            fold_bound_ = folds > 0 ? folds : 1;
        }
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
    fold_.reduce_words(scratch.wprod.data(), pn);
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
    gf2::spread_words(aw.data(), aw.size(), scratch.wtmp.data());
    fold_.reduce_words(scratch.wtmp.data(), pn);
    out.assign_words({scratch.wtmp.data(), std::min(pn, elem_words())});
}

void FieldOps::reduce_words(std::uint64_t* p, std::size_t pn) const noexcept {
    fold_.reduce_words(p, pn);
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
            gf2::spread_words(scratch.wcur.data(), mw, scratch.wtmp.data());
            fold_.reduce_words(scratch.wtmp.data(), bufn);
            std::swap(scratch.wcur, scratch.wtmp);
        }
    };
    const auto mul_cur_by = [&](const std::uint64_t* other) {
        std::fill(scratch.wprod.begin(), scratch.wprod.end(), 0);
        gf2::mul_words(scratch.wcur.data(), mw, other, mw, scratch.wprod.data(),
                       scratch.arena);
        fold_.reduce_words(scratch.wprod.data(), bufn);
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
    fold_.reduce_words(scratch.wtmp.data(), pn);
    p.assign_words({scratch.wtmp.data(), elem_words()});
}

}  // namespace gfr::field
