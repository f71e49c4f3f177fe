#include "field/field_ops.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace gfr::field {

namespace {

// How many doubling steps of the multi-word Itoh-Tsujii chain run as table
// maps: the longest ones, which are its last.  At the five NIST degrees
// they cover 87% of the chain's squarings, and their tables take about
// 1 MB over all five fields.
constexpr std::size_t kTableSteps = 3;

// out (mw words) = x^(2^k) mod f: one row per 4-bit window of x, selected
// by the window's value (see FieldOps::SquaringTable).
void apply_table(const std::vector<std::uint64_t>& rows, const std::uint64_t* x,
                 std::size_t mw, std::uint64_t* out) noexcept {
    std::fill_n(out, mw, 0);
    const std::size_t windows = rows.size() / (16 * mw);
    const std::uint64_t* row = rows.data();
    for (std::size_t w = 0; w < windows; ++w, row += 16 * mw) {
        const std::uint64_t* e = row + ((x[w / 16] >> (4 * (w % 16))) & 15U) * mw;
        for (std::size_t i = 0; i < mw; ++i) {
            out[i] ^= e[i];
        }
    }
}

}  // namespace

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

void FieldOps::build_squaring_tables() const {
    // The chain's doubling lengths t in order (see inv(std::uint64_t)).
    const auto e = static_cast<unsigned>(m_ - 1);
    std::vector<int> doublings;
    for (int i = std::bit_width(e) - 2, t = 1; i >= 0; --i) {
        doublings.push_back(t);
        t = 2 * t + static_cast<int>((e >> i) & 1U);
    }
    const std::size_t first = doublings.size() - std::min(doublings.size(), kTableSteps);

    // Column i of the map x -> x^(2^k) is y^(i 2^k) = z^i for z = y^(2^k):
    // an even column is the square of column i/2, an odd one column i-1
    // times z.  Each window then fills its other 11 entries by XOR.
    const std::size_t mw = elem_words();
    const std::size_t bufn = 2 * mw;
    const auto windows = static_cast<std::size_t>(m_ + 3) / 4;
    gf2::MulArena arena;
    std::vector<std::uint64_t> z(bufn, 0);
    std::vector<std::uint64_t> prod(bufn, 0);
    z[0] = 2;  // y
    int squarings = 0;
    for (std::size_t step = first; step < doublings.size(); ++step) {
        SquaringTable table{doublings[step], std::vector<std::uint64_t>(windows * 16 * mw, 0)};
        for (; squarings < table.k; ++squarings) {
            gf2::spread_words(z.data(), mw, prod.data());
            fold_.reduce_words(prod.data(), bufn);
            std::swap(z, prod);
        }
        const auto column = [&](int i) {
            const auto w = static_cast<std::size_t>(i / 4);
            return table.rows.data() + (16 * w + (std::size_t{1} << (i % 4))) * mw;
        };
        column(0)[0] = 1;
        for (int i = 1; i < m_; ++i) {
            if (i % 2 == 0) {
                gf2::spread_words(column(i / 2), mw, prod.data());
            } else {
                std::fill(prod.begin(), prod.end(), 0);
                gf2::mul_words(column(i - 1), mw, z.data(), mw, prod.data(), arena);
            }
            fold_.reduce_words(prod.data(), bufn);
            std::copy_n(prod.data(), mw, column(i));
        }
        for (std::size_t w = 0; w < windows; ++w) {
            std::uint64_t* row = table.rows.data() + 16 * w * mw;
            for (std::size_t v = 3; v < 16; ++v) {
                const std::size_t low = v & (~v + 1);
                if (low != v) {
                    for (std::size_t i = 0; i < mw; ++i) {
                        row[v * mw + i] = row[(v ^ low) * mw + i] ^ row[low * mw + i];
                    }
                }
            }
        }
        tables_.push_back(std::move(table));
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
    if (single_word()) {  // an unreduced operand of a u64 field
        out.assign_word(inv(scratch.base.words()[0]));
        return;
    }
    std::call_once(tables_once_, [this] { build_squaring_tables(); });
    // Itoh-Tsujii addition chain on e = m - 1 (see the single-word overload
    // for the recurrence).  The loop runs on raw word buffers: a table map
    // for the longest doubling steps, spread + fold per squaring for the
    // rest, mul_words (with its Karatsuba layer) + fold per multiply — no
    // Poly normalize/degree bookkeeping per operation.
    const std::size_t mw = elem_words();
    const std::size_t bufn = 2 * mw;
    scratch.wcur.assign(bufn, 0);
    scratch.wtmp.assign(bufn, 0);
    scratch.wprod.assign(bufn, 0);
    scratch.wsave.assign(bufn, 0);
    const auto bw = scratch.base.words();
    std::copy(bw.begin(), bw.end(), scratch.wcur.begin());

    const auto square_times = [&](int k) {
        const auto table = std::find_if(tables_.begin(), tables_.end(),
                                        [k](const SquaringTable& s) { return s.k == k; });
        if (table != tables_.end()) {
            apply_table(table->rows, scratch.wcur.data(), mw, scratch.wtmp.data());
            std::swap(scratch.wcur, scratch.wtmp);
            return;
        }
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
