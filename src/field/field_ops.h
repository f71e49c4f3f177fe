#ifndef GFR_FIELD_FIELD_OPS_H
#define GFR_FIELD_FIELD_OPS_H

// Fixed-modulus fast arithmetic engine for GF(2^m).
//
// The paper's whole premise is that sparse (trinomial / pentanomial) moduli
// admit cheap shift-XOR reduction.  FieldOps precomputes the modulus's sparse
// support once and then reduces products by folding the excess bits down
// through the tail exponents, instead of the generic bit-serial divmod the
// reference path uses.  Two regimes:
//
//   - m <= 64 ("single-word"): elements are one std::uint64_t.  Multiply is a
//     portable carry-less comb (or PCLMULQDQ when compiled with
//     GFR_USE_PCLMUL on x86), reduction is 2-3 fold iterations, and no
//     operation allocates.
//   - m > 64 ("multi-word"): elements stay gf2::Poly; products and squares
//     go to raw word buffers and reduce through gf2::WordFold, the
//     word-span fold that also runs gf2::is_irreducible's squaring chain
//     (one fold, in src/gf2, for both callers).  Working buffers come from
//     the caller's Scratch, so steady-state multiplies do no heap work
//     beyond the caller's output element.
//
// Thread-safety: FieldOps is immutable after construction, with one
// exception: the multi-word inverse's multi-squaring tables, which the first
// multi-word inv() builds once under std::call_once and which are read-only
// from then on.  Every operation is const.  The multi-word (m > 64) path
// needs working buffers, which the caller passes as an explicit
// FieldOps::Scratch — one per thread (or use the convenience overloads,
// which borrow a thread_local default).  One FieldOps instance can
// therefore serve concurrent callers with no external locking.  The
// single-word path is pure.
//
// Region traffic (one constant times a whole buffer: Reed-Solomon stripes,
// erasure repair) is bulk::RegionEngine's job, one layer up; it builds its
// per-constant tables from this engine's mul/reduce and hands
// wide_params() to the carry-less word kernels.

#include "bulk/kernels.h"
#include "gf2/clmul.h"
#include "gf2/gf2_poly.h"
#include "gf2/word_fold.h"

#include <bit>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace gfr::field {

namespace detail {

using gf2::detail::clmul64;    // word-level carry-less product primitive
using gf2::detail::spread32;   // shared with Poly::square_into

}  // namespace detail

class FieldOps {
public:
    /// Precompute the reduction structure for a fixed modulus of degree >= 2.
    /// Irreducibility is the caller's concern (field::Field checks it).
    explicit FieldOps(gf2::Poly modulus);

    [[nodiscard]] int degree() const noexcept { return m_; }
    [[nodiscard]] const gf2::Poly& modulus() const noexcept { return modulus_; }

    /// True when elements fit one word and the u64 fast path applies.
    [[nodiscard]] bool single_word() const noexcept { return m_ <= 64; }

    /// Words per canonical element: ceil(m / 64).
    [[nodiscard]] std::size_t elem_words() const noexcept {
        return static_cast<std::size_t>(m_ + 63) / 64;
    }

    // --- Single-word path (requires single_word()); zero heap allocations --
    // Header-inline: these are the innermost ops of every hot loop.

    /// Reduce a 128-bit carry-less product (hi:lo) modulo the field modulus.
    /// Folds the excess E = P div y^m down by one carry-less multiply with
    /// the tail polynomial (P mod f == P mod y^m + E * (f - y^m)), iterated
    /// until no excess remains; sparse moduli converge in 2-3 folds because
    /// the largest tail sits far below m.
    [[nodiscard]] std::uint64_t reduce(std::uint64_t hi, std::uint64_t lo) const noexcept {
        if (m_ == 64) {
            while (hi != 0) {
                std::uint64_t fold_hi = 0;
                std::uint64_t fold_lo = 0;
                detail::clmul64(hi, tails_mask_, fold_hi, fold_lo);
                lo ^= fold_lo;
                hi = fold_hi;
            }
            return lo;
        }
        for (;;) {
            const std::uint64_t ex_lo = (lo >> m_) | (hi << (64 - m_));
            const std::uint64_t ex_hi = hi >> m_;
            if ((ex_lo | ex_hi) == 0) {
                return lo;
            }
            lo &= elem_mask_;
            std::uint64_t fold_hi = 0;
            std::uint64_t fold_lo = 0;
            detail::clmul64(ex_lo, tails_mask_, fold_hi, fold_lo);
            lo ^= fold_lo;
            hi = fold_hi;
            if (ex_hi != 0) {
                // deg(ex_hi) + deg(tails) < 64, so this lands entirely in hi.
                detail::clmul64(ex_hi, tails_mask_, fold_hi, fold_lo);
                hi ^= fold_lo;
            }
        }
    }

    [[nodiscard]] std::uint64_t mul(std::uint64_t a, std::uint64_t b) const noexcept {
        std::uint64_t hi = 0;
        std::uint64_t lo = 0;
        detail::clmul64(a, b, hi, lo);
        return reduce(hi, lo);
    }

    [[nodiscard]] std::uint64_t sqr(std::uint64_t a) const noexcept {
        return reduce(detail::spread32(static_cast<std::uint32_t>(a >> 32)),
                      detail::spread32(static_cast<std::uint32_t>(a)));
    }

    [[nodiscard]] std::uint64_t pow(std::uint64_t a, std::uint64_t e) const noexcept {
        std::uint64_t result = 1;
        std::uint64_t base = a;
        while (e != 0) {
            if (e & 1U) {
                result = mul(result, base);
            }
            base = sqr(base);
            e >>= 1U;
        }
        return result;
    }

    /// Multiplicative inverse via the Itoh-Tsujii addition chain on m - 1:
    /// a^-1 = (a^(2^(m-1) - 1))^2, built from ~m squarings but only
    /// floor(log2(m-1)) + popcount(m-1) - 1 multiplies (Fermat's ladder pays
    /// m - 1 multiplies).  Throws std::invalid_argument on zero.
    [[nodiscard]] std::uint64_t inv(std::uint64_t a) const;

    /// Multiplicative inverse via Fermat (a^(2^m - 2)): the m-1 high
    /// squarings multiplied together.  Kept as an engine-internal
    /// cross-check/benchmark target for inv()'s addition chain.
    [[nodiscard]] std::uint64_t inv_fermat(std::uint64_t a) const;

    /// Reduction structure handed to the bulk carry-less word kernels.
    /// `c` is stored as given — canonicalise with reduce(0, c) first when it
    /// may exceed degree m.  Requires single_word().
    [[nodiscard]] bulk::WideParams wide_params(std::uint64_t c) const noexcept {
        bulk::WideParams p;
        p.c = c;
        p.tails_mask = tails_mask_;
        p.elem_mask = elem_mask_;
        p.m = m_;
        p.folds = fold_bound_;
        return p;
    }

    /// Fold iterations that provably cancel the excess of any product of two
    /// canonical elements (single-word fields; sparse moduli need 2-3).
    [[nodiscard]] int fold_bound() const noexcept { return fold_bound_; }

    // --- Multi-word path (any m); caller-owned scratch ---------------------
    //
    // The engine itself is immutable: all working storage for the m > 64
    // operations lives in a Scratch the caller owns.  Hot consumers
    // (verification sweeps, region encoders) hold one Scratch per thread and
    // pass it explicitly; casual callers can use the overloads without a
    // scratch parameter, which borrow a thread_local default.

    /// Working buffers for the multi-word operations.  Modulus-independent:
    /// one Scratch serves any number of FieldOps instances, but must not be
    /// shared between threads.  Buffers grow to the largest operand seen and
    /// are then reused, so steady-state operation allocates nothing.
    struct Scratch {
        gf2::MulArena arena;  ///< Karatsuba split/sum arena for mul
        gf2::Poly base;       ///< reduced operand held across the inv chain
        // Raw word buffers for the reduction fold and the inversion chain's
        // square/table-map/multiply loop (kept off the Poly bookkeeping:
        // per-op normalize/degree scans would otherwise dominate the
        // chain's short steps).
        std::vector<std::uint64_t> wcur, wtmp, wprod, wsave;
    };

    /// The calling thread's default Scratch (shared by every FieldOps on
    /// that thread; never shared across threads).
    static Scratch& thread_scratch();

    /// out = a * b mod f.  out must not alias a or b.
    void mul(const gf2::Poly& a, const gf2::Poly& b, gf2::Poly& out,
             Scratch& scratch) const;
    void mul(const gf2::Poly& a, const gf2::Poly& b, gf2::Poly& out) const {
        mul(a, b, out, thread_scratch());
    }

    /// out = a^2 mod f.  out must not alias a.
    void sqr(const gf2::Poly& a, gf2::Poly& out, Scratch& scratch) const;
    void sqr(const gf2::Poly& a, gf2::Poly& out) const {
        sqr(a, out, thread_scratch());
    }

    /// out = a^-1 mod f via the Itoh-Tsujii addition chain (multi-word
    /// sibling of inv(std::uint64_t), which serves m <= 64 operands).  The
    /// chain's three longest doubling steps (81 / 40 / 20 squarings at
    /// m = 163) are each one multi-squaring table map: x -> x^(2^k) is
    /// GF(2)-linear, so every 4-bit window of x selects one precomputed
    /// element to XOR in.  The first call with m > 64 builds the three
    /// tables, 4m elements each; shorter steps square one at a time.  Throws
    /// std::invalid_argument when a is zero (mod f).  out must not alias a.
    void inv(const gf2::Poly& a, gf2::Poly& out, Scratch& scratch) const;
    void inv(const gf2::Poly& a, gf2::Poly& out) const {
        inv(a, out, thread_scratch());
    }

    /// Reduce an arbitrary polynomial modulo f by shift-XOR folding.
    void reduce_in_place(gf2::Poly& p, Scratch& scratch) const;
    void reduce_in_place(gf2::Poly& p) const {
        reduce_in_place(p, thread_scratch());
    }

    /// In-place word-span reduction: fold every bit >= m of p (pn words)
    /// down through the modulus tails, leaving the canonical element in the
    /// low elem_words() words and zeros above.  The raw sibling of
    /// reduce_in_place for callers holding bare buffers (bulk pipelines);
    /// forwards to gf2::WordFold::reduce_words.  Requires pn >=
    /// elem_words() + 1 so tail spill of the boundary word stays in bounds.
    void reduce_words(std::uint64_t* p, std::size_t pn) const noexcept;

private:
    /// x -> x^(2^k) mod f as a window table: for the w-th 4-bit window of
    /// x and nibble value v, the elem_words() words at (16 w + v) *
    /// elem_words() hold (v y^(4w))^(2^k) mod f.
    struct SquaringTable {
        int k = 0;
        std::vector<std::uint64_t> rows;
    };

    void build_squaring_tables() const;

    gf2::Poly modulus_;
    int m_ = 0;
    gf2::WordFold fold_;            ///< the word-span reduction (any m)
    std::uint64_t elem_mask_ = 0;   ///< low-m mask (all-ones when m == 64)
    std::uint64_t tails_mask_ = 0;  ///< bit t set per tail (f - y^m), m <= 64
    int fold_bound_ = 1;            ///< see fold_bound()
    // Built by the first multi-word inv(), read-only after.
    mutable std::once_flag tables_once_;
    mutable std::vector<SquaringTable> tables_;
};

}  // namespace gfr::field

#endif  // GFR_FIELD_FIELD_OPS_H
