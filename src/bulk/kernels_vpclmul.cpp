// VPCLMULQDQ word kernel: four single-word field multiplies per pass.  One
// 256-bit register holds four canonical u64 elements; two VPCLMULQDQ
// issues produce their four 128-bit carry-less products (even elements via
// imm 0x00, odd via 0x01), and the modulus fold runs vectorized on the
// 128-bit lanes — exactly FieldOps::reduce's iteration, but executed a
// *fixed* number of times (WideParams::folds, precomputed from the worst
// canonical product degree) so the loop is branch-free.
//
// A residual test (VPTEST) then proves every lane canonical; inputs outside
// the canonical contract fail the test and that group of four is redone
// through the scalar PCLMUL helper, which is the unbounded FieldOps::reduce
// loop verbatim.
//
// Compiled with -mvpclmulqdq -mavx2 -mpclmul only in this translation unit;
// the dispatch calls in here only after runtime CPUID reports VPCLMULQDQ
// (which the detector only sets together with usable AVX2 and PCLMULQDQ).

#include "bulk/kernels.h"

#if defined(GFR_BULK_HAVE_VPCLMUL)

#include <immintrin.h>

namespace gfr::bulk {

namespace {

inline void clmul1(std::uint64_t a, std::uint64_t b, std::uint64_t& hi,
                   std::uint64_t& lo) noexcept {
    const __m128i p = _mm_clmulepi64_si128(
        _mm_cvtsi64_si128(static_cast<long long>(a)),
        _mm_cvtsi64_si128(static_cast<long long>(b)), 0x00);
    lo = static_cast<std::uint64_t>(_mm_cvtsi128_si64(p));
    hi = static_cast<std::uint64_t>(
        _mm_cvtsi128_si64(_mm_unpackhi_epi64(p, p)));
}

/// FieldOps::reduce semantics on WideParams: reduce a 128-bit carry-less
/// product of *arbitrary* u64 operands to the canonical element.
std::uint64_t reduce1(const WideParams& p, std::uint64_t hi,
                      std::uint64_t lo) noexcept {
    if (p.m == 64) {
        while (hi != 0) {
            std::uint64_t fh = 0;
            std::uint64_t fl = 0;
            clmul1(hi, p.tails_mask, fh, fl);
            lo ^= fl;
            hi = fh;
        }
        return lo;
    }
    for (;;) {
        const std::uint64_t ex_lo = (lo >> p.m) | (hi << (64 - p.m));
        const std::uint64_t ex_hi = hi >> p.m;
        if ((ex_lo | ex_hi) == 0) {
            return lo;
        }
        lo &= p.elem_mask;
        std::uint64_t fh = 0;
        std::uint64_t fl = 0;
        clmul1(ex_lo, p.tails_mask, fh, fl);
        lo ^= fl;
        hi = fh;
        if (ex_hi != 0) {
            clmul1(ex_hi, p.tails_mask, fh, fl);
            hi ^= fl;
        }
    }
}

std::uint64_t mul1(const WideParams& p, std::uint64_t a,
                   std::uint64_t b) noexcept {
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;
    clmul1(a, b, hi, lo);
    return reduce1(p, hi, lo);
}

/// Vector state shared by every pass of one region call.
struct VCtx {
    __m256i tails;   ///< tails_mask broadcast to every qword
    __m256i lomask;  ///< per 128-bit lane: [elem_mask, 0]
    __m128i cnt_m;   ///< shift count m (SRL; count 64 legally yields 0)
    __m128i cnt_inv; ///< shift count 64 - m (SLL)
    int folds;
};

inline VCtx make_ctx(const WideParams& p) noexcept {
    VCtx v;
    v.tails = _mm256_set1_epi64x(static_cast<long long>(p.tails_mask));
    v.lomask = _mm256_set_epi64x(0, static_cast<long long>(p.elem_mask), 0,
                                 static_cast<long long>(p.elem_mask));
    v.cnt_m = _mm_cvtsi32_si128(p.m);
    v.cnt_inv = _mm_cvtsi32_si128(64 - p.m);
    v.folds = p.folds;
    return v;
}

/// One fold iteration over two 128-bit products [lo, hi] held in one ymm:
/// excess = (lo >> m) | (hi << (64-m)) lands in qword 0 of each lane
/// (qword 1 holds garbage the 0x00 CLMUL selector never reads), product is
/// masked to its canonical low part and the excess*tails fold XORed in.
inline __m256i fold_step(__m256i prod, const VCtx& v) noexcept {
    const __m256i sr = _mm256_srl_epi64(prod, v.cnt_m);
    const __m256i sl = _mm256_sll_epi64(prod, v.cnt_inv);
    const __m256i sl_swapped =
        _mm256_shuffle_epi32(sl, _MM_SHUFFLE(1, 0, 3, 2));
    const __m256i ex = _mm256_or_si256(sr, sl_swapped);
    const __m256i fold = _mm256_clmulepi64_epi128(ex, v.tails, 0x00);
    return _mm256_xor_si256(_mm256_and_si256(prod, v.lomask), fold);
}

inline __m256i reduce_pair(__m256i prod, const VCtx& v) noexcept {
    for (int k = 0; k < v.folds; ++k) {
        prod = fold_step(prod, v);
    }
    return prod;
}

/// Nonzero when any of the two lanes still carries bits outside the
/// canonical element after the fixed folds (only possible for inputs
/// outside the canonical contract).
inline bool residual(__m256i pe, __m256i po, const VCtx& v) noexcept {
    const __m256i r = _mm256_or_si256(_mm256_andnot_si256(v.lomask, pe),
                                      _mm256_andnot_si256(v.lomask, po));
    return _mm256_testz_si256(r, r) == 0;
}

void word_mul_vpclmul(const WideParams& p, const std::uint64_t* src,
                      std::uint64_t* dst, std::size_t n) {
    const VCtx v = make_ctx(p);
    const __m256i c = _mm256_set1_epi64x(static_cast<long long>(p.c));
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i x =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
        const __m256i pe =
            reduce_pair(_mm256_clmulepi64_epi128(x, c, 0x00), v);
        const __m256i po =
            reduce_pair(_mm256_clmulepi64_epi128(x, c, 0x01), v);
        if (residual(pe, po, v)) {
            for (int k = 0; k < 4; ++k) {
                dst[i + static_cast<std::size_t>(k)] =
                    mul1(p, src[i + static_cast<std::size_t>(k)], p.c);
            }
            continue;
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                            _mm256_unpacklo_epi64(pe, po));
    }
    for (; i < n; ++i) {
        dst[i] = mul1(p, src[i], p.c);
    }
}

void word_addmul_vpclmul(const WideParams& p, const std::uint64_t* src,
                         std::uint64_t* dst, std::size_t n) {
    const VCtx v = make_ctx(p);
    const __m256i c = _mm256_set1_epi64x(static_cast<long long>(p.c));
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i x =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
        const __m256i pe =
            reduce_pair(_mm256_clmulepi64_epi128(x, c, 0x00), v);
        const __m256i po =
            reduce_pair(_mm256_clmulepi64_epi128(x, c, 0x01), v);
        if (residual(pe, po, v)) {
            for (int k = 0; k < 4; ++k) {
                dst[i + static_cast<std::size_t>(k)] ^=
                    mul1(p, src[i + static_cast<std::size_t>(k)], p.c);
            }
            continue;
        }
        const __m256i d =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(dst + i),
            _mm256_xor_si256(d, _mm256_unpacklo_epi64(pe, po)));
    }
    for (; i < n; ++i) {
        dst[i] ^= mul1(p, src[i], p.c);
    }
}

const WordKernel kWordVpclmul{KernelKind::Vpclmul, &word_mul_vpclmul,
                              &word_addmul_vpclmul};

}  // namespace

const WordKernel* vpclmul_word_kernel() noexcept { return &kWordVpclmul; }

}  // namespace gfr::bulk

#else  // TU compiled without VPCLMULQDQ (non-x86 or GFR_BULK_PORTABLE_ONLY)

namespace gfr::bulk {
const WordKernel* vpclmul_word_kernel() noexcept { return nullptr; }
}  // namespace gfr::bulk

#endif
