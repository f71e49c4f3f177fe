// GFNI byte kernel: constant-multiply in GF(2^m), m <= 8, as one affine
// transform per 32 bytes.  Multiplication by a fixed constant c under any
// modulus f is GF(2)-linear in the input byte, so the whole map is an 8x8
// bit matrix M with output bit i = parity(M.row[i] AND input) — exactly
// what GF2P8AFFINEQB computes (row i lives in qword byte 7-i, imm8 = 0).
// Unlike GF2P8MULB this does NOT bake in the AES polynomial: the modulus is
// encoded in the matrix by the table builder (RegionEngine::prepare), so
// the kernel serves every degree-<=8 field in the catalog.
//
// The VEX 256-bit form also needs AVX2 for the addmul XOR, which is why
// kernel_supported gates Gfni on (gfni && avx2).  The <32-byte remainder
// runs one 128-bit pass then falls back to the nibble tables, which the
// NibbleTables contract keeps consistent with the matrix.
//
// Compiled with -mgfni -mavx2 only in this translation unit; the dispatch
// calls in here only after runtime CPUID (+XGETBV) reports GFNI and AVX2.

#include "bulk/kernels.h"

#if defined(GFR_BULK_HAVE_GFNI)

#include <immintrin.h>

namespace gfr::bulk {

namespace {

void byte_mul_gfni(const NibbleTables& t, const std::uint8_t* src,
                   std::uint8_t* dst, std::size_t n) {
    const __m256i mat =
        _mm256_set1_epi64x(static_cast<long long>(t.matrix));
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i v =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                            _mm256_gf2p8affine_epi64_epi8(v, mat, 0));
    }
    if (i + 16 <= n) {
        const __m128i mat128 = _mm256_castsi256_si128(mat);
        const __m128i v =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                         _mm_gf2p8affine_epi64_epi8(v, mat128, 0));
        i += 16;
    }
    for (; i < n; ++i) {
        const std::uint8_t s = src[i];
        dst[i] = static_cast<std::uint8_t>(t.lo[s & 0xF] ^ t.hi[s >> 4]);
    }
}

void byte_addmul_gfni(const NibbleTables& t, const std::uint8_t* src,
                      std::uint8_t* dst, std::size_t n) {
    const __m256i mat =
        _mm256_set1_epi64x(static_cast<long long>(t.matrix));
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i v =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
        const __m256i d =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(dst + i),
            _mm256_xor_si256(d, _mm256_gf2p8affine_epi64_epi8(v, mat, 0)));
    }
    if (i + 16 <= n) {
        const __m128i mat128 = _mm256_castsi256_si128(mat);
        const __m128i v =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
        const __m128i d =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
        _mm_storeu_si128(
            reinterpret_cast<__m128i*>(dst + i),
            _mm_xor_si128(d, _mm_gf2p8affine_epi64_epi8(v, mat128, 0)));
        i += 16;
    }
    for (; i < n; ++i) {
        const std::uint8_t s = src[i];
        dst[i] ^= static_cast<std::uint8_t>(t.lo[s & 0xF] ^ t.hi[s >> 4]);
    }
}

const ByteKernel kByteGfni{KernelKind::Gfni, &byte_mul_gfni,
                           &byte_addmul_gfni};

}  // namespace

const ByteKernel* gfni_byte_kernel() noexcept { return &kByteGfni; }

}  // namespace gfr::bulk

#else  // TU compiled without GFNI (non-x86 or GFR_BULK_PORTABLE_ONLY)

namespace gfr::bulk {
const ByteKernel* gfni_byte_kernel() noexcept { return nullptr; }
}  // namespace gfr::bulk

#endif
