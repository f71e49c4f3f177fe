// AVX-512 tape executor: the shared interpreter and sweep oracle
// (run_kernels_generic.h) on 512-bit words — eight 64-lane blocks per
// word-op, at most two ZMM vectors (16 blocks) per slot, with an 8-word
// stride so slots start 64-byte aligned.  The compiler fuses the
// accumulate shapes that dominate Mastrovito tapes into VPTERNLOGQ from the
// plain vector expressions.
//
// Intrinsics remain only where the vector extension cannot express the
// operation: the 8x8 transposes that marshal block-major tape I/O on
// full-width sweeps, and the register-resident m <= 8 oracle (lane
// broadcasts, masked XORs, masked reduce-OR).
//
// Compiled with -mavx512f only when the toolchain supports it
// (GFR_EXEC_HAVE_AVX512); selected only when CPUID reports AVX512F and
// XCR0 shows opmask+ZMM state OS-enabled.

#include "exec/run_kernels.h"

#if defined(GFR_EXEC_HAVE_AVX512)

#include "exec/run_kernels_generic.h"

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

namespace gfr::exec {

namespace {

typedef std::uint64_t Zmm __attribute__((vector_size(64), may_alias));
static_assert(sizeof(Zmm) == 8 * 8, "vector_size ignored");

/// 8x8 uint64 transpose: c[j] = [r[0][j], r[1][j], ..., r[7][j]].  Three
/// shuffle stages (64-bit unpack, 128-bit two-source permute, 256-bit lane
/// shuffle), 24 ops total.
inline void transpose8x8(const __m512i r[8], __m512i c[8]) {
    const __m512i iA = _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13);
    const __m512i iB = _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15);
    __m512i t[8];
    for (int i = 0; i < 8; i += 2) {
        t[i] = _mm512_unpacklo_epi64(r[i], r[i + 1]);
        t[i + 1] = _mm512_unpackhi_epi64(r[i], r[i + 1]);
    }
    __m512i u[8];
    for (int h = 0; h < 8; h += 4) {
        u[h] = _mm512_permutex2var_epi64(t[h], iA, t[h + 2]);
        u[h + 1] = _mm512_permutex2var_epi64(t[h + 1], iA, t[h + 3]);
        u[h + 2] = _mm512_permutex2var_epi64(t[h], iB, t[h + 2]);
        u[h + 3] = _mm512_permutex2var_epi64(t[h + 1], iB, t[h + 3]);
    }
    for (int j = 0; j < 4; ++j) {
        c[j] = _mm512_shuffle_i64x2(u[j], u[j + 4], 0x44);
        c[j + 4] = _mm512_shuffle_i64x2(u[j], u[j + 4], 0xEE);
    }
}

/// Full-width I/O marshalling through transpose8x8: eight row loads per
/// vector instead of 64 strided scalar load/store pairs, and the arena is
/// written with full vector stores, so the first tape ops never wide-load
/// over narrow stores still in the store buffer.
struct TransposeIo {
    /// Runs of eight consecutive input indices (the whole list, for a
    /// multiplier tape) go through the transpose; a load outside any run
    /// takes the strided copy.
    template <int NV>
    static std::size_t load_inputs(const TapeView& tape, const std::uint64_t* in,
                                   std::uint64_t* slots) noexcept {
        const auto n_in = static_cast<std::size_t>(tape.n_inputs);
        const auto slot = [slots](std::uint32_t s) {
            return slots + static_cast<std::size_t>(s) * (NV * 8);
        };
        std::size_t l = 0;
        while (l + 8 <= tape.n_input_loads) {
            const std::uint32_t i0 = tape.input_loads[l].first;
            bool run = true;
            for (std::size_t j = 1; j < 8; ++j) {
                run = run && tape.input_loads[l + j].first == i0 + j;
            }
            if (!run) {
                const auto [input_index, s] = tape.input_loads[l];
                for (std::size_t w = 0; w < NV * 8; ++w) {
                    slot(s)[w] = in[w * n_in + input_index];
                }
                ++l;
                continue;
            }
            for (int v = 0; v < NV; ++v) {
                __m512i r[8];
                for (int b = 0; b < 8; ++b) {
                    r[b] = _mm512_loadu_si512(in + (v * 8 + b) * n_in + i0);
                }
                __m512i c[8];
                transpose8x8(r, c);
                for (std::size_t j = 0; j < 8; ++j) {
                    _mm512_store_si512(slot(tape.input_loads[l + j].second) + v * 8,
                                       c[j]);
                }
            }
            l += 8;
        }
        return l;
    }

    /// The inverse: eight output slots transpose back to one 8-word row
    /// store per block (the tail past the last full eight outputs stays
    /// strided, so a row store never crosses into the next block's words).
    template <int NV>
    static int store_outputs(const TapeView& tape, std::uint64_t* out,
                             const std::uint64_t* slots) noexcept {
        const auto n_out = static_cast<std::size_t>(tape.n_outputs);
        int o = 0;
        for (; o + 8 <= tape.n_outputs; o += 8) {
            for (int v = 0; v < NV; ++v) {
                __m512i r[8];
                for (int j = 0; j < 8; ++j) {
                    r[j] = _mm512_load_si512(
                        slots +
                        static_cast<std::size_t>(tape.output_slots[o + j]) * (NV * 8) +
                        v * 8);
                }
                __m512i c[8];
                transpose8x8(r, c);
                for (int b = 0; b < 8; ++b) {
                    _mm512_storeu_si512(out + (v * 8 + b) * n_out + o, c[b]);
                }
            }
        }
        return o;
    }
};

/// Fused sweep oracle for m <= 8 — the exhaustive regime (every field with
/// at most 2^8 elements): dn <= 15, so the whole partial-product vector
/// lives in two strip accumulators and never touches memory.  The
/// reduction becomes one masked lane-broadcast XOR per contributing hi word
/// (kbits[p] = the k-columns position p feeds, inverted once from the
/// offsets/indices view), and the compare is a masked reduce-OR — the same
/// OR-of-differences word the scalar rung computes, with no
/// wide-store/narrow-load traffic at all.  Blocks run in interleaved pairs
/// (each block's strip and reduction chains are serial, so pairing doubles
/// the exploitable ILP), and the pair's two operand copies are pipelined
/// one pair ahead through four copy slots (4(m + 16) <= the 8m + 64
/// contract).
void oracle_small(const SweepOracleView& ov, const std::uint64_t* in,
                  const std::uint64_t* got, std::uint64_t* diff,
                  std::uint64_t* dwork, int blocks) {
    const int m = ov.m;
    const int dn = 2 * m - 1;
    const __m512i z = _mm512_setzero_si512();
    const __mmask8 kmask = static_cast<__mmask8>((1U << m) - 1U);
    // XOR, not OR: a position listed twice in one column cancels in the
    // scalar rung's XOR chain, so the broadcast mask keeps the parity.
    __mmask8 kbits[16] = {};
    for (int k = 0; k < m; ++k) {
        for (std::int32_t t = ov.red_offsets[k]; t < ov.red_offsets[k + 1]; ++t) {
            kbits[m + ov.red_indices[t]] ^= static_cast<__mmask8>(1U << k);
        }
    }
    const auto bp = [&](int blk) { return dwork + (blk & 3) * (m + 16) + 8; };
    const auto copy_b = [&](int blk) {
        if (blk < blocks) {
            copy_padded<Zmm>(in + static_cast<std::size_t>(blk) * 2 * m + m,
                             bp(blk) - 8, m);
        }
    };
    // The two strip accumulators of N = 1 or 2 consecutive blocks, their
    // chains interleaved: s = XOR over i of a_i & b[t0-i].
    const auto strips = [&]<int N>(int blk, __m512i (&acc)[N][2]) {
        __m512i av[N][8];
        const std::uint64_t* b[N];
        for (int n = 0; n < N; ++n) {
            const std::uint64_t* a = in + static_cast<std::size_t>(blk + n) * 2 * m;
            for (int i = 0; i < m; ++i) {  // each a_i feeds both strips
                av[n][i] = _mm512_set1_epi64(static_cast<long long>(a[i]));
            }
            b[n] = bp(blk + n);
        }
        for (int t0 = 0; t0 < dn; t0 += 8) {
            __m512i s[N];
            for (int n = 0; n < N; ++n) {
                s[n] = z;
            }
            const int ihi = t0 + 7 < m - 1 ? t0 + 7 : m - 1;
            for (int i = t0 - m + 1 > 0 ? t0 - m + 1 : 0; i <= ihi; ++i) {
                for (int n = 0; n < N; ++n) {
                    s[n] = _mm512_ternarylogic_epi64(
                        s[n], av[n][i], _mm512_loadu_si512(b[n] + t0 - i), 0x78);
                }
            }
            for (int n = 0; n < N; ++n) {
                acc[n][t0 >> 3] = s[n];
            }
        }
    };
    // Compare via one masked lane-broadcast XOR per contributing hi word;
    // two alternating accumulators halve the serial chain (XOR merging
    // them at the end is order-free).
    const auto reduce = [&](int blk, const __m512i acc[2]) noexcept {
        __m512i cmp = _mm512_xor_si512(
            acc[0], _mm512_maskz_loadu_epi64(
                        kmask, got + static_cast<std::size_t>(blk) * m));
        __m512i cmp2 = z;
        for (int p = m; p < dn; ++p) {
            if (kbits[p] == 0) {
                continue;
            }
            const __m512i bc =
                _mm512_permutexvar_epi64(_mm512_set1_epi64(p & 7), acc[p >> 3]);
            if ((p ^ m) & 1) {
                cmp2 = _mm512_mask_xor_epi64(cmp2, kbits[p], cmp2, bc);
            } else {
                cmp = _mm512_mask_xor_epi64(cmp, kbits[p], cmp, bc);
            }
        }
        return _mm512_mask_reduce_or_epi64(kmask, _mm512_xor_si512(cmp, cmp2));
    };
    copy_b(0);
    copy_b(1);
    int blk = 0;
    for (; blk + 1 < blocks; blk += 2) {
        __m512i acc[2][2] = {{z, z}, {z, z}};
        strips(blk, acc);
        copy_b(blk + 2);
        copy_b(blk + 3);
        diff[blk] = reduce(blk, acc[0]);
        diff[blk + 1] = reduce(blk + 1, acc[1]);
    }
    if (blk < blocks) {  // odd tail
        __m512i acc[1][2] = {{z, z}};
        strips(blk, acc);
        diff[blk] = reduce(blk, acc[0]);
    }
}

void oracle_avx512(const SweepOracleView& ov, const std::uint64_t* in,
                   const std::uint64_t* got, std::uint64_t* diff,
                   std::uint64_t* dwork, int blocks) {
    if (ov.m <= 8) {
        oracle_small(ov, in, got, diff, dwork, blocks);
    } else {
        sweep_oracle<Zmm>(ov, in, got, diff, dwork, blocks);
    }
}

const TapeKernel kTapeAvx512{Backend::Avx512, /*word_lanes=*/8,
                             &run<Zmm, TransposeIo>, &oracle_avx512};

}  // namespace

const TapeKernel* avx512_tape_kernel() noexcept { return &kTapeAvx512; }

}  // namespace gfr::exec

#else  // !GFR_EXEC_HAVE_AVX512

namespace gfr::exec {

const TapeKernel* avx512_tape_kernel() noexcept { return nullptr; }

}  // namespace gfr::exec

#endif
