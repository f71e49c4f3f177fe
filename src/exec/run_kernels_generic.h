#ifndef GFR_EXEC_RUN_KERNELS_GENERIC_H
#define GFR_EXEC_RUN_KERNELS_GENERIC_H

// The tape interpreter and the vector sweep oracle, written once over a word
// type V: std::uint64_t on the scalar rung, a GCC/Clang `vector_size`
// typedef of 4 or 8 words on the AVX2 / AVX-512 rungs.  Each
// run_kernels_<isa>.cpp includes this header and instantiates it under its
// own -m flags, so one source yields every ISA's code — with -mavx512f the
// compiler fuses `acc ^= x & y`, `acc ^= y ^ z` and the mux
// `lo ^ ((lo ^ hi) & x)` into single VPTERNLOGQ ops by itself.
//
// Everything here has internal linkage (anonymous namespace): an inline
// function compiled with -mavx512f in one unit must never be merged by the
// linker with another unit's copy and then run on a CPU without AVX-512.
// The vector typedefs themselves stay in the ISA units: a function taking
// or returning one where that ISA is off changes the psABI (-Wpsabi).

#include "exec/run_kernels.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>

namespace gfr::exec {
namespace {

/// 64-bit words per V (the TapeKernel::word_lanes of its rung).
template <typename V>
constexpr int kLanes = static_cast<int>(sizeof(V) / sizeof(std::uint64_t));

/// Unaligned V loads and stores (the oracle's operand copies and strips).
template <typename V>
V load_unaligned(const std::uint64_t* p) noexcept {
    V v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

template <typename V>
void store_unaligned(std::uint64_t* p, const V& v) noexcept {
    std::memcpy(p, &v, sizeof v);
}

/// Default block-major I/O marshalling: nothing beyond the strided word
/// copies in run_tape.  An ISA unit with a faster full-width path supplies
/// its own type with the same two members; each handles a prefix of the
/// input loads / outputs on full-width sweeps (blocks == stride) and returns
/// its length, and run_tape's strided copies handle the rest.
struct StridedIo {
    template <int NV>
    static std::size_t load_inputs(const TapeView&, const std::uint64_t*,
                                   std::uint64_t*) noexcept {
        return 0;
    }
    template <int NV>
    static int store_outputs(const TapeView&, std::uint64_t*,
                             const std::uint64_t*) noexcept {
        return 0;
    }
};

/// acc ^= vecs(s) for each slot s named in a[i, n).  Always inlined: out of
/// line, acc would round-trip through memory on every instruction.  Vector
/// rungs take two leaves per op (one VPTERNLOGQ on AVX-512); the u64 rung
/// keeps a one-leaf loop, because gcc leaves the straight-line odd leaf
/// after a pair loop unvectorized and bounces acc through GPRs.
template <typename V, int NV, typename Vecs>
[[gnu::always_inline]] inline void xor_leaves(V (&acc)[NV], const std::uint32_t* a,
                                              std::uint32_t i, std::uint32_t n,
                                              const Vecs& vecs) noexcept {
    for (; kLanes<V> > 1 && i + 1 < n; i += 2) {
        const V* y = vecs(a[i]);
        const V* z = vecs(a[i + 1]);
        for (int v = 0; v < NV; ++v) {
            acc[v] ^= y[v] ^ z[v];
        }
    }
    for (; i < n; ++i) {
        const V* y = vecs(a[i]);
        for (int v = 0; v < NV; ++v) {
            acc[v] ^= y[v];
        }
    }
}

/// Op::Lut, K = k <= 6 fanins, into dst: a bitsliced Shannon mux fold.
/// Fanin 0 folds straight out of the truth-table constants, then each
/// further fanin muxes pairs of entries, lo ^ ((lo ^ hi) & x).  No per-lane
/// work.  Not forced inline: its 32-entry buffer in run_tape's frame
/// measurably slowed the AVX-512 tape at one vector per slot.
template <typename V, int NV, typename Vecs>
void eval_lut(V* dst, std::uint64_t truth, const std::uint32_t* a, int k,
              const Vecs& vecs) noexcept {
    if (k == 0) {
        for (int v = 0; v < NV; ++v) {
            dst[v] = (truth & 1U) ? ~V{} : V{};
        }
        return;
    }
    V buf[32 * NV];
    const V* x0 = vecs(a[0]);
    int entries = 1 << (k - 1);
    for (int t = 0; t < entries; ++t) {
        const bool b0 = (truth >> (2 * t)) & 1U;
        const bool b1 = (truth >> (2 * t + 1)) & 1U;
        for (int v = 0; v < NV; ++v) {
            buf[t * NV + v] = b0 ? (b1 ? ~V{} : ~x0[v]) : (b1 ? x0[v] : V{});
        }
    }
    for (int j = 1; j < k; ++j) {
        const V* x = vecs(a[j]);
        entries >>= 1;
        for (int t = 0; t < entries; ++t) {
            for (int v = 0; v < NV; ++v) {
                const V lo = buf[2 * t * NV + v];
                const V hi = buf[(2 * t + 1) * NV + v];
                buf[t * NV + v] = lo ^ ((lo ^ hi) & x[v]);
            }
        }
    }
    for (int v = 0; v < NV; ++v) {
        dst[v] = buf[v];
    }
}

/// Execute `tape` over `blocks` blocks with NV words-of-V per slot (stride
/// = NV * kLanes<V> >= blocks): load inputs, zeroing pad words; run every
/// instruction over whole vectors; store exactly `blocks` words per output.
/// Cache-line aligned: at the default 16 bytes, a 16-byte shift in where the
/// linker placed this code moved scalar campaign throughput by up to 20%.
template <typename V, int NV, typename Io>
[[gnu::aligned(64)]] void run_tape(const TapeView& tape, const std::uint64_t* in,
                                   std::uint64_t* out, std::uint64_t* slots,
                                   int blocks) {
    constexpr int kStride = NV * kLanes<V>;
    const int n_in = tape.n_inputs;
    const int n_out = tape.n_outputs;
    const bool full = blocks == kStride;
    // The scalar rung has no pad words (NV == blocks); saying so at compile
    // time lets its I/O loops unroll.
    const int live = kLanes<V> == 1 ? kStride : blocks;
    const auto slot = [slots](std::uint32_t s) {
        return slots + static_cast<std::size_t>(s) * kStride;
    };
    // Slot s as NV aligned V words (64-byte arena base, stride a multiple of
    // kLanes<V>).  gcc gives a vector type its element type's alias set, so
    // these are accesses to the arena's u64 storage.
    const auto vecs = [&slot](std::uint32_t s) {
        return reinterpret_cast<V*>(slot(s));
    };

    if (tape.uses_zero_slot) {
        std::fill_n(slot(0), kStride, std::uint64_t{0});
    }
    std::size_t l = full ? Io::template load_inputs<NV>(tape, in, slots) : 0;
    for (; l < tape.n_input_loads; ++l) {
        const auto [input_index, s] = tape.input_loads[l];
        std::uint64_t* dst = slot(s);
        int w = 0;
        for (; w < live; ++w) {
            dst[w] = in[static_cast<std::size_t>(w) * n_in + input_index];
        }
        for (; w < kStride; ++w) {
            dst[w] = 0;
        }
    }

    // Read the tape's fields once: a slot store may alias the u64-sized ones.
    const Program::Insn* const insns = tape.insns;
    const std::uint32_t* const args = tape.args;
    const std::size_t n_insns = tape.n_insns;
    for (std::size_t idx = 0; idx < n_insns; ++idx) {
        const Program::Insn& insn = insns[idx];
        const std::uint32_t* a = args + insn.arg_begin;
        V* dst = vecs(insn.dst);
        switch (insn.op) {
            case Op::And2: {
                const V* x = vecs(a[0]);
                const V* y = vecs(a[1]);
                for (int v = 0; v < NV; ++v) {
                    dst[v] = x[v] & y[v];
                }
                break;
            }
            case Op::Xor2: {
                const V* x = vecs(a[0]);
                const V* y = vecs(a[1]);
                for (int v = 0; v < NV; ++v) {
                    dst[v] = x[v] ^ y[v];
                }
                break;
            }
            case Op::XorN: {
                V acc[NV];
                const V* x = vecs(a[0]);
                for (int v = 0; v < NV; ++v) {
                    acc[v] = x[v];
                }
                xor_leaves<V, NV>(acc, a, 1, insn.arg_count, vecs);
                for (int v = 0; v < NV; ++v) {
                    dst[v] = acc[v];
                }
                break;
            }
            case Op::AndXorN: {
                V acc[NV] = {};
                for (std::uint32_t i = 0; i < 2 * insn.aux; i += 2) {
                    const V* x = vecs(a[i]);
                    const V* y = vecs(a[i + 1]);
                    for (int v = 0; v < NV; ++v) {
                        acc[v] ^= x[v] & y[v];
                    }
                }
                xor_leaves<V, NV>(acc, a, 2 * insn.aux, insn.arg_count, vecs);
                for (int v = 0; v < NV; ++v) {
                    dst[v] = acc[v];
                }
                break;
            }
            case Op::Lut:
                eval_lut<V, NV>(dst, tape.truths[insn.aux], a,
                                static_cast<int>(insn.arg_count), vecs);
                break;
        }
    }

    for (int o = full ? Io::template store_outputs<NV>(tape, out, slots) : 0;
         o < n_out; ++o) {
        const std::uint64_t* src = slot(tape.output_slots[o]);
        for (int w = 0; w < live; ++w) {
            out[static_cast<std::size_t>(w) * n_out + o] = src[w];
        }
    }
}

/// TapeKernel::run for word type V: run_tape instantiated for every vector
/// count a sweep can need, entered at ceil(blocks / kLanes<V>).
template <typename V, typename Io = StridedIo>
void run(const TapeView& tape, const std::uint64_t* in, std::uint64_t* out,
         std::uint64_t* slots, int blocks) {
    static_assert(Program::kMaxBlocks % kLanes<V> == 0);
    static constexpr auto table = []<int... I>(std::integer_sequence<int, I...>) {
        return std::array<TapeRunFn, sizeof...(I)>{&run_tape<V, I + 1, Io>...};
    }(std::make_integer_sequence<int, Program::kMaxBlocks / kLanes<V>>{});
    // Program::run has already validated blocks in [1, kMaxBlocks].
    table[static_cast<std::size_t>((blocks - 1) / kLanes<V>)](tape, in, out,
                                                            slots, blocks);
}

/// bp = [kLanes<V> zero words, b[0..m), kLanes<V> zero words]: the operand
/// copy every strip load reads, so no strip ever reads outside it.
template <typename V>
void copy_padded(const std::uint64_t* b, std::uint64_t* bp, int m) noexcept {
    constexpr int kL = kLanes<V>;
    store_unaligned(bp, V{});
    int j = 0;
    for (; j + kL <= m; j += kL) {
        store_unaligned(bp + kL + j, load_unaligned<V>(b + j));
    }
    for (; j < m; ++j) {  // scalar tail: never read past b
        bp[kL + j] = b[j];
    }
    store_unaligned(bp + kL + m, V{});
}

/// Fused sweep oracle, vector rungs: the lane-reference schoolbook runs
/// column-strip-wise — kLanes<V> consecutive partial-product words live in
/// one accumulator, d[t0+s] = XOR over i of a_i & b[t0+s-i], built from
/// the zero-padded operand copy and stored exactly once per strip.
/// Register accumulation avoids the partially-overlapping store-to-load
/// forwarding stalls of a row-major in-memory accumulate.  The reduction
/// columns and the compare stay scalar (their supports are short and
/// ragged); the word values equal the scalar rung's — XOR accumulation is
/// order-free — which is what the guard screen checks.
///
/// Both scratch regions are software-pipelined so no load ever lands on a
/// wide store still in the store buffer: the operand copy for block b+1 is
/// written after block b's strips have read the previous copy, and the
/// scalar column reads of block b-1 run only after block b's strip stores
/// are issued.
template <typename V>
void sweep_oracle(const SweepOracleView& ov, const std::uint64_t* in,
                  const std::uint64_t* got, std::uint64_t* diff,
                  std::uint64_t* dwork, int blocks) {
    constexpr int kL = kLanes<V>;
    const int m = ov.m;
    const int dn = 2 * m - 1;
    if (blocks <= 0) {
        return;
    }
    // dwork layout (>= 8m + 64 words): two operand copies of m + 2kL words,
    // then two d buffers of 2m + 8 words (dn plus kL - 1 spill words: strip
    // stores are whole vectors), each pair double-buffered for the pipeline.
    std::uint64_t* const bpbuf[2] = {dwork, dwork + (m + 2 * kL)};
    std::uint64_t* const dbuf[2] = {dwork + 2 * (m + 2 * kL),
                                    dwork + 2 * (m + 2 * kL) + (2 * m + 8)};
    const auto reduce = [&](int blk) noexcept {
        const std::uint64_t* d = dbuf[blk & 1];
        const std::uint64_t* g = got + static_cast<std::size_t>(blk) * m;
        std::uint64_t any = 0;
        for (int k = 0; k < m; ++k) {
            std::uint64_t c = d[k];
            for (std::int32_t t = ov.red_offsets[k]; t < ov.red_offsets[k + 1];
                 ++t) {
                c ^= d[m + static_cast<std::size_t>(ov.red_indices[t])];
            }
            any |= c ^ g[k];
        }
        return any;
    };
    copy_padded<V>(in + m, bpbuf[0], m);
    for (int blk = 0; blk < blocks; ++blk) {
        const std::uint64_t* a = in + static_cast<std::size_t>(blk) * 2 * m;
        const std::uint64_t* bp = bpbuf[blk & 1] + kL;
        std::uint64_t* d = dbuf[blk & 1];
        for (int t0 = 0; t0 < dn; t0 += kL) {
            V acc{};
            const int ihi = std::min(t0 + kL - 1, m - 1);
            for (int i = std::max(t0 - m + 1, 0); i <= ihi; ++i) {
                acc ^= (V{} | a[i]) & load_unaligned<V>(bp + t0 - i);
            }
            store_unaligned(d + t0, acc);
        }
        if (blk + 1 < blocks) {
            copy_padded<V>(in + static_cast<std::size_t>(blk + 1) * 2 * m + m,
                           bpbuf[(blk + 1) & 1], m);
        }
        if (blk > 0) {
            diff[blk - 1] = reduce(blk - 1);
        }
    }
    diff[blocks - 1] = reduce(blocks - 1);
}

}  // namespace
}  // namespace gfr::exec

#endif  // GFR_EXEC_RUN_KERNELS_GENERIC_H
