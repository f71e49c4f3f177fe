#ifndef GFR_EXEC_RUN_KERNELS_H
#define GFR_EXEC_RUN_KERNELS_H

// SIMD tape execution backends: the ISA-specific executors behind
// exec::Program::run, plus the process-wide runtime dispatch selecting them.
//
// One interpreter, written once over a word type in run_kernels_generic.h,
// runs the tape on every backend.  The scalar rung instantiates it on u64
// words and fixes the semantics the guard screens the other rungs against
// (the differential tests anchor it to netlist::simulate_interpreted); the
// AVX2 / AVX-512 rungs instantiate it on 256- / 512-bit vector words — four
// or eight 64-lane blocks per word-op — so one pass over a 16-block sweep
// touches each instruction once for up to 1024 test vectors.
//
// Layout contract shared by every backend: the slot arena is an array of
// `slot_count` slots of `stride` words each, where
//
//     stride = round_up(blocks, word_lanes)          (word_lanes: 1 / 4 / 8)
//
// and the arena base is 64-byte aligned (Program::Scratch guarantees both).
// Pad words (blocks < stride) compute garbage that is never stored: input
// loads zero them once, every instruction processes whole vectors, and the
// output store copies exactly `blocks` words per port.  Because outputs are
// copied per-block, all backends are bit-identical by construction wherever
// they are correct — which is exactly what the guard self-test screens.
//
// Dispatch discipline (same as src/bulk): each SIMD backend lives in its own
// translation unit compiled with its own -m flags (GFR_EXEC_HAVE_*, skipped
// under GFR_BULK_PORTABLE_ONLY or non-x86 toolchains); kTapeLadder can never
// select a backend the running CPU+OS do not support; GFR_EXEC_FORCE_SCALAR
// pins the scalar executor at first use; and exec::dispatch() screens the
// ladder (guard/ladder.h, self-test in guard/exec_check.h) before any caller
// can observe it, so a faulty vector backend degrades to scalar, never to
// wrong answers.

#include "bulk/cpu.h"
#include "exec/program.h"
#include "guard/ladder.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gfr::exec {

/// Which ISA a tape executor is built on.  Scalar is always available.
/// Adding an enumerator is a compile error (-Werror=switch, no defaults)
/// until every dispatch table in exec/dispatch.cpp handles it.
enum class Backend : std::uint8_t { Scalar, Avx2, Avx512 };

[[nodiscard]] const char* backend_name(Backend backend) noexcept;

/// True when the running CPU (per `f`) can execute this backend.
[[nodiscard]] bool backend_supported(Backend backend,
                                     const bulk::CpuFeatures& f) noexcept;

/// Read-only view of a compiled tape, the executor-facing flattening of
/// Program's internals (Program::tape_view()).  POD pointers so the kernel
/// translation units need no access to Program's private state.
struct TapeView {
    const Program::Insn* insns = nullptr;
    std::size_t n_insns = 0;
    const std::uint32_t* args = nullptr;
    const std::uint64_t* truths = nullptr;
    /// (input index, slot) pairs for every input the tape actually reads.
    const std::pair<std::uint32_t, std::uint32_t>* input_loads = nullptr;
    std::size_t n_input_loads = 0;
    const std::uint32_t* output_slots = nullptr;
    int n_inputs = 0;
    int n_outputs = 0;
    std::uint32_t slot_count = 0;
    bool uses_zero_slot = false;
};

/// Execute `tape` over `blocks` blocks of 64 lanes (block-major in/out, see
/// Program::run).  `slots` is the 64-byte-aligned arena described above,
/// sized slot_count * round_up(blocks, word_lanes) words.
using TapeRunFn = void (*)(const TapeView& tape, const std::uint64_t* in,
                           std::uint64_t* out, std::uint64_t* slots, int blocks);

/// Reduction structure for the fused sweep oracle: the Mastrovito
/// reduction-column supports T(k), flattened exactly as
/// verify::LaneReference stores them (indices[offsets[k] .. offsets[k+1])
/// are the i with Q[i][k] = 1).  POD pointers so the kernel translation
/// units take no dependency on the verify tier.
struct SweepOracleView {
    const std::int32_t* red_indices = nullptr;  ///< T(k) supports, flattened
    const std::int32_t* red_offsets = nullptr;  ///< m+1 offsets into indices
    int m = 0;
};

/// Fused sweep oracle: for each of `blocks` blocks (block-major `in`, 2m
/// lane-major words each), evaluate the lane-reference product — schoolbook
/// partials then the reduction columns — and compare against the tape's
/// outputs `got` (block-major, m words per block): diff[b] is the OR of
/// every coefficient's 64-lane difference, so block b verifies iff
/// diff[b] == 0.  `dwork` is caller-owned scratch of at least 8m + 64
/// words, reused across blocks; its internal layout is the kernel's own
/// (the vector rungs double-buffer both a zero-padded operand copy and
/// the partial products, so no load — strip, column, or compare — ever
/// lands on a wide store still in flight from the same block).
/// The scalar rung is the reference word-op sequence (bit-for-bit
/// verify::LaneReference::products + compare); vector rungs differ only in
/// row-op width and are screened by the guard tier alongside the tape
/// executor, so a verdict can never ride an unscreened SIMD path.
using OracleRunFn = void (*)(const SweepOracleView& oracle,
                             const std::uint64_t* in, const std::uint64_t* got,
                             std::uint64_t* diff, std::uint64_t* dwork,
                             int blocks);

struct TapeKernel {
    Backend backend = Backend::Scalar;
    /// Words per vector register (1 / 4 / 8): the slot stride granule.
    int word_lanes = 1;
    TapeRunFn run = nullptr;
    OracleRunFn oracle = nullptr;
};

/// The portable scalar executor (always compiled) — the reference semantics
/// every vector backend is screened against.
extern const TapeKernel kTapeScalar;

// Defined by their translation units; return nullptr when the TU was
// compiled without its ISA (non-x86 target or GFR_BULK_PORTABLE_ONLY).
[[nodiscard]] const TapeKernel* avx2_tape_kernel() noexcept;
[[nodiscard]] const TapeKernel* avx512_tape_kernel() noexcept;

/// The compiled executor of `backend` (Scalar included), or nullptr.
[[nodiscard]] const TapeKernel* tape_kernel(Backend backend) noexcept;

/// avx512 > avx2 over the kTapeScalar floor; GFR_GUARD_FAULT tokens are
/// "exec-avx512" / "exec-avx2".
extern const guard::Ladder<Backend, TapeKernel> kTapeLadder;

/// The backend selection for one (CPU, policy, fault spec).  `kernel`
/// always points at an executor (scalar at worst).
struct ExecDispatch {
    bulk::CpuFeatures cpu;
    bool forced_scalar = false;
    const TapeKernel* kernel = nullptr;
    std::vector<guard::Quarantine> quarantined;
};

/// Screen kTapeLadder over `cpu`: the selection callers may use, with every
/// backend that failed its golden-tape self-test on the way down.
[[nodiscard]] ExecDispatch screen_exec_dispatch(const bulk::CpuFeatures& cpu,
                                                bool force_scalar,
                                                const char* fault_spec);

/// Environment knob pinning the scalar executor (parsed with
/// guard::env_flag_enabled: empty/"0"/"off"/"false"/"no" mean unset).
inline constexpr const char* kExecForceScalarEnv = "GFR_EXEC_FORCE_SCALAR";

/// The process-wide backend: screen_exec_dispatch over the probed CPU,
/// GFR_EXEC_FORCE_SCALAR and GFR_GUARD_FAULT, run once on first call.
[[nodiscard]] const ExecDispatch& dispatch();

}  // namespace gfr::exec

#endif  // GFR_EXEC_RUN_KERNELS_H
