// Kernel tables and the two bulk ladders, plus the process-wide singleton
// that screens them over the detected CPU and the GFR_BULK_FORCE_SCALAR /
// GFR_GUARD_FAULT environment knobs.

#include "bulk/kernels.h"

#include "guard/kernel_check.h"

#include <cstdlib>

namespace gfr::bulk {

// Every switch over KernelKind in this file is exhaustive *without* a
// default and without a fall-through return after the switch: a new
// enumerator fails to compile (-Werror=switch on the library target) until
// each table below names it.  The old trailing `return "?"` / `return
// nullptr` style let an unlisted kind silently dispatch nothing — exactly
// the latent bug wiring GFNI in would have tripped.

const char* kernel_name(KernelKind kind) noexcept {
    switch (kind) {
        case KernelKind::Scalar: return "scalar";
        case KernelKind::Ssse3: return "ssse3";
        case KernelKind::Avx2: return "avx2";
        case KernelKind::Vpclmul: return "vpclmul";
        case KernelKind::Gfni: return "gfni";
    }
    __builtin_unreachable();
}

bool kernel_supported(KernelKind kind, const CpuFeatures& f) noexcept {
    switch (kind) {
        case KernelKind::Scalar: return true;
        case KernelKind::Ssse3: return f.ssse3;
        case KernelKind::Avx2: return f.avx2;
        case KernelKind::Vpclmul:
            // The wide kernel also issues AVX2 integer ops and the 128-bit
            // PCLMULQDQ scalar helper, so require the full triple — not
            // just the VPCLMULQDQ bit (detect_cpu couples them today, but
            // this predicate is the policy the tests pin for *any*
            // feature combination).
            return f.vpclmulqdq && f.avx2 && f.pclmul;
        case KernelKind::Gfni:
            // Our GFNI kernel is the VEX 256-bit form plus AVX2 XORs for
            // addmul, so the raw GFNI bit alone (SSE-only Atom parts) is
            // not enough — those fall back to SSSE3.
            return f.gfni && f.avx2;
    }
    __builtin_unreachable();
}

const ByteKernel* byte_kernel(KernelKind kind) noexcept {
    switch (kind) {
        case KernelKind::Scalar: return &kByteScalar;
        case KernelKind::Ssse3: return ssse3_byte_kernel();
        case KernelKind::Avx2: return avx2_byte_kernel();
        case KernelKind::Gfni: return gfni_byte_kernel();
        case KernelKind::Vpclmul: return nullptr;  // word family only
    }
    __builtin_unreachable();
}

const WordKernel* word_kernel(KernelKind kind) noexcept {
    // Previously a `kind == Vpclmul ? ... : nullptr` ternary — the one
    // dispatch table the compiler could not check for exhaustiveness.
    switch (kind) {
        case KernelKind::Vpclmul: return vpclmul_word_kernel();
        case KernelKind::Scalar:  // scalar u64 path is the window walk,
        case KernelKind::Ssse3:   // byte family only
        case KernelKind::Avx2:
        case KernelKind::Gfni:
            return nullptr;
    }
    __builtin_unreachable();
}

namespace {

constexpr KernelKind kByteRungs[] = {KernelKind::Gfni, KernelKind::Avx2,
                                     KernelKind::Ssse3};
constexpr KernelKind kWordRungs[] = {KernelKind::Vpclmul};

}  // namespace

constexpr guard::Ladder<KernelKind, ByteKernel> kByteLadder{
    .rungs = kByteRungs,
    .floor = &kByteScalar,
    .compiled = byte_kernel,
    .supported = kernel_supported,
    .token = kernel_name,
    .selftest = guard::selftest_byte_kernel,
};

constexpr guard::Ladder<KernelKind, WordKernel> kWordLadder{
    .rungs = kWordRungs,
    .floor = nullptr,
    .compiled = word_kernel,
    .supported = kernel_supported,
    .token = kernel_name,
    .selftest = guard::selftest_word_kernel,
};

Dispatch screen_dispatch(const CpuFeatures& cpu, bool force_scalar,
                         const char* fault_spec) {
    Dispatch d;
    d.cpu = cpu;
    d.forced_scalar = force_scalar;
    d.byte = kByteLadder.screen(cpu, force_scalar, fault_spec, d.quarantined);
    d.word = kWordLadder.screen(cpu, force_scalar, fault_spec, d.quarantined);
    return d;
}

const Dispatch& dispatch() {
    static const Dispatch d = screen_dispatch(
        detect_cpu(), guard::env_flag_enabled(std::getenv("GFR_BULK_FORCE_SCALAR")),
        std::getenv(guard::kGuardFaultEnv));
    return d;
}

}  // namespace gfr::bulk
