// Tape-backend tables and the exec ladder, plus the process-wide singleton
// that screens it over the detected CPU and the GFR_EXEC_FORCE_SCALAR /
// GFR_GUARD_FAULT environment knobs.

#include "exec/run_kernels.h"

#include "guard/exec_check.h"

#include <cstdlib>

namespace gfr::exec {

// Every switch over Backend in this file is exhaustive without a default
// (-Werror=switch on the library target): a new backend fails to compile
// until each table below names it — same discipline as bulk/dispatch.cpp.

const char* backend_name(Backend backend) noexcept {
    switch (backend) {
        case Backend::Scalar: return "scalar";
        case Backend::Avx2: return "avx2";
        case Backend::Avx512: return "avx512";
    }
    __builtin_unreachable();
}

bool backend_supported(Backend backend, const bulk::CpuFeatures& f) noexcept {
    switch (backend) {
        case Backend::Scalar: return true;
        case Backend::Avx2: return f.avx2;
        case Backend::Avx512:
            // avx512f already folds in the XCR0 opmask+ZMM OS check
            // (detect_cpu), and the kernel issues only Foundation ops —
            // no extra feature bits needed.
            return f.avx512f;
    }
    __builtin_unreachable();
}

const TapeKernel* tape_kernel(Backend backend) noexcept {
    switch (backend) {
        case Backend::Scalar: return &kTapeScalar;
        case Backend::Avx2: return avx2_tape_kernel();
        case Backend::Avx512: return avx512_tape_kernel();
    }
    __builtin_unreachable();
}

namespace {

const char* fault_token(Backend backend) noexcept {
    switch (backend) {
        case Backend::Scalar: return "exec-scalar";
        case Backend::Avx2: return "exec-avx2";
        case Backend::Avx512: return "exec-avx512";
    }
    __builtin_unreachable();
}

constexpr Backend kTapeRungs[] = {Backend::Avx512, Backend::Avx2};

}  // namespace

constexpr guard::Ladder<Backend, TapeKernel> kTapeLadder{
    .rungs = kTapeRungs,
    .floor = &kTapeScalar,
    .compiled = tape_kernel,
    .supported = backend_supported,
    .token = fault_token,
    .selftest = guard::selftest_tape_kernel,
};

ExecDispatch screen_exec_dispatch(const bulk::CpuFeatures& cpu,
                                  bool force_scalar, const char* fault_spec) {
    ExecDispatch d;
    d.cpu = cpu;
    d.forced_scalar = force_scalar;
    d.kernel = kTapeLadder.screen(cpu, force_scalar, fault_spec, d.quarantined);
    return d;
}

const ExecDispatch& dispatch() {
    static const ExecDispatch d = screen_exec_dispatch(
        bulk::detect_cpu(), guard::env_flag_enabled(std::getenv(kExecForceScalarEnv)),
        std::getenv(guard::kGuardFaultEnv));
    return d;
}

}  // namespace gfr::exec
