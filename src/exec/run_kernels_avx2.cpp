// AVX2 tape executor: the shared interpreter and sweep oracle
// (run_kernels_generic.h) on 256-bit words — four 64-lane blocks per
// word-op, up to four YMM vectors (16 blocks) per slot.  The slot stride is
// rounded up to 4 words, so every slot starts 32-byte aligned; pad words
// beyond `blocks` are zeroed at input-load time, computed through like real
// blocks, and never stored to the output.
//
// This translation unit is the only one compiled with -mavx2
// (GFR_EXEC_HAVE_AVX2 from CMake); the dispatcher never selects the kernel
// unless CPUID+XGETBV report AVX2 with YMM state OS-enabled.

#include "exec/run_kernels.h"

#if defined(GFR_EXEC_HAVE_AVX2)

#include "exec/run_kernels_generic.h"

#include <cstdint>

namespace gfr::exec {

namespace {

typedef std::uint64_t Ymm __attribute__((vector_size(32), may_alias));
static_assert(sizeof(Ymm) == 8 * 4, "vector_size ignored");

const TapeKernel kTapeAvx2{Backend::Avx2, /*word_lanes=*/4, &run<Ymm>,
                           &sweep_oracle<Ymm>};

}  // namespace

const TapeKernel* avx2_tape_kernel() noexcept { return &kTapeAvx2; }

}  // namespace gfr::exec

#else  // !GFR_EXEC_HAVE_AVX2

namespace gfr::exec {

const TapeKernel* avx2_tape_kernel() noexcept { return nullptr; }

}  // namespace gfr::exec

#endif
