#include "guard/kernel_check.h"

#include <array>
#include <cstdio>
#include <vector>

namespace gfr::guard {

namespace {

/// splitmix64 — deterministic vector generation for the self-tests.  Local
/// on purpose: the guard tier must not share PRNG code with the tiers it
/// screens.
struct SelfTestRng {
    std::uint64_t state;
    std::uint64_t operator()() noexcept {
        std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    }
};

std::string hex(std::uint64_t v) {
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(v));
    return buf;
}

/// Lengths straddling every vector width (16/32 bytes, 4 u64 lanes), their
/// tails, and the empty case.
constexpr std::array<std::size_t, 14> kByteLengths = {
    0, 1, 2, 3, 15, 16, 17, 31, 32, 33, 63, 64, 65, 257};
constexpr std::array<std::size_t, 12> kWordLengths = {0, 1, 2,  3,  4,  5,
                                                      7, 8, 9,  16, 33, 100};

/// GF(2^64) with f = y^64 + y^4 + y^3 + y + 1 — the word self-test field.
constexpr std::uint64_t kWordTails = 0x1B;

/// Software GF2P8AFFINEQB byte transform (parity loops, no SIMD): the
/// independent reference the GFNI kernel's tables are derived from in its
/// self-test.  Output bit i = parity(matrix byte 7-i AND input).
std::uint8_t soft_affine(std::uint64_t matrix, std::uint8_t x) noexcept {
    std::uint8_t r = 0;
    for (int i = 0; i < 8; ++i) {
        const auto row = static_cast<std::uint8_t>(matrix >> ((7 - i) * 8));
        const unsigned masked = static_cast<unsigned>(row & x);
        unsigned parity = masked;
        parity ^= parity >> 4;
        parity ^= parity >> 2;
        parity ^= parity >> 1;
        r = static_cast<std::uint8_t>(r | ((parity & 1U) << i));
    }
    return r;
}

/// Russian-peasant shift-XOR multiply mod f: bitwise, no CLMUL, no folds —
/// structurally unrelated to the kernel under test.
std::uint64_t peasant_mul(std::uint64_t a, std::uint64_t b) noexcept {
    std::uint64_t r = 0;
    while (b != 0) {
        if (b & 1U) {
            r ^= a;
        }
        b >>= 1;
        const bool overflow = (a >> 63) != 0;
        a <<= 1;
        if (overflow) {
            a ^= kWordTails;
        }
    }
    return r;
}

}  // namespace

Status selftest_byte_kernel(const bulk::ByteKernel& k, bool force_fault) {
    const char* name = bulk::kernel_name(k.kind);
    if (k.mul == nullptr || k.addmul == nullptr) {
        return Status::fail(Fault::KernelSelfTest,
                            std::string{name} + " byte kernel: null entry point");
    }
    SelfTestRng rng{0xB17EC0DEULL ^ static_cast<std::uint64_t>(k.kind)};
    // Tables need not be field products: the shuffle kernels implement the
    // pure two-lookup-XOR semantics for ANY tables, so random ones (with the
    // structural zero at index 0 real tables carry) test exactly that.  The
    // GFNI kernel can only represent GF(2)-linear maps, so for it the tables
    // are instead *derived* from a random bit matrix via the independent
    // software affine transform above — by linearity the same two-lookup
    // reference then checks the vector path against that emulation.
    bulk::NibbleTables t{};
    if (k.kind == bulk::KernelKind::Gfni) {
        t.matrix = rng();
        for (int v = 0; v < 16; ++v) {
            t.lo[v] = soft_affine(t.matrix, static_cast<std::uint8_t>(v));
            t.hi[v] = soft_affine(t.matrix, static_cast<std::uint8_t>(v << 4));
        }
    } else {
        for (int v = 1; v < 16; ++v) {
            t.lo[v] = static_cast<std::uint8_t>(rng());
            t.hi[v] = static_cast<std::uint8_t>(rng());
        }
    }
    const auto ref = [&t](std::uint8_t s) {
        return static_cast<std::uint8_t>(t.lo[s & 0xF] ^ t.hi[s >> 4]);
    };
    constexpr std::size_t kMax = 257;
    // One leading pad byte so every length also runs at an odd address —
    // the kernels promise alignment-free operation.
    std::vector<std::uint8_t> src(kMax + 1), dst(kMax + 1), expect(kMax + 1);
    bool faulted = !force_fault;
    for (const std::size_t n : kByteLengths) {
        for (const std::size_t off : {std::size_t{0}, std::size_t{1}}) {
            for (std::size_t i = 0; i < n; ++i) {
                src[off + i] = static_cast<std::uint8_t>(rng());
                dst[off + i] = static_cast<std::uint8_t>(rng());
            }
            // mul
            for (std::size_t i = 0; i < n; ++i) {
                expect[i] = ref(src[off + i]);
            }
            k.mul(t, src.data() + off, dst.data() + off, n);
            if (!faulted && n != 0) {
                dst[off] ^= 1;  // forced fault: corrupt one output lane
                faulted = true;
            }
            for (std::size_t i = 0; i < n; ++i) {
                if (dst[off + i] != expect[i]) {
                    return Status::fail(
                        Fault::KernelSelfTest,
                        std::string{name} + " byte mul mismatch at n=" +
                            std::to_string(n) + " off=" + std::to_string(off) +
                            " i=" + std::to_string(i) + ": got " +
                            hex(dst[off + i]) + " want " + hex(expect[i]));
                }
            }
            // addmul accumulates into prior dst contents
            for (std::size_t i = 0; i < n; ++i) {
                expect[i] = static_cast<std::uint8_t>(dst[off + i] ^
                                                      ref(src[off + i]));
            }
            k.addmul(t, src.data() + off, dst.data() + off, n);
            for (std::size_t i = 0; i < n; ++i) {
                if (dst[off + i] != expect[i]) {
                    return Status::fail(
                        Fault::KernelSelfTest,
                        std::string{name} + " byte addmul mismatch at n=" +
                            std::to_string(n) + " off=" + std::to_string(off) +
                            " i=" + std::to_string(i) + ": got " +
                            hex(dst[off + i]) + " want " + hex(expect[i]));
                }
            }
            // in-place mul (dst == src is inside the aliasing contract)
            for (std::size_t i = 0; i < n; ++i) {
                expect[i] = ref(src[off + i]);
            }
            k.mul(t, src.data() + off, src.data() + off, n);
            for (std::size_t i = 0; i < n; ++i) {
                if (src[off + i] != expect[i]) {
                    return Status::fail(
                        Fault::KernelSelfTest,
                        std::string{name} + " byte in-place mul mismatch at n=" +
                            std::to_string(n) + " off=" + std::to_string(off) +
                            " i=" + std::to_string(i) + ": got " +
                            hex(src[off + i]) + " want " + hex(expect[i]));
                }
            }
        }
    }
    return Status::good();
}

Status selftest_word_kernel(const bulk::WordKernel& k, bool force_fault) {
    const char* name = bulk::kernel_name(k.kind);
    if (k.mul == nullptr || k.addmul == nullptr) {
        return Status::fail(Fault::KernelSelfTest,
                            std::string{name} + " word kernel: null entry point");
    }
    SelfTestRng rng{0x51DEC4A5ULL ^ static_cast<std::uint64_t>(k.kind)};
    // folds pinned at the eligibility bound: extra fold iterations are
    // no-ops, and with elem_mask all-ones the residual scalar fallback
    // (which shares a TU with the kernel) can never fire — every compared
    // value comes off the vector path.
    bulk::WideParams p{};
    p.tails_mask = kWordTails;
    p.elem_mask = ~std::uint64_t{0};
    p.m = 64;
    p.folds = bulk::kMaxWideFolds;
    constexpr std::size_t kMax = 100;
    std::vector<std::uint64_t> a(kMax), dst(kMax), expect(kMax);
    bool faulted = !force_fault;
    for (const std::size_t n : kWordLengths) {
        p.c = rng();
        for (std::size_t i = 0; i < n; ++i) {
            a[i] = rng();
            dst[i] = rng();
        }
        // const-mul
        for (std::size_t i = 0; i < n; ++i) {
            expect[i] = peasant_mul(p.c, a[i]);
        }
        k.mul(p, a.data(), dst.data(), n);
        if (!faulted && n != 0) {
            dst[0] ^= 1;
            faulted = true;
        }
        for (std::size_t i = 0; i < n; ++i) {
            if (dst[i] != expect[i]) {
                return Status::fail(
                    Fault::KernelSelfTest,
                    std::string{name} + " word mul mismatch at n=" +
                        std::to_string(n) + " i=" + std::to_string(i) +
                        ": got " + hex(dst[i]) + " want " + hex(expect[i]));
            }
        }
        // addmul accumulates
        for (std::size_t i = 0; i < n; ++i) {
            expect[i] = dst[i] ^ peasant_mul(p.c, a[i]);
        }
        k.addmul(p, a.data(), dst.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
            if (dst[i] != expect[i]) {
                return Status::fail(
                    Fault::KernelSelfTest,
                    std::string{name} + " word addmul mismatch at n=" +
                        std::to_string(n) + " i=" + std::to_string(i) +
                        ": got " + hex(dst[i]) + " want " + hex(expect[i]));
            }
        }
    }
    return Status::good();
}

const std::vector<Quarantine>& quarantine_report() {
    return bulk::dispatch().quarantined;
}

}  // namespace gfr::guard
