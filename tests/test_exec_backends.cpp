// Backend tier for the SIMD tape executors (exec/run_kernels.h).
//
// The scalar executor's semantics are pinned against independent references
// in test_exec_program.cpp; here every OTHER compiled backend is pinned
// against the scalar executor:
//
//   - bit-exact differential sweeps over every generator family x every
//     Table V field at every block width 1..kMaxBlocks, explicit backends
//     and the auto-dispatched default side by side;
//   - the fused sweep-oracle rungs pinned against the scalar oracle's diff
//     words (clean outputs, a single tampered lane bit, fully random
//     outputs) at every block count;
//   - the pure dispatch policy (kTapeLadder.select) over all 64 CpuFeatures
//     combinations — a vector backend is never selected without ISA support
//     and forcing scalar always pins scalar;
//   - the exec family of the guard ladder: golden-tape self-tests
//     (guard/exec_check.h), rung order avx512 > avx2 and the scalar floor
//     (the walk itself is pinned in test_guard_dispatch.cpp);
//   - campaign invariance: verify_multiplier's verdict and counterexample
//     string are identical across batching widths and backends, both
//     regimes.

#include "bulk/cpu.h"
#include "exec/program.h"
#include "exec/run_kernels.h"
#include "field/field_catalog.h"
#include "guard/exec_check.h"
#include "guard/ladder.h"
#include "multipliers/generator.h"
#include "multipliers/verify.h"
#include "netlist/simulate.h"
#include "testutil.h"
#include "verify/lane_reference.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace gfr::exec {
namespace {

using netlist::Netlist;
using testutil::Xorshift64Star;

/// Non-scalar compiled backends the running CPU can execute — the set the
/// differential and ladder tests sweep.  May legitimately be empty
/// (portable build, pre-AVX2 hardware); each test then degenerates to its
/// scalar-only assertions and still passes.
std::vector<Backend> runnable_vector_backends() {
    return kTapeLadder.runnable(bulk::detect_cpu());
}

// --- Dispatch tables and policy ----------------------------------------------

TEST(ExecBackends, BackendTablesAreConsistent) {
    // The exec family of the guard ladder: avx512 > avx2 over the scalar
    // floor.
    EXPECT_EQ(std::vector<Backend>(kTapeLadder.rungs.begin(), kTapeLadder.rungs.end()),
              (std::vector<Backend>{Backend::Avx512, Backend::Avx2}));
    EXPECT_EQ(kTapeLadder.floor, &kTapeScalar);

    EXPECT_EQ(tape_kernel(Backend::Scalar), &kTapeScalar);
    EXPECT_EQ(kTapeScalar.backend, Backend::Scalar);
    EXPECT_EQ(kTapeScalar.word_lanes, 1);
    ASSERT_NE(kTapeScalar.run, nullptr);
    ASSERT_NE(kTapeScalar.oracle, nullptr);

    EXPECT_EQ(std::string{backend_name(Backend::Scalar)}, "scalar");
    EXPECT_EQ(std::string{backend_name(Backend::Avx2)}, "avx2");
    EXPECT_EQ(std::string{backend_name(Backend::Avx512)}, "avx512");

    if (const TapeKernel* k = avx2_tape_kernel()) {
        EXPECT_EQ(k, tape_kernel(Backend::Avx2));
        EXPECT_EQ(k->backend, Backend::Avx2);
        EXPECT_EQ(k->word_lanes, 4);
        EXPECT_NE(k->run, nullptr);
        EXPECT_NE(k->oracle, nullptr);
    } else {
        EXPECT_EQ(tape_kernel(Backend::Avx2), nullptr);
    }
    if (const TapeKernel* k = avx512_tape_kernel()) {
        EXPECT_EQ(k, tape_kernel(Backend::Avx512));
        EXPECT_EQ(k->backend, Backend::Avx512);
        EXPECT_EQ(k->word_lanes, 8);
        EXPECT_NE(k->run, nullptr);
        EXPECT_NE(k->oracle, nullptr);
    } else {
        EXPECT_EQ(tape_kernel(Backend::Avx512), nullptr);
    }
}

TEST(ExecBackends, LadderSelectNeverSelectsUnsupportedIsa) {
    // All 64 feature combinations (every CpuFeatures field), forced and
    // unforced: the selected executor's ISA must be within the features,
    // forcing scalar must pin scalar, and among the allowed compiled
    // backends the widest one wins (avx512 > avx2 > scalar).
    for (int bits = 0; bits < 64; ++bits) {
        bulk::CpuFeatures f;
        f.ssse3 = (bits & 1) != 0;
        f.avx2 = (bits & 2) != 0;
        f.pclmul = (bits & 4) != 0;
        f.vpclmulqdq = (bits & 8) != 0;
        f.gfni = (bits & 16) != 0;
        f.avx512f = (bits & 32) != 0;
        for (const bool forced : {false, true}) {
            const TapeKernel* k = kTapeLadder.select(f, forced);
            ASSERT_NE(k, nullptr);
            ASSERT_NE(k->run, nullptr);
            EXPECT_TRUE(backend_supported(k->backend, f))
                << backend_name(k->backend)
                << " selected without support (bits=" << bits << ")";
            Backend want = Backend::Scalar;
            if (!forced) {
                if (f.avx512f && tape_kernel(Backend::Avx512) != nullptr) {
                    want = Backend::Avx512;
                } else if (f.avx2 && tape_kernel(Backend::Avx2) != nullptr) {
                    want = Backend::Avx2;
                }
            }
            EXPECT_EQ(k->backend, want) << "bits=" << bits;
        }
    }
}

TEST(ExecBackends, ProcessDispatchMatchesEnvironmentPolicy) {
    // The process-wide selection obeys GFR_EXEC_FORCE_SCALAR (the CI
    // forced-scalar smoke sets it; the regular run does not) and is always
    // a backend this CPU supports.
    const ExecDispatch& d = dispatch();
    ASSERT_NE(d.kernel, nullptr);
    EXPECT_TRUE(backend_supported(d.kernel->backend, bulk::detect_cpu()));
    const char* env = std::getenv(kExecForceScalarEnv);
    if (guard::env_flag_enabled(env)) {
        EXPECT_TRUE(d.forced_scalar);
        EXPECT_EQ(d.kernel->backend, Backend::Scalar);
    } else {
        EXPECT_FALSE(d.forced_scalar);
    }
}

// --- Differential: every backend vs the scalar reference ---------------------

TEST(ExecBackends, AllBackendsMatchScalarEveryFamilyEveryWidth) {
    // Every generator family x every Table V field x every block width
    // 1..kMaxBlocks: the explicit scalar run is the reference; every
    // runnable vector backend AND the auto-dispatched default must agree
    // word-for-word on identical random inputs.  The scalar rung shares its
    // interpreter source with the vector rungs, so at the narrowest and the
    // widest pass it is itself checked against the independent gate-by-gate
    // interpreter.
    const auto vector_backends = runnable_vector_backends();
    Xorshift64Star rng{0xBAC0FFEEULL};
    testutil::for_each_table5_field([&](const auto& spec, const field::Field& f) {
        const std::size_t n_in = 2 * static_cast<std::size_t>(f.degree());
        const std::size_t n_out = static_cast<std::size_t>(f.degree());
        for (const auto& info : mult::all_methods()) {
            const auto nl = mult::build_multiplier(info.method, f);
            const Program prog = Program::compile(nl);
            Program::Scratch ref_scratch;
            Program::Scratch scratch;
            std::vector<std::uint64_t> in(n_in * Program::kMaxBlocks);
            std::vector<std::uint64_t> want(n_out * Program::kMaxBlocks);
            std::vector<std::uint64_t> got(n_out * Program::kMaxBlocks);
            for (auto& w : in) {
                w = rng.next();
            }
            const std::string what =
                std::string{info.key} + " / " + spec.label();
            for (int blocks = 1; blocks <= Program::kMaxBlocks; ++blocks) {
                const auto in_view = std::span{in}.first(n_in * blocks);
                const auto want_view = std::span{want}.first(n_out * blocks);
                const auto got_view = std::span{got}.first(n_out * blocks);
                prog.run(in_view, want_view, ref_scratch, blocks,
                         Backend::Scalar);
                if (blocks == 1 || blocks == Program::kMaxBlocks) {
                    for (int b = 0; b < blocks; ++b) {
                        const auto ref = netlist::simulate_interpreted(
                            nl, in_view.subspan(b * n_in, n_in));
                        for (std::size_t o = 0; o < n_out; ++o) {
                            ASSERT_EQ(want_view[b * n_out + o], ref[o])
                                << what << ": scalar vs interpreter, blocks="
                                << blocks << " block " << b << " output " << o;
                        }
                    }
                }
                for (const Backend b : vector_backends) {
                    std::fill(got.begin(), got.end(), ~std::uint64_t{0});
                    prog.run(in_view, got_view, scratch, blocks, b);
                    for (std::size_t i = 0; i < want_view.size(); ++i) {
                        ASSERT_EQ(got_view[i], want_view[i])
                            << what << ": backend " << backend_name(b)
                            << " blocks=" << blocks << " word " << i;
                    }
                }
                // The default overload (whatever dispatch() selected,
                // forced-scalar or not) is bit-identical too.
                std::fill(got.begin(), got.end(), ~std::uint64_t{0});
                prog.run(in_view, got_view, scratch, blocks);
                for (std::size_t i = 0; i < want_view.size(); ++i) {
                    ASSERT_EQ(got_view[i], want_view[i])
                        << what << ": auto dispatch, blocks=" << blocks
                        << " word " << i;
                }
            }
        }
    });
}

TEST(ExecBackends, FusedSweepOraclesMatchScalarEveryWidth) {
    // The scalar oracle rung is the reference word-op sequence
    // (LaneReference::products + compare); every runnable vector oracle
    // must reproduce its diff words bit-exactly at every block count.
    // Three regimes per count: clean tape outputs diff to zero everywhere,
    // one flipped lane bit flags exactly its own block with exactly that
    // lane's bit, and fully random outputs (dense diffs) stay
    // word-identical.  Fields cover the AVX-512 register-resident m <= 8
    // fast path (with its odd-block tail) at a degree below one vector
    // (m = 5) and at a full one (m = 8), a degree that is a whole number of
    // vectors on both rungs (m = 64), and the two-word and the three-word
    // general pipeline.  Every field runs on every rung here, unlike the
    // guard's synthetic screen, which runs only on the dispatched one.
    const auto vector_backends = runnable_vector_backends();
    Xorshift64Star rng{0x0B5E55EDULL};
    const field::Field fields[] = {
        field::Field{gf2::Poly::from_exponents({5, 2, 0})},
        field::gf256_paper_field(), field::Field::type2(64, 23),
        field::Field::type2(113, 4), field::Field::type2(163, 68)};
    for (const field::Field& f : fields) {
        const int m = f.degree();
        const std::size_t n_in = 2 * static_cast<std::size_t>(m);
        const verify::LaneReference laneref{f};
        SweepOracleView ov;
        ov.red_indices = laneref.reduction_indices().data();
        ov.red_offsets = laneref.reduction_offsets().data();
        ov.m = m;

        std::vector<std::uint64_t> in(n_in * Program::kMaxBlocks);
        for (auto& w : in) {
            w = rng.next();
        }
        // Clean `got`: the reference products of every block.
        std::vector<std::uint64_t> clean(static_cast<std::size_t>(m) *
                                         Program::kMaxBlocks);
        verify::LaneReference::Scratch ls;
        std::vector<std::uint64_t> block_out;
        for (int b = 0; b < Program::kMaxBlocks; ++b) {
            laneref.products(std::span{in}.subspan(b * n_in, n_in), block_out,
                             ls);
            std::copy(block_out.begin(), block_out.end(),
                      clean.begin() + static_cast<std::size_t>(b) * m);
        }

        std::vector<std::uint64_t> got(clean.size());
        std::vector<std::uint64_t> want_diff(Program::kMaxBlocks);
        std::vector<std::uint64_t> diff(Program::kMaxBlocks);
        std::vector<std::uint64_t> dwork(8 * static_cast<std::size_t>(m) + 64);
        const auto check_backends = [&](const char* regime, int blocks) {
            kTapeScalar.oracle(ov, in.data(), got.data(), want_diff.data(),
                               dwork.data(), blocks);
            for (const Backend b : vector_backends) {
                std::fill(diff.begin(), diff.end(), ~std::uint64_t{0});
                tape_kernel(b)->oracle(ov, in.data(), got.data(), diff.data(),
                                       dwork.data(), blocks);
                for (int i = 0; i < blocks; ++i) {
                    ASSERT_EQ(diff[i], want_diff[i])
                        << "m=" << m << " " << regime << ": backend "
                        << backend_name(b) << " blocks=" << blocks
                        << " diff word " << i;
                }
            }
        };

        for (int blocks = 1; blocks <= Program::kMaxBlocks; ++blocks) {
            // Clean: every block verifies, on the scalar reference itself
            // and on every vector rung.
            got.assign(clean.begin(), clean.end());
            check_backends("clean", blocks);
            for (int i = 0; i < blocks; ++i) {
                ASSERT_EQ(want_diff[i], 0U)
                    << "m=" << m << " scalar clean, blocks=" << blocks
                    << " block " << i;
            }

            // One flipped lane bit: exactly that block, exactly that lane.
            const int t = blocks / 2;
            const int lane = static_cast<int>(rng.next() & 63U);
            const std::size_t coeff = rng.next() % static_cast<std::size_t>(m);
            got[static_cast<std::size_t>(t) * m + coeff] ^= std::uint64_t{1}
                                                            << lane;
            check_backends("tampered", blocks);
            for (int i = 0; i < blocks; ++i) {
                ASSERT_EQ(want_diff[i],
                          i == t ? std::uint64_t{1} << lane : std::uint64_t{0})
                    << "m=" << m << " scalar tampered, blocks=" << blocks
                    << " block " << i;
            }

            // Fully random outputs: dense diff words, still identical.
            for (auto& w : got) {
                w = rng.next();
            }
            check_backends("random", blocks);
        }
    }
}

TEST(ExecBackends, UnavailableBackendThrowsPinnedMessage) {
    // The explicit-backend overload refuses backends this build or CPU
    // cannot run, before any shape checks.  (On hosts where every compiled
    // backend is supported this loop has nothing to refuse — the positive
    // paths are covered above.)
    Netlist nl;
    const auto a = nl.add_input("a");
    const auto b = nl.add_input("b");
    nl.add_output("y", nl.make_xor(a, b));
    const Program prog = Program::compile(nl);
    Program::Scratch scratch;
    std::vector<std::uint64_t> in(2);
    std::vector<std::uint64_t> out(1);
    const bulk::CpuFeatures cpu = bulk::detect_cpu();
    for (const Backend backend : {Backend::Avx2, Backend::Avx512}) {
        if (kTapeLadder.available(backend, cpu) != nullptr) {
            continue;
        }
        try {
            prog.run(in, out, scratch, 1, backend);
            ADD_FAILURE() << backend_name(backend) << " ran while unavailable";
        } catch (const std::invalid_argument& e) {
            EXPECT_EQ(std::string{e.what()},
                      "exec::Program::run: backend not available on this host");
        }
    }
}

// --- Guard: fault specs, self-tests, quarantine ladder -----------------------

TEST(ExecBackends, SelfTestPassesAndDetectsForcedFault) {
    // Every runnable backend (scalar included) passes the golden-tape
    // screening; a forced fault is always caught and names coordinates.
    EXPECT_TRUE(guard::selftest_tape_kernel(kTapeScalar).ok());
    for (const Backend b : runnable_vector_backends()) {
        const TapeKernel* k = tape_kernel(b);
        ASSERT_NE(k, nullptr);
        EXPECT_TRUE(guard::selftest_tape_kernel(*k).ok()) << backend_name(b);
        const guard::Status faulted =
            guard::selftest_tape_kernel(*k, /*force_fault=*/true);
        EXPECT_FALSE(faulted.ok()) << backend_name(b);
        EXPECT_EQ(faulted.fault, guard::Fault::KernelSelfTest);
        EXPECT_FALSE(faulted.detail.empty());
    }
}

TEST(ExecBackends, ScreenLandsOnPolicyOrScalarFloor) {
    // Clean, the screen keeps the policy's choice; forcing every rung lands
    // on the scalar floor with one quarantine per runnable backend, best
    // first; forcing scalar screens nothing.
    const bulk::CpuFeatures cpu = bulk::detect_cpu();
    const ExecDispatch clean = screen_exec_dispatch(cpu, false, nullptr);
    EXPECT_TRUE(clean.quarantined.empty());
    EXPECT_EQ(clean.kernel, kTapeLadder.select(cpu, false));

    const ExecDispatch all = screen_exec_dispatch(cpu, false, "all");
    EXPECT_EQ(all.kernel, &kTapeScalar);
    std::vector<std::string> want;
    for (const Backend b : runnable_vector_backends()) {
        want.push_back(std::string{"exec-"} + backend_name(b));
    }
    std::vector<std::string> got;
    for (const auto& q : all.quarantined) {
        EXPECT_TRUE(q.forced);
        EXPECT_NE(q.to_string().find("forced by"), std::string::npos);
        got.push_back(q.rung);
    }
    EXPECT_EQ(got, want);

    const ExecDispatch pinned = screen_exec_dispatch(cpu, true, "all");
    EXPECT_TRUE(pinned.quarantined.empty());
    EXPECT_EQ(pinned.kernel, &kTapeScalar);
}

// --- Campaign invariance across widths and backends --------------------------

/// Sweeps verify_multiplier over batching widths x backends and demands one
/// verdict string.  `reference_opts` must already pin threads = 1.  The
/// reference run is width 1 on the scalar backend.
void expect_invariant_campaign(const Netlist& bad, const field::Field& f,
                               mult::VerifyOptions opts,
                               const std::string& regime) {
    opts.max_batch_blocks = 1;
    opts.exec_backend = Backend::Scalar;
    const auto reference = mult::verify_multiplier(bad, f, opts);
    ASSERT_TRUE(reference.has_value()) << regime;
    const std::string want = reference->to_string();

    std::vector<std::optional<Backend>> backends{std::nullopt, Backend::Scalar};
    for (const Backend b : runnable_vector_backends()) {
        backends.emplace_back(b);
    }
    for (const int width : {1, 4, 8, 16}) {
        for (const auto& backend : backends) {
            opts.max_batch_blocks = width;
            opts.exec_backend = backend;
            const auto failure = mult::verify_multiplier(bad, f, opts);
            const std::string label =
                regime + ", width=" + std::to_string(width) + ", backend=" +
                (backend ? backend_name(*backend) : "auto");
            ASSERT_TRUE(failure.has_value()) << label;
            EXPECT_EQ(failure->to_string(), want) << label;
        }
    }
}

TEST(ExecBackends, RandomRegimeVerdictInvariantAcrossWidthsAndBackends) {
    // A faulted GF(2^113) multiplier (random regime): the failure's repro
    // string — width-1 sweep coordinates included — must be identical at
    // every batching width, on every backend, and under auto dispatch.
    const field::Field f = field::Field::type2(113, 4);
    const auto good = mult::build_multiplier(mult::Method::Date2018Flat, f);
    const auto bad = testutil::clone_netlist(
        good, nullptr,
        [&](std::size_t index, std::span<const netlist::NodeId> mapped,
            Netlist& dst) {
            return index == 56 ? dst.make_xor(mapped[index], dst.inputs()[3].node)
                               : mapped[index];
        });
    mult::VerifyOptions opts;
    opts.threads = 1;
    opts.random_sweeps = 48;
    expect_invariant_campaign(bad, f, opts, "random");
}

TEST(ExecBackends, ExhaustiveRegimeVerdictInvariantAcrossWidthsAndBackends) {
    // Same invariance over the exhaustive GF(2^8) space: the first failing
    // product of the full enumeration is a fixed point of the sweep order,
    // so every width/backend must report exactly it.
    const field::Field f = field::gf256_paper_field();
    const auto good = mult::build_multiplier(mult::Method::Date2018Flat, f);
    const auto bad = testutil::clone_netlist(
        good, nullptr,
        [&](std::size_t index, std::span<const netlist::NodeId> mapped,
            Netlist& dst) {
            return index == 5 ? dst.make_xor(mapped[index], dst.inputs()[2].node)
                              : mapped[index];
        });
    mult::VerifyOptions opts;
    opts.threads = 1;
    expect_invariant_campaign(bad, f, opts, "exhaustive");
}

TEST(ExecBackends, MultiplierVerifierIsReusableAndMatchesOneShot) {
    // MultiplierVerifier splits preparation (compile, anchors, plan) from
    // campaign execution; repeated runs over one prepared verifier must
    // report exactly what one-shot verify_multiplier calls would — nullopt
    // every time for a correct design, and the identical repro string
    // every time for a faulted one.
    const field::Field f = field::gf256_paper_field();
    const auto good = mult::build_multiplier(mult::Method::Date2018Flat, f);
    mult::VerifyOptions opts;
    opts.threads = 1;

    const mult::MultiplierVerifier ok{good, f, opts};
    EXPECT_FALSE(ok.run().has_value());
    EXPECT_FALSE(ok.run().has_value());

    const auto bad = testutil::clone_netlist(
        good, nullptr,
        [&](std::size_t index, std::span<const netlist::NodeId> mapped,
            Netlist& dst) {
            return index == 5 ? dst.make_xor(mapped[index], dst.inputs()[2].node)
                              : mapped[index];
        });
    const auto one_shot = mult::verify_multiplier(bad, f, opts);
    ASSERT_TRUE(one_shot.has_value());

    const mult::MultiplierVerifier verifier{bad, f, opts};
    const auto first = verifier.run();
    const auto second = verifier.run();
    ASSERT_TRUE(first.has_value());
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(first->to_string(), one_shot->to_string());
    EXPECT_EQ(second->to_string(), one_shot->to_string());
}

}  // namespace
}  // namespace gfr::exec
