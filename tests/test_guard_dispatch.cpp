// The guard dispatch ladder (guard/ladder.h): the knob grammars behind
// GFR_BULK_FORCE_SCALAR / GFR_EXEC_FORCE_SCALAR / GFR_GUARD_FAULT, the walk
// itself on a synthetic family (so it runs on every host, whatever ISA it
// has), the bulk kernels' self-tests, and where each process-wide dispatch
// lands under the environment it was started with.

#include "bulk/kernels.h"
#include "exec/run_kernels.h"
#include "guard/exec_check.h"
#include "guard/kernel_check.h"
#include "guard/ladder.h"
#include "guard/status.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

namespace gfr {
namespace {

TEST(GuardStatus, Basics) {
    const guard::Status ok = guard::Status::good();
    EXPECT_TRUE(ok.ok());
    EXPECT_TRUE(static_cast<bool>(ok));
    const guard::Status bad =
        guard::Status::fail(guard::Fault::RegionChecksum, "boom");
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.fault, guard::Fault::RegionChecksum);
    EXPECT_NE(bad.to_string().find("region-checksum"), std::string::npos);
    EXPECT_NE(bad.to_string().find("boom"), std::string::npos);
    EXPECT_STREQ(guard::fault_name(guard::Fault::None), "none");
    EXPECT_STREQ(guard::fault_name(guard::Fault::KernelSelfTest),
                 "kernel-self-test");
}

TEST(GuardLadder, EnvFlagParsing) {
    // Empty / "0" / "off" / "false" / "no" (any case) mean UNSET, so
    // scripts can pass the force-scalar knobs through unconditionally.
    for (const char* off : {"", "0", "off", "OFF", "Off", "false", "FALSE", "no", "No"}) {
        EXPECT_FALSE(guard::env_flag_enabled(off)) << off;
    }
    EXPECT_FALSE(guard::env_flag_enabled(nullptr));
    // Whole-token comparison, not prefix: "0x" and "offline" enable.
    for (const char* on : {"1", "on", "yes", "true", "2", "scalar", "0x", "offline"}) {
        EXPECT_TRUE(guard::env_flag_enabled(on)) << on;
    }
}

TEST(GuardLadder, FaultSpecTokenTable) {
    // One grammar for every family: rung tokens, umbrella tokens, skipped
    // off tokens, comma lists, whole-token case-insensitive matching.
    struct Row {
        const char* spec;
        const char* token;
        bool hits;
    };
    const Row rows[] = {
        {nullptr, "avx2", false},
        {"", "avx2", false},
        {"0", "avx2", false},
        {"off", "avx2", false},
        {"false", "exec-avx2", false},
        {"no", "exec-avx2", false},
        {"bogus", "avx2", false},
        {"ssse3", "ssse3", true},
        {"ssse3", "avx2", false},
        {"AVX2", "avx2", true},
        {"gfni", "gfni", true},
        {"GFNI", "gfni", true},
        {"gfni", "avx2", false},
        {"vpclmul", "vpclmul", true},
        {"avx2,vpclmul", "vpclmul", true},
        {"avx2,vpclmul", "avx2", true},
        {"avx2,vpclmul", "ssse3", false},
        {"exec-avx2", "exec-avx2", true},
        {"EXEC-AVX512", "exec-avx512", true},
        {"exec-avx512", "exec-avx2", false},
        {"exec-avx2", "exec-avx512", false},
        // Bulk names never hit exec rungs, nor exec names bulk ones.
        {"avx2", "exec-avx2", false},
        {"gfni", "exec-avx2", false},
        {"exec-avx2", "avx2", false},
        {"gfni,exec-avx2", "exec-avx2", true},
        {"exec-avx2,gfni", "gfni", true},
        {"gfni,vpclmul", "exec-avx2", false},
        {"vpclmul,EXEC-AVX2", "exec-avx2", true},
        {"0,gfni", "gfni", true},
        {"gfni,", "gfni", true},
        {",gfni", "gfni", true},
        {"gfnix", "gfni", false},
    };
    for (const Row& r : rows) {
        EXPECT_EQ(guard::fault_spec_hits(r.spec, r.token), r.hits)
            << (r.spec ? r.spec : "(null)") << " vs " << r.token;
    }
    for (const char* all : {"all", "1", "simd", "on", "true", "yes", "ALL", "Simd"}) {
        for (const char* token : {"gfni", "avx2", "ssse3", "vpclmul", "exec-avx512",
                                  "exec-avx2"}) {
            EXPECT_TRUE(guard::fault_spec_hits(all, token)) << all << " vs " << token;
        }
    }
}

// --- The walk, on a synthetic family ------------------------------------------

/// A fake family with one rung per way of failing to be selected: not
/// compiled, not supported (unless the CPU reports AVX-512F), failing its
/// self-test, and one healthy rung above the floor.
enum class Fake : std::uint8_t { Floor, Missing, Unsupported, Broken, Healthy };

struct FakeKernel {
    Fake kind;
};

constexpr FakeKernel kFakeKernels[] = {{Fake::Floor}, {Fake::Missing},
                                       {Fake::Unsupported}, {Fake::Broken},
                                       {Fake::Healthy}};

const FakeKernel* fake_compiled(Fake kind) noexcept {
    return kind == Fake::Missing ? nullptr : &kFakeKernels[static_cast<int>(kind)];
}

bool fake_supported(Fake kind, const bulk::CpuFeatures& f) noexcept {
    return kind != Fake::Unsupported || f.avx512f;
}

const char* fake_token(Fake kind) noexcept {
    constexpr const char* kTokens[] = {"fake-floor", "fake-missing",
                                       "fake-unsupported", "fake-broken",
                                       "fake-healthy"};
    return kTokens[static_cast<int>(kind)];
}

guard::Status fake_selftest(const FakeKernel& k, bool force_fault) {
    if (k.kind == Fake::Broken) {
        return guard::Status::fail(guard::Fault::KernelSelfTest, "broken output");
    }
    if (force_fault) {
        return guard::Status::fail(guard::Fault::KernelSelfTest, "flipped bit");
    }
    return guard::Status::good();
}

constexpr Fake kFakeRungs[] = {Fake::Missing, Fake::Unsupported, Fake::Broken,
                               Fake::Healthy};

constexpr guard::Ladder<Fake, FakeKernel> kFakeLadder{
    .rungs = kFakeRungs,
    .floor = &kFakeKernels[0],  // Fake::Floor
    .compiled = fake_compiled,
    .supported = fake_supported,
    .token = fake_token,
    .selftest = fake_selftest,
};

TEST(GuardLadder, SyntheticFamilyWalk) {
    const FakeKernel* floor = fake_compiled(Fake::Floor);
    const FakeKernel* unsupported = fake_compiled(Fake::Unsupported);
    const FakeKernel* broken = fake_compiled(Fake::Broken);
    const FakeKernel* healthy = fake_compiled(Fake::Healthy);
    const bulk::CpuFeatures cpu{};
    bulk::CpuFeatures wide{};
    wide.avx512f = true;

    // runnable: compiled AND supported, best first.
    EXPECT_EQ(kFakeLadder.runnable(cpu),
              (std::vector<Fake>{Fake::Broken, Fake::Healthy}));
    EXPECT_EQ(kFakeLadder.runnable(wide),
              (std::vector<Fake>{Fake::Unsupported, Fake::Broken, Fake::Healthy}));
    EXPECT_EQ(kFakeLadder.available(Fake::Missing, wide), nullptr);
    EXPECT_EQ(kFakeLadder.available(Fake::Unsupported, cpu), nullptr);
    EXPECT_EQ(kFakeLadder.available(Fake::Unsupported, wide), unsupported);

    // select: the pure policy never self-tests, so it picks the broken rung.
    EXPECT_EQ(kFakeLadder.select(cpu, false), broken);
    EXPECT_EQ(kFakeLadder.select(wide, false), unsupported);
    EXPECT_EQ(kFakeLadder.select(cpu, true), floor);

    // screen: the broken rung is quarantined by its own self-test and the
    // walk stops at the next healthy one.
    std::vector<guard::Quarantine> q;
    EXPECT_EQ(kFakeLadder.screen(cpu, false, nullptr, q), healthy);
    ASSERT_EQ(q.size(), 1U);
    EXPECT_EQ(q[0], (guard::Quarantine{"fake-broken", false, "broken output"}));
    EXPECT_EQ(q[0].to_string(), "quarantined fake-broken (self-test): broken output");

    // Force-floor: nothing is screened, even under "all".
    q.clear();
    EXPECT_EQ(kFakeLadder.screen(cpu, true, "all", q), floor);
    EXPECT_TRUE(q.empty());

    // A named token fails just that rung; the walk falls to the floor
    // because no healthy rung is left below it.
    q.clear();
    EXPECT_EQ(kFakeLadder.screen(cpu, false, "fake-healthy", q), floor);
    ASSERT_EQ(q.size(), 2U);
    EXPECT_EQ(q[0], (guard::Quarantine{"fake-broken", false, "broken output"}));
    EXPECT_EQ(q[1], (guard::Quarantine{"fake-healthy", true, "flipped bit"}));
    EXPECT_EQ(q[1].to_string(),
              "quarantined fake-healthy (forced by GFR_GUARD_FAULT): flipped bit");

    // A named token on a rung the walk never reaches changes nothing.
    q.clear();
    EXPECT_EQ(kFakeLadder.screen(cpu, false, "fake-unsupported", q), healthy);
    ASSERT_EQ(q.size(), 1U);
    EXPECT_FALSE(q[0].forced);

    // An umbrella token fails every runnable rung, best first, down to the
    // floor, which is never screened.
    q.clear();
    EXPECT_EQ(kFakeLadder.screen(wide, false, "simd", q), floor);
    ASSERT_EQ(q.size(), 3U);
    EXPECT_EQ(q[0], (guard::Quarantine{"fake-unsupported", true, "flipped bit"}));
    EXPECT_EQ(q[1], (guard::Quarantine{"fake-broken", true, "broken output"}));
    EXPECT_EQ(q[2], (guard::Quarantine{"fake-healthy", true, "flipped bit"}));
}

// --- The bulk families --------------------------------------------------------

TEST(GuardLadder, BulkFamiliesRungOrderAndFloor) {
    using bulk::KernelKind;
    EXPECT_EQ(std::vector<KernelKind>(bulk::kByteLadder.rungs.begin(),
                                      bulk::kByteLadder.rungs.end()),
              (std::vector<KernelKind>{KernelKind::Gfni, KernelKind::Avx2,
                                       KernelKind::Ssse3}));
    EXPECT_EQ(bulk::kByteLadder.floor, &bulk::kByteScalar);
    EXPECT_EQ(std::vector<KernelKind>(bulk::kWordLadder.rungs.begin(),
                                      bulk::kWordLadder.rungs.end()),
              (std::vector<KernelKind>{KernelKind::Vpclmul}));
    EXPECT_EQ(bulk::kWordLadder.floor, nullptr);  // the window-table walk

    // Forcing everything lands both families on their floors, with one
    // quarantine per runnable rung, byte family first.
    const bulk::CpuFeatures cpu = bulk::detect_cpu();
    const bulk::Dispatch all = bulk::screen_dispatch(cpu, false, "all");
    EXPECT_EQ(all.byte, &bulk::kByteScalar);
    EXPECT_EQ(all.word, nullptr);
    std::vector<std::string> want;
    for (const auto kind : bulk::kByteLadder.runnable(cpu)) {
        want.emplace_back(bulk::kernel_name(kind));
    }
    for (const auto kind : bulk::kWordLadder.runnable(cpu)) {
        want.emplace_back(bulk::kernel_name(kind));
    }
    std::vector<std::string> got;
    for (const auto& q : all.quarantined) {
        EXPECT_TRUE(q.forced);
        got.push_back(q.rung);
    }
    EXPECT_EQ(got, want);

    // Clean: the screen keeps the policy's choice, and forced scalar pins
    // both floors.
    const bulk::Dispatch clean = bulk::screen_dispatch(cpu, false, nullptr);
    EXPECT_TRUE(clean.quarantined.empty());
    EXPECT_EQ(clean.byte, bulk::kByteLadder.select(cpu, false));
    EXPECT_EQ(clean.word, bulk::kWordLadder.select(cpu, false));
    const bulk::Dispatch pinned = bulk::screen_dispatch(cpu, true, "all");
    EXPECT_TRUE(pinned.quarantined.empty());
    EXPECT_EQ(pinned.byte, &bulk::kByteScalar);
    EXPECT_EQ(pinned.word, nullptr);
}

TEST(GuardDispatch, ScalarByteKernelPassesSelfTest) {
    // The scalar kernel is never screened in production, but it must agree
    // with the self-test's independent reference — otherwise the reference
    // itself is wrong.
    const guard::Status s = guard::selftest_byte_kernel(bulk::kByteScalar);
    EXPECT_TRUE(s.ok()) << s.to_string();
}

TEST(GuardDispatch, CompiledKernelsPassSelfTests) {
    const bulk::CpuFeatures cpu = bulk::detect_cpu();
    for (const auto kind : bulk::kByteLadder.runnable(cpu)) {
        const guard::Status s =
            guard::selftest_byte_kernel(*bulk::byte_kernel(kind));
        EXPECT_TRUE(s.ok()) << s.to_string();
    }
    for (const auto kind : bulk::kWordLadder.runnable(cpu)) {
        const guard::Status s =
            guard::selftest_word_kernel(*bulk::word_kernel(kind));
        EXPECT_TRUE(s.ok()) << s.to_string();
    }
}

TEST(GuardDispatch, ForcedFaultFailsSelfTest) {
    const guard::Status s =
        guard::selftest_byte_kernel(bulk::kByteScalar, /*force_fault=*/true);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.fault, guard::Fault::KernelSelfTest);
    EXPECT_NE(s.detail.find("mismatch"), std::string::npos) << s.detail;
}

// --- Where the process-wide dispatches land -----------------------------------

/// Where a walk over healthy kernels must land: the best runnable rung the
/// fault spec does not name, else the floor.
template <class Kind, class Kernel>
const Kernel* first_unnamed(const guard::Ladder<Kind, Kernel>& ladder,
                            const bulk::CpuFeatures& cpu, bool force_floor,
                            const char* spec) {
    for (const Kind kind : ladder.runnable(cpu)) {
        if (!force_floor && !guard::fault_spec_hits(spec, ladder.token(kind))) {
            return ladder.compiled(kind);
        }
    }
    return ladder.floor;
}

TEST(GuardDispatch, ProcessDispatchIsTheScreenOfItsEnvironment) {
    // Each process-wide dispatch was screened once, on first use, over
    // whatever GFR_* knobs the environment carries (the CI drills set
    // them; the regular run does not).  A fresh screen over the same
    // inputs must land on the same kernels with the same quarantine list;
    // since every real kernel is healthy, every entry is forced and no
    // rung the spec leaves alone is skipped (GFR_GUARD_FAULT=gfni lands on
    // avx2 where it runs, not on scalar).
    const bulk::CpuFeatures cpu = bulk::detect_cpu();
    const char* spec = std::getenv(guard::kGuardFaultEnv);

    const bulk::Dispatch& bd = bulk::dispatch();
    const bulk::Dispatch bulk_want = bulk::screen_dispatch(
        cpu, guard::env_flag_enabled(std::getenv("GFR_BULK_FORCE_SCALAR")), spec);
    EXPECT_EQ(bd.forced_scalar, bulk_want.forced_scalar);
    EXPECT_EQ(bd.byte, bulk_want.byte);
    EXPECT_EQ(bd.word, bulk_want.word);
    EXPECT_EQ(bd.quarantined, bulk_want.quarantined);
    EXPECT_EQ(&guard::quarantine_report(), &bd.quarantined);

    const exec::ExecDispatch& ed = exec::dispatch();
    const exec::ExecDispatch exec_want = exec::screen_exec_dispatch(
        cpu, guard::env_flag_enabled(std::getenv(exec::kExecForceScalarEnv)), spec);
    EXPECT_EQ(ed.forced_scalar, exec_want.forced_scalar);
    EXPECT_EQ(ed.kernel, exec_want.kernel);
    EXPECT_EQ(ed.quarantined, exec_want.quarantined);
    EXPECT_EQ(&guard::exec_quarantine_report(), &ed.quarantined);

    EXPECT_EQ(bd.byte, first_unnamed(bulk::kByteLadder, cpu, bd.forced_scalar, spec));
    EXPECT_EQ(bd.word, first_unnamed(bulk::kWordLadder, cpu, bd.forced_scalar, spec));
    EXPECT_EQ(ed.kernel, first_unnamed(exec::kTapeLadder, cpu, ed.forced_scalar, spec));
    for (const auto* report : {&bd.quarantined, &ed.quarantined}) {
        for (const auto& q : *report) {
            EXPECT_TRUE(q.forced) << q.to_string();
            EXPECT_TRUE(guard::fault_spec_hits(spec, q.rung.c_str())) << q.to_string();
        }
    }
}

}  // namespace
}  // namespace gfr
