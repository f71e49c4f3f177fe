#ifndef GFR_GUARD_LADDER_H
#define GFR_GUARD_LADDER_H

// The one dispatch ladder behind every runtime-selected kernel family.
//
// A family (bulk byte kernels, bulk word kernels, exec tape backends) is a
// list of rungs, best first, above a floor: the portable reference, which is
// always compiled and never screened.  The rule "take the best compiled,
// CPU-supported rung that passes its self-test" is written once, here:
//
//   - runnable(): rungs whose translation unit was compiled (the family's
//     registry returns non-null) and whose ISA the running CPU+OS report;
//   - select():   the pure policy — the first runnable rung, or the floor
//                 when forced or when nothing runs;
//   - screen():   select() behind the guard self-tests — each runnable rung
//                 is self-tested best first, a failure is recorded as a
//                 Quarantine and the next runnable rung is tried, floor last.
//
// GFR_GUARD_FAULT drills the quarantine path end-to-end: a comma-separated,
// case-insensitive list of rung tokens ("gfni", "avx2", "ssse3", "vpclmul",
// "exec-avx512", "exec-avx2") or umbrella tokens ("all", "1", "simd", "on",
// "true", "yes") that name every rung.  A named rung's self-test runs with a
// flipped output bit, so it fails exactly as a faulty kernel would.

#include "bulk/cpu.h"
#include "guard/status.h"

#include <span>
#include <string>
#include <utility>
#include <vector>

namespace gfr::guard {

/// Environment variable holding the forced-fault spec (read once by each
/// process-wide dispatch; screen() takes the value as a parameter so tests
/// can drive it without mutating the environment).
inline constexpr const char* kGuardFaultEnv = "GFR_GUARD_FAULT";

/// Boolean environment knobs (GFR_BULK_FORCE_SCALAR, GFR_EXEC_FORCE_SCALAR):
/// enabled iff set, non-empty, and not one of "0", "off", "false", "no"
/// (whole token, case-insensitive).  `value` is the getenv() result.
[[nodiscard]] bool env_flag_enabled(const char* value) noexcept;

/// True when `spec` (a GFR_GUARD_FAULT value; nullptr/empty mean no
/// forcing) names `token`, directly or through an umbrella token.
[[nodiscard]] bool fault_spec_hits(const char* spec, const char* token) noexcept;

/// One quarantine event: which rung failed its self-test and why.
struct Quarantine {
    std::string rung;     ///< the rung's GFR_GUARD_FAULT token
    bool forced = false;  ///< failure injected via the GFR_GUARD_FAULT spec
    std::string detail;   ///< first mismatch, self-test coordinates included
    /// "quarantined <rung> (forced by GFR_GUARD_FAULT|self-test): <detail>"
    [[nodiscard]] std::string to_string() const;
    bool operator==(const Quarantine&) const = default;
};

template <class Kind, class Kernel>
struct Ladder {
    std::span<const Kind> rungs;    ///< screened rungs, best first
    const Kernel* floor = nullptr;  ///< never screened; nullptr = no kernel
    const Kernel* (*compiled)(Kind) noexcept = nullptr;  ///< nullptr if absent
    bool (*supported)(Kind, const bulk::CpuFeatures&) noexcept = nullptr;
    const char* (*token)(Kind) noexcept = nullptr;  ///< GFR_GUARD_FAULT name
    Status (*selftest)(const Kernel&, bool force_fault) = nullptr;

    /// The kernel of `kind` when compiled in and supported by `cpu`.
    [[nodiscard]] const Kernel* available(Kind kind,
                                          const bulk::CpuFeatures& cpu) const noexcept {
        const Kernel* k = compiled(kind);
        return k != nullptr && supported(kind, cpu) ? k : nullptr;
    }

    /// Rungs compiled in and supported by `cpu`, best first.
    [[nodiscard]] std::vector<Kind> runnable(const bulk::CpuFeatures& cpu) const {
        std::vector<Kind> out;
        for (const Kind kind : rungs) {
            if (available(kind, cpu) != nullptr) {
                out.push_back(kind);
            }
        }
        return out;
    }

    /// The pure policy: the best runnable rung, else the floor.
    [[nodiscard]] const Kernel* select(const bulk::CpuFeatures& cpu,
                                       bool force_floor) const {
        const std::vector<Kind> r = runnable(cpu);
        return force_floor || r.empty() ? floor : compiled(r.front());
    }

    /// select() behind the self-tests: every failing rung is appended to
    /// `quarantined` (forced when `fault_spec` names it) and the walk moves
    /// down, so the result is the best runnable rung that passed, else the
    /// floor.
    [[nodiscard]] const Kernel* screen(const bulk::CpuFeatures& cpu,
                                       bool force_floor, const char* fault_spec,
                                       std::vector<Quarantine>& quarantined) const {
        if (force_floor) {
            return floor;
        }
        for (const Kind kind : runnable(cpu)) {
            const Kernel* k = compiled(kind);
            const bool forced = fault_spec_hits(fault_spec, token(kind));
            Status s = selftest(*k, forced);
            if (s.ok()) {
                return k;
            }
            quarantined.push_back(Quarantine{token(kind), forced, std::move(s.detail)});
        }
        return floor;
    }
};

}  // namespace gfr::guard

#endif  // GFR_GUARD_LADDER_H
