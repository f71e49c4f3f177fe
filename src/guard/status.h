#ifndef GFR_GUARD_STATUS_H
#define GFR_GUARD_STATUS_H

// Structured error taxonomy of the guard subsystem.
//
// The self-checking paths (ABFT region checksums, kernel self-tests) report
// detected faults as values, not exceptions: a checksum mismatch on a
// terabyte stream is an *expected* event the caller routes to re-read /
// re-encode logic, and the kernel quarantine runs inside dispatch
// initialization where an exception would tear down the process the
// degradation exists to save.  Exceptions stay what they always were here —
// programming errors (wrong span lengths, mismatched Prepared state).
//
// This header is a leaf (nothing above <string>), so every layer — the bulk
// kernels below src/field, the region engine above it, the exec tape
// ladder's self-test — can speak the same taxonomy.

#include <string>
#include <utility>

namespace gfr::guard {

/// What a self-check detected.  Extend at the end only: the values are
/// logged by production counters and the tests pin the names.
enum class Fault : unsigned char {
    None = 0,          ///< no fault detected
    KernelSelfTest,    ///< golden-vector self-test failed; kernel quarantined
    RegionChecksum,    ///< ABFT region fold disagrees with the running checksum
};

[[nodiscard]] constexpr const char* fault_name(Fault f) noexcept {
    switch (f) {
        case Fault::None: return "none";
        case Fault::KernelSelfTest: return "kernel-self-test";
        case Fault::RegionChecksum: return "region-checksum";
    }
    return "?";
}

/// Result of one self-check.  ok() is the hot-path query; `detail` is only
/// populated on failure (the success path allocates nothing).
struct [[nodiscard]] Status {
    Fault fault = Fault::None;
    std::string detail;  ///< human-readable failure context; empty when ok

    [[nodiscard]] bool ok() const noexcept { return fault == Fault::None; }
    explicit operator bool() const noexcept { return ok(); }

    [[nodiscard]] std::string to_string() const {
        if (ok()) {
            return "ok";
        }
        std::string out = fault_name(fault);
        if (!detail.empty()) {
            out += ": ";
            out += detail;
        }
        return out;
    }

    static Status good() noexcept { return {}; }
    static Status fail(Fault f, std::string detail) {
        return Status{f, std::move(detail)};
    }
};

}  // namespace gfr::guard

#endif  // GFR_GUARD_STATUS_H
