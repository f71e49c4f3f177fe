#include "guard/ladder.h"

#include <algorithm>
#include <initializer_list>
#include <string_view>

namespace gfr::guard {

namespace {

/// Whole-token ASCII case-insensitive match against any of `words` (lower
/// case) — the one matcher behind both knob grammars.
bool token_in(std::string_view token,
              std::initializer_list<std::string_view> words) noexcept {
    const auto same = [](char t, char w) {
        return (t >= 'A' && t <= 'Z' ? static_cast<char>(t - 'A' + 'a') : t) == w;
    };
    for (const std::string_view word : words) {
        if (std::equal(token.begin(), token.end(), word.begin(), word.end(), same)) {
            return true;
        }
    }
    return false;
}

}  // namespace

bool env_flag_enabled(const char* value) noexcept {
    return value != nullptr && *value != '\0' &&
           !token_in(value, {"0", "off", "false", "no"});
}

bool fault_spec_hits(const char* spec, const char* token) noexcept {
    std::string_view rest = spec != nullptr ? spec : "";
    while (!rest.empty()) {
        const std::size_t comma = rest.find(',');
        const std::string_view t = rest.substr(0, comma);
        rest = comma == std::string_view::npos ? std::string_view{}
                                               : rest.substr(comma + 1);
        // Off tokens ("0", "off", ...) name no rung, so they fall through.
        if (token_in(t, {"all", "1", "simd", "on", "true", "yes", token})) {
            return true;
        }
    }
    return false;
}

std::string Quarantine::to_string() const {
    return "quarantined " + rung +
           (forced ? " (forced by " + std::string{kGuardFaultEnv} + ")"
                   : std::string{" (self-test)"}) +
           ": " + detail;
}

}  // namespace gfr::guard
