// Shared parser for the AG_* environment knobs (AG_SEEDS, and the
// reference-engine hatches AG_SPATIAL_INDEX, AG_DENSE_TABLES,
// AG_BATCHED_BACKOFF and AG_BATCHED_PHY): the single place in the tree
// that reads AG_* variables, so knob spellings can never drift apart
// between call sites. Enforced by scripts/ag_lint.py rule `env` — getenv
// anywhere else must carry an allow annotation.
#ifndef AG_SIM_ENV_H
#define AG_SIM_ENV_H

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace ag::sim {

// True when the variable is set to off|0|false; unset or anything else
// means the feature stays on.
[[nodiscard]] inline bool env_flag_off(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr) return false;
  return std::strcmp(v, "off") == 0 || std::strcmp(v, "0") == 0 ||
         std::strcmp(v, "false") == 0;
}

// Strictly-positive integer knob (e.g. AG_SEEDS): unset/empty returns
// `fallback`; a malformed or out-of-range value warns on stderr and
// returns `fallback` rather than silently changing the run.
[[nodiscard]] inline std::uint32_t env_positive_u32(const char* name,
                                                    std::uint32_t fallback,
                                                    long max_value) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  // strtol would accept leading whitespace and signs; the knob grammar
  // does not — a value must start with a digit.
  const bool digit_start = *env >= '0' && *env <= '9';
  const long v = std::strtol(env, &end, 10);
  if (!digit_start || errno != 0 || end == env || *end != '\0' || v <= 0 ||
      v > max_value) {
    std::fprintf(stderr,
                 "warning: ignoring invalid %s=\"%s\" (want a positive "
                 "integer); using %u\n",
                 name, env, fallback);
    return fallback;
  }
  return static_cast<std::uint32_t>(v);
}

}  // namespace ag::sim

#endif  // AG_SIM_ENV_H
