// Environment-variable knobs for benches and tests.
//
// Benches read DCPIM_BENCH_SCALE (a multiplier on simulated horizon / flow
// counts) so long paper-scale runs can be reproduced on demand without
// making the default `ctest` / bench sweep take hours.
#pragma once

#include <cstdlib>
#include <optional>

namespace dcpim {

/// The value of environment variable `name` read as a whole number:
/// `fallback` when unset, nullopt when set but not a number in full
/// (empty, "abc", "4x").
inline std::optional<double> env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (end == v || *end != '\0') return std::nullopt;
  return parsed;
}

/// Global scale factor applied by bench binaries to simulated horizons.
/// An unparsable value reads as 1.0 here; bench binaries refuse it at
/// start-up (bench/bench_common.h, parse_common_flags).
inline double bench_scale() {
  return env_double("DCPIM_BENCH_SCALE", 1.0).value_or(1.0);
}

}  // namespace dcpim
