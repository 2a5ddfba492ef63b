// Host-speed yardstick. This shared host's speed drifts by up to twofold
// over minutes, from other tenants, and every timing drifts with it. Each
// perfbench run brackets its simulation with a fixed piece of
// benchmark-side work whose CPU time tracks that drift; run.py divides it
// out (README.md, "Host time"). The kernel depends on nothing under src/,
// so a change to the simulator cannot move it.
#pragma once

#include <cstdint>

namespace dcpim::perfbench {

/// CPU seconds this process has used, steal time excluded.
double cpu_seconds();

struct Calibration {
  double cpu_s;            // CPU time of the fixed work
  std::uint64_t checksum;  // the same on every run; keeps the work live
};

/// A miniature discrete-event loop, in the simulator's style: a binary
/// heap of ~16k pending events, each popping one, touching a random
/// 128-byte record in a 4 MiB table through an indirect call and pushing
/// one successor. Fixed seed and event count.
Calibration calibrate();

}  // namespace dcpim::perfbench
