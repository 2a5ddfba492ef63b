// Layer drivers: tight loops over one layer's public API, outside any
// simulation, so that layer's per-operation cost is measured on its own.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "harness/experiment.h"

namespace dcpim::perfbench {

// Each driver returns its per-operation cost for each of several timed
// rounds; the caller takes the median.

/// Event queue (src/sim): the hold model at a fixed depth. The queue is
/// filled to `depth` pending events, then each operation schedules one
/// event (schedule_at) and executes one (run_steps(1)). ns per operation.
std::vector<double> hold_ns(std::size_t depth, std::uint64_t seed);

/// Forwarding (src/net): the workload's leaf-spine built with sink hosts.
/// Each round every host floods 16 flows of 8 packets through its NIC's
/// Port::enqueue to random peers at the same instant, and the drain is
/// timed. ns per switch hop (Σ switch-port tx_packets).
std::vector<double> hop_ns(const harness::ExperimentConfig& cfg);

/// Workload generation (src/workload): EmpiricalCdf::sample plus
/// Network::create_flow between random hosts, the generator's per-arrival
/// work. ns per flow.
std::vector<double> sample_ns(const harness::ExperimentConfig& cfg);

}  // namespace dcpim::perfbench
