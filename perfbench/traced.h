// The traced run: harness::run_experiment's composition rebuilt from the
// public layer APIs, with spans around each layer call.
//
// It builds the Network, the leaf-spine Topology (with hosts that time
// their own on_packet / on_flow_arrival calls), the stats meters and the
// workload, in run_experiment's order, then advances Simulator::run() in
// 5 us simulated-time slices. Each slice records wall time, events,
// pending events, queue depths and the protocol calls made inside it.
// Only dcPIM and NDP on a leaf-spine are supported: those are the
// benchmark's workloads.
#pragma once

#include <cstdio>

#include "harness/experiment.h"
#include "json.h"

namespace dcpim::perfbench {

/// Runs `cfg` traced. Returns the equivalence fields (`result`), the
/// deterministic per-layer counts (`counts`) and the wall-clock spans
/// (`times`). When `spans` is non-null, one JSON line per slice is written
/// to it after the run.
JsonObject traced_run(const harness::ExperimentConfig& cfg, std::FILE* spans);

}  // namespace dcpim::perfbench
