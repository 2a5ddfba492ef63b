// The benchmark's workloads: named harness::ExperimentConfig values.
//
// Every workload runs one simulation on one thread. The seed is the only
// input the caller chooses, and it reaches the simulator only through
// ExperimentConfig::seed.
#pragma once

#include <cstdint>
#include <string>

#include "harness/experiment.h"
#include "json.h"

namespace dcpim::perfbench {

/// The workload's experiment with `seed` filled in. Throws
/// std::invalid_argument for an unknown name.
harness::ExperimentConfig workload_config(const std::string& name,
                                          std::uint64_t seed);

/// The simulated outcome the traced run must reproduce exactly: event
/// count, end instant, flows, slowdown summaries and window utilization.
JsonObject model_fields(const harness::ExperimentConfig& cfg,
                        const harness::ExperimentResult& res);

}  // namespace dcpim::perfbench
