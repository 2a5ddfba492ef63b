// Traffic generators: the paper's three traffic patterns (Table 1).
//
//  * All-to-all: per-sender Poisson arrivals, uniform-random receiver,
//    sizes drawn from a workload CDF, targeting a given access-link load.
//  * Bursty: all-to-all plus a periodic 50:1 incast (Figure 4a).
//  * Dense traffic matrix: every sender has one flow to every receiver
//    (Figure 4c).
#pragma once

#include <cstdint>
#include <vector>

#include "net/network.h"
#include "workload/cdf.h"

namespace dcpim::workload {

struct PoissonPatternConfig {
  const EmpiricalCdf* cdf = nullptr;
  double load = 0.6;        ///< offered load on sender access links (payload)
  std::vector<int> senders;   ///< empty = all hosts
  std::vector<int> receivers;  ///< empty = all hosts
  TimePoint start{};
  TimePoint stop = kTimePointInfinity;  ///< no arrivals after this instant
  std::uint64_t max_flows = UINT64_MAX;
};

/// Drives Poisson flow arrivals into the network. The generator registers
/// self-rescheduling events at construction-time `start()`; it must outlive
/// the simulation run.
class PoissonGenerator {
 public:
  PoissonGenerator(net::Network& net, BitsPerSec access_rate,
                   PoissonPatternConfig cfg);

  /// Begins scheduling arrivals.
  void start();

 private:
  void schedule_next(std::size_t sender_idx);
  void arrival(std::size_t sender_idx);

  net::Network& net_;
  PoissonPatternConfig cfg_;
  Time mean_interarrival_{};  ///< per sender, for the configured load
  std::uint64_t flows_created_ = 0;
};

/// Schedules an n:1 incast: each of `senders` starts one `flow_size` flow to
/// `receiver` at time `at`.
void schedule_incast(net::Network& net, int receiver,
                     const std::vector<int>& senders, Bytes flow_size,
                     TimePoint at);

/// Schedules the dense traffic matrix: one `flow_size` flow from every
/// sender to every receiver (skipping self-pairs) at time `at`.
void schedule_dense_tm(net::Network& net, const std::vector<int>& senders,
                       const std::vector<int>& receivers, Bytes flow_size,
                       TimePoint at);

/// All host ids [0, n).
std::vector<int> all_hosts(const net::Network& net);

}  // namespace dcpim::workload
