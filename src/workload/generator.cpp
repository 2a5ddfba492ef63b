#include "workload/generator.h"

#include "util/check.h"
#include <numeric>

#include "util/logging.h"

namespace dcpim::workload {

PoissonGenerator::PoissonGenerator(net::Network& net, BitsPerSec access_rate,
                                   PoissonPatternConfig cfg)
    : net_(net), cfg_(std::move(cfg)) {
  DCPIM_CHECK(cfg_.cdf != nullptr, "generator needs a size CDF");
  DCPIM_CHECK_GT(cfg_.load, 0, "offered load must be positive");
  if (cfg_.senders.empty()) cfg_.senders = all_hosts(net);
  if (cfg_.receivers.empty()) cfg_.receivers = all_hosts(net);
  // load = (mean_size * 8) / (interarrival * rate)  =>  interarrival.
  const double bytes_per_sec =
      // sa-ok(unit-raw): load math is double-valued; the rate enters as a scalar
      cfg_.load * static_cast<double>(access_rate.raw()) / 8.0;
  const double seconds = cfg_.cdf->mean_bytes() / bytes_per_sec;
  mean_interarrival_ = kSecond * seconds;
  DCPIM_CHECK_GT(mean_interarrival_, Time{}, "interarrival rounded to zero");
}

void PoissonGenerator::start() {
  for (std::size_t i = 0; i < cfg_.senders.size(); ++i) {
    // First arrival after an exponential delay (memoryless start).
    const Time delay =
        // sa-ok(unit-raw): exponential() draws a double-valued mean
        ps(net_.rng().exponential(static_cast<double>(mean_interarrival_.raw())));
    net_.sim().schedule_at(cfg_.start + delay, [this, i]() { arrival(i); });
  }
}

void PoissonGenerator::schedule_next(std::size_t sender_idx) {
  const Time delay =
      // sa-ok(unit-raw): exponential() draws a double-valued mean
      ps(net_.rng().exponential(static_cast<double>(mean_interarrival_.raw())));
  net_.sim().schedule_local(delay,
                            [this, sender_idx]() { arrival(sender_idx); });
}

void PoissonGenerator::arrival(std::size_t sender_idx) {
  if (net_.sim().now() > cfg_.stop || flows_created_ >= cfg_.max_flows) return;
  const int src = cfg_.senders[sender_idx];
  // Uniform receiver, excluding the sender itself.
  int dst = src;
  while (dst == src) {
    dst = cfg_.receivers[net_.rng().uniform_int(cfg_.receivers.size())];
    if (cfg_.receivers.size() == 1 && cfg_.receivers[0] == src) {
      LOG_WARN("poisson generator: only receiver equals sender %d", src);
      return;
    }
  }
  const Bytes size = cfg_.cdf->sample(net_.rng());
  net_.create_flow(src, dst, size, net_.sim().now());
  ++flows_created_;
  schedule_next(sender_idx);
}

void schedule_incast(net::Network& net, int receiver,
                     const std::vector<int>& senders, Bytes flow_size,
                     TimePoint at) {
  for (int s : senders) {
    if (s == receiver) continue;
    net.create_flow(s, receiver, flow_size, at);
  }
}

void schedule_dense_tm(net::Network& net, const std::vector<int>& senders,
                       const std::vector<int>& receivers, Bytes flow_size,
                       TimePoint at) {
  for (int s : senders) {
    for (int r : receivers) {
      if (s == r) continue;
      net.create_flow(s, r, flow_size, at);
    }
  }
}

std::vector<int> all_hosts(const net::Network& net) {
  std::vector<int> ids(static_cast<std::size_t>(net.num_hosts()));
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

}  // namespace dcpim::workload
