#include "drivers.h"

#include <chrono>

#include "net/host.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workload/cdf.h"

namespace dcpim::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kRounds = 7;
constexpr std::uint64_t kHoldOps = 200'000;
constexpr int kFlowsPerHost = 16;
constexpr int kPacketsPerFlow = 8;
constexpr std::uint64_t kSampleOps = 100'000;

double ns_per(Clock::time_point t0, std::uint64_t ops) {
  const double ns =
      std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  return ops > 0 ? ns / static_cast<double>(ops) : 0.0;
}

/// A host with no protocol: it puts every packet of a new flow on its NIC
/// at once and discards whatever it receives.
class SinkHost final : public net::Host {
 public:
  SinkHost(net::Network& net, int host_id, const net::PortConfig& nic)
      : net::Host(net, host_id, nic) {}

  void on_flow_arrival(net::Flow& flow) override {
    const auto packets =
        flow.packet_count(network().config().mtu_payload).raw();
    for (std::int64_t seq = 0; seq < packets; ++seq) {
      nic()->enqueue(
          make_data_packet(flow, {.seq = static_cast<std::uint32_t>(seq)}));
    }
  }

 protected:
  void on_packet(net::PacketPtr /*p*/) override {}
};

std::uint64_t switch_hops(const net::Network& net) {
  std::uint64_t hops = 0;
  for (const auto& dev : net.devices()) {
    if (dev->kind() != net::Device::Kind::Switch) continue;
    for (const auto& p : dev->ports) {
      hops += static_cast<std::uint64_t>(p->tx_packets.raw());
    }
  }
  return hops;
}

int random_peer(Rng& rng, int self, int hosts) {
  const int peer = static_cast<int>(
      rng.uniform_int(static_cast<std::uint64_t>(hosts - 1)));
  return peer >= self ? peer + 1 : peer;
}

net::NetConfig driver_net_config(const harness::ExperimentConfig& cfg) {
  net::NetConfig ncfg;
  ncfg.seed = cfg.seed;
  ncfg.lb_policy = net::LbPolicy::kSpray;
  ncfg.packet_pool = cfg.packet_pool;
  return ncfg;
}

}  // namespace

std::vector<double> hold_ns(std::size_t depth, std::uint64_t seed) {
  // Increments uniform over (0, 10 us]: the spread of link, timer and
  // epoch delays in the simulations this queue serves.
  constexpr std::size_t kDeltas = 4096;  // power of two, masked below
  Rng rng(seed);
  std::vector<Time> deltas(kDeltas);
  for (Time& d : deltas) {
    d = Time{static_cast<std::int64_t>(rng.uniform_int(10'000'000)) + 1};
  }

  sim::Simulator sim;
  for (std::size_t i = 0; i < depth; ++i) {
    sim.schedule_at(TimePoint(deltas[i % kDeltas]), [] {});
  }
  std::uint64_t k = 0;
  const auto hold = [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i, ++k) {
      sim.schedule_at(sim.now() + deltas[k & (kDeltas - 1)], [] {});
      sim.run_steps(1);
    }
  };
  hold(kHoldOps / 4);  // warm the heap array and the callback slab
  std::vector<double> out;
  for (int r = 0; r < kRounds; ++r) {
    const Clock::time_point t0 = Clock::now();
    hold(kHoldOps);
    out.push_back(ns_per(t0, kHoldOps));
  }
  return out;
}

std::vector<double> hop_ns(const harness::ExperimentConfig& cfg) {
  net::Network net(driver_net_config(cfg));
  net::LeafSpineParams params;
  params.racks = cfg.racks;
  params.hosts_per_rack = cfg.hosts_per_rack;
  params.spines = cfg.spines;
  const net::Topology topo = net::Topology::leaf_spine(
      net, params,
      [](net::Network& n, int id, const net::PortConfig& nic) -> net::Host* {
        return n.add_device<SinkHost>(id, nic);
      });

  Rng rng(cfg.seed);
  const int hosts = topo.num_hosts();
  const Bytes size = net.config().mtu_payload * kPacketsPerFlow;
  const auto flood = [&] {
    for (int h = 0; h < hosts; ++h) {
      for (int f = 0; f < kFlowsPerHost; ++f) {
        net.create_flow(h, random_peer(rng, h, hosts), size, net.sim().now());
      }
    }
  };
  flood();  // first round warms the packet pool and the event slab
  net.sim().run();
  std::vector<double> out;
  for (int r = 0; r < kRounds; ++r) {
    flood();
    const std::uint64_t hops0 = switch_hops(net);
    const Clock::time_point t0 = Clock::now();
    net.sim().run();
    out.push_back(ns_per(t0, switch_hops(net) - hops0));
  }
  return out;
}

std::vector<double> sample_ns(const harness::ExperimentConfig& cfg) {
  const workload::EmpiricalCdf& cdf = workload::workload_by_name(cfg.workload);
  const int hosts = cfg.racks * cfg.hosts_per_rack;
  Rng rng(cfg.seed);
  std::vector<double> out;
  for (int r = 0; r < kRounds; ++r) {
    net::Network net(driver_net_config(cfg));
    const Clock::time_point t0 = Clock::now();
    for (std::uint64_t i = 0; i < kSampleOps; ++i) {
      const int src = static_cast<int>(
          rng.uniform_int(static_cast<std::uint64_t>(hosts)));
      net.create_flow(src, random_peer(rng, src, hosts), cdf.sample(rng),
                      TimePoint{});
    }
    out.push_back(ns_per(t0, kSampleOps));
  }
  return out;
}

}  // namespace dcpim::perfbench
