// Determinism regression: two identical seeded leaf-spine dcPIM runs must
// produce byte-identical network event traces. Catches accidental
// dependence on pointer values, unordered-container iteration order leaking
// into event scheduling, or uninitialized reads perturbing the RNG stream.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>
#include <string>

#include "core/dcpim_host.h"
#include "net/topology.h"
#include "workload/cdf.h"
#include "workload/generator.h"

namespace dcpim {
namespace {

/// Runs one seeded scenario to completion and returns a hash of its full
/// network-level trace: flow arrivals and completions, drops, and every
/// payload delivery (so the interleaving of every data packet contributes).
std::size_t traced_run_hash(std::uint64_t seed) {
  net::NetConfig ncfg;
  ncfg.seed = seed;
  auto network = std::make_unique<net::Network>(ncfg);

  std::ostringstream trace;
  std::size_t events = 0;
  network->add_arrival_observer([&](const net::Flow& f) {
    ++events;
    trace << network->sim().now() << " arrive " << f.id << ' ' << f.src
          << ' ' << f.size << '\n';
  });
  network->add_flow_observer([&](const net::Flow& f) {
    ++events;
    trace << network->sim().now() << " complete " << f.id << ' ' << f.dst
          << ' ' << f.size << '\n';
  });
  network->add_drop_observer([&](const net::Packet& p, const net::Port& port,
                                 net::DropReason reason) {
    ++events;
    trace << network->sim().now() << " drop " << p.flow_id << ' '
          << port.owner().name() << ' ' << static_cast<int>(p.priority) << ' '
          << p.unscheduled << ' ' << p.size << ' ' << net::to_string(reason)
          << '\n';
  });
  network->add_payload_observer([&](Bytes fresh, TimePoint at) {
    ++events;
    trace << at << " deliver " << fresh << '\n';
  });

  core::DcpimConfig cfg;
  net::LeafSpineParams p;
  p.racks = 2;
  p.hosts_per_rack = 4;
  p.spines = 2;
  net::Topology topo = net::Topology::leaf_spine(
      *network, p, core::dcpim_host_factory(cfg));
  cfg.control_rtt = topo.max_control_rtt();
  cfg.bdp_bytes = topo.bdp_bytes();

  workload::PoissonPatternConfig pc;
  pc.cdf = &workload::workload_by_name("imc10");
  pc.load = 0.6;
  pc.stop = TimePoint(us(150));
  workload::PoissonGenerator gen(*network, topo.host_rate(), pc);
  gen.start();

  network->sim().run(TimePoint(ms(5)));

  EXPECT_GT(events, 10u);
  return std::hash<std::string>{}(trace.str());
}

TEST(DeterminismTest, IdenticalSeedsProduceIdenticalTraces) {
  const std::size_t first = traced_run_hash(7);
  const std::size_t second = traced_run_hash(7);
  EXPECT_EQ(first, second);
}

TEST(DeterminismTest, DifferentSeedsDiverge) {
  // Sanity check that the hash actually reflects the run: a different seed
  // reshuffles arrivals, so the traces should differ.
  EXPECT_NE(traced_run_hash(7), traced_run_hash(8));
}

}  // namespace
}  // namespace dcpim
