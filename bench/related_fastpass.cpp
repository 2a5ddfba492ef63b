// Related-work comparison (§5): dcPIM vs a Fastpass-style centralized
// scheduler vs pHost on short-flow latency and an incast.
//
// Paper claims reproduced here: Fastpass gets good utilization from its
// global view but "since all short flows need to be scheduled before
// transmission, their average and higher tail latency is at least 2x away
// from optimal; dcPIM achieves much better short flow tail latency."
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "harness/audit_probes.h"
#include "sim/audit.h"
#include "core/dcpim_host.h"
#include "net/topology.h"
#include "proto/fastpass.h"
#include "proto/phost.h"
#include "stats/metrics.h"
#include "workload/generator.h"

using namespace dcpim;

namespace {

struct RunResult {
  stats::SlowdownSummary short_flows;
  stats::SlowdownSummary overall;
  std::size_t done = 0, total = 0;
};

template <typename SetupFn>
RunResult run_with(SetupFn setup) {
  net::NetConfig ncfg;
  ncfg.seed = 11;
  auto network = std::make_unique<net::Network>(ncfg);
  net::LeafSpineParams params;
  params.racks = 4;
  params.hosts_per_rack = 8;
  params.spines = 2;

  auto holder = setup(*network, params);  // keeps configs/arbiter alive
  auto& topo = *holder->topo;

  std::unique_ptr<sim::Auditor> auditor;
  if (bench::audit_flag()) {
    auditor = std::make_unique<sim::Auditor>();
    harness::install_standard_probes(*auditor, *network);
    auditor->attach(network->sim());
  }

  stats::FlowStats stats(*network, topo);
  workload::PoissonPatternConfig pc;
  pc.cdf = &workload::imc10();
  pc.load = 0.5;
  pc.stop = TimePoint(bench::scaled(us(400)));
  workload::PoissonGenerator gen(*network, topo.host_rate(), pc);
  gen.start();
  network->sim().run(TimePoint(bench::scaled(ms(10))));

  if (auditor) {
    auditor->sweep(network->sim().now());
    std::printf("    %s\n",
                harness::format_audit_summary(auditor->summary()).c_str());
  }

  RunResult r;
  r.short_flows = stats.short_flows(topo.bdp_bytes());
  r.overall = stats.summary();
  r.done = network->completed_flows;
  r.total = network->num_flows();
  return r;
}

struct Holder {
  virtual ~Holder() = default;
  std::unique_ptr<net::Topology> topo;
};

}  // namespace

int main(int argc, char** argv) {
  bench::parse_figure_flags(argc, argv);
  bench::refuse_faults();  // hand-wired networks: no FaultPlan is installed
  bench::print_header(
      "Related work (§5): dcPIM vs Fastpass-style centralized vs pHost",
      "Fastpass short-flow latency >= 2x optimal (arbiter round trip); "
      "dcPIM ~1x via the unscheduled bypass");

  std::printf("  %-10s %12s %12s %12s %12s %10s\n", "design", "short mean",
              "short p99", "all mean", "all p99", "done");

  {
    struct H : Holder {
      core::DcpimConfig cfg;
    };
    auto r = run_with([&](net::Network& net, const net::LeafSpineParams& p) {
      auto h = std::make_unique<H>();
      h->topo = std::make_unique<net::Topology>(net::Topology::leaf_spine(
          net, p, core::dcpim_host_factory(h->cfg)));
      h->cfg.control_rtt = h->topo->max_control_rtt();
      h->cfg.bdp_bytes = h->topo->bdp_bytes();
      return h;
    });
    std::printf("  %-10s %12.2f %12.2f %12.2f %12.2f %7zu/%zu\n", "dcPIM",
                r.short_flows.mean, r.short_flows.p99, r.overall.mean,
                r.overall.p99, r.done, r.total);
  }
  {
    struct H : Holder {
      proto::FastpassConfig cfg;
      std::unique_ptr<proto::FastpassArbiter> arbiter;
    };
    auto r = run_with([&](net::Network& net, const net::LeafSpineParams& p) {
      auto h = std::make_unique<H>();
      h->arbiter = std::make_unique<proto::FastpassArbiter>(net, h->cfg);
      h->topo = std::make_unique<net::Topology>(net::Topology::leaf_spine(
          net, p, proto::fastpass_host_factory(h->cfg, *h->arbiter)));
      h->cfg.control_rtt = h->topo->max_control_rtt();
      return h;
    });
    std::printf("  %-10s %12.2f %12.2f %12.2f %12.2f %7zu/%zu\n", "Fastpass",
                r.short_flows.mean, r.short_flows.p99, r.overall.mean,
                r.overall.p99, r.done, r.total);
  }
  {
    struct H : Holder {
      proto::PhostConfig cfg;
    };
    auto r = run_with([&](net::Network& net, const net::LeafSpineParams& p) {
      auto h = std::make_unique<H>();
      h->topo = std::make_unique<net::Topology>(net::Topology::leaf_spine(
          net, p, proto::phost_host_factory(h->cfg)));
      h->cfg.bdp_bytes = h->topo->bdp_bytes();
      h->cfg.control_rtt = h->topo->max_control_rtt();
      return h;
    });
    std::printf("  %-10s %12.2f %12.2f %12.2f %12.2f %7zu/%zu\n", "pHost",
                r.short_flows.mean, r.short_flows.p99, r.overall.mean,
                r.overall.p99, r.done, r.total);
  }
  return 0;
}
