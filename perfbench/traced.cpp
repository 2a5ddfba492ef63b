#include "traced.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/dcpim_host.h"
#include "net/switch.h"
#include "net/topology.h"
#include "proto/ndp.h"
#include "stats/metrics.h"
#include "workload/cdf.h"
#include "workload/generator.h"
#include "workloads.h"

namespace dcpim::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t ns_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Calls into one protocol entry point and the wall time they took.
struct CallClock {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;
};

/// Shared by every host of a run; the slice loop reads the deltas.
struct HostClocks {
  CallClock packet;
  CallClock arrival;
};

/// A protocol host whose two entry points time themselves. The protocol
/// code runs unchanged; only the calls into it are wrapped.
template <typename Base, typename Config>
class TimedHost final : public Base {
 public:
  TimedHost(net::Network& net, int host_id, const net::PortConfig& nic,
            const Config& cfg, HostClocks& clocks)
      : Base(net, host_id, nic, cfg), clocks_(clocks) {}

  void on_flow_arrival(net::Flow& flow) override {
    const Clock::time_point t0 = Clock::now();
    Base::on_flow_arrival(flow);
    clocks_.arrival.ns += ns_since(t0);
    ++clocks_.arrival.calls;
  }

 protected:
  void on_packet(net::PacketPtr p) override {
    const Clock::time_point t0 = Clock::now();
    Base::on_packet(std::move(p));
    clocks_.packet.ns += ns_since(t0);
    ++clocks_.packet.calls;
  }

 private:
  HostClocks& clocks_;
};

using TimedDcpimHost = TimedHost<core::DcpimHost, core::DcpimConfig>;
using TimedNdpHost = TimedHost<proto::NdpHost, proto::NdpConfig>;

/// Egress ports grouped by the tier of the fabric they feed.
struct PortTiers {
  std::vector<const net::Port*> nic;         ///< host -> leaf
  std::vector<const net::Port*> leaf_up;     ///< leaf -> spine
  std::vector<const net::Port*> spine_down;  ///< spine -> leaf
  std::vector<const net::Port*> leaf_down;   ///< leaf -> host

  explicit PortTiers(const net::Network& net) {
    for (const auto& dev : net.devices()) {
      if (dev->kind() == net::Device::Kind::Host) {
        for (const auto& p : dev->ports) nic.push_back(p.get());
        continue;
      }
      const bool leaf = std::any_of(
          dev->ports.begin(), dev->ports.end(), [](const auto& p) {
            return p->peer() != nullptr &&
                   p->peer()->kind() == net::Device::Kind::Host;
          });
      for (const auto& p : dev->ports) {
        const bool to_host = p->peer() != nullptr &&
                             p->peer()->kind() == net::Device::Kind::Host;
        if (!leaf) {
          spine_down.push_back(p.get());
        } else if (to_host) {
          leaf_down.push_back(p.get());
        } else {
          leaf_up.push_back(p.get());
        }
      }
    }
  }
};

std::int64_t max_queued(const std::vector<const net::Port*>& ports) {
  Bytes peak{};
  for (const net::Port* p : ports) peak = std::max(peak, p->queued_bytes());
  return peak.raw();
}

/// One simulated-time slice of the traced run.
struct Slice {
  double end_us = 0;
  std::int64_t wall_ns = 0;
  std::uint64_t events = 0;
  std::size_t pending = 0;  ///< Simulator::pending() at the slice end
  CallClock packet;         ///< protocol on_packet calls inside the slice
  CallClock arrival;        ///< protocol on_flow_arrival calls
  std::int64_t nic_bytes = 0;  ///< deepest queue per tier at the slice end
  std::int64_t leaf_up_bytes = 0;
  std::int64_t spine_down_bytes = 0;
  std::int64_t leaf_down_bytes = 0;

  JsonObject json() const {
    return JsonObject()
        .add("end_us", end_us)
        .add("wall_ns", wall_ns)
        .add("events", events)
        .add("pending", pending)
        .add("on_packet_calls", packet.calls)
        .add("on_packet_ns", packet.ns)
        .add("on_flow_arrival_calls", arrival.calls)
        .add("on_flow_arrival_ns", arrival.ns)
        .add("queue_nic_bytes", nic_bytes)
        .add("queue_leaf_up_bytes", leaf_up_bytes)
        .add("queue_spine_down_bytes", spine_down_bytes)
        .add("queue_leaf_down_bytes", leaf_down_bytes);
  }
};

/// dcPIM matching outcome, read from each host's epoch hook: when epoch m
/// starts, epoch m-1's receiver-side matching is final.
struct MatchingTally {
  std::uint64_t matched_channels = 0;
  std::uint64_t host_epochs = 0;
};

net::LeafSpineParams leaf_spine_params(const harness::ExperimentConfig& exp,
                                       Bytes mtu_wire) {
  net::LeafSpineParams p;
  p.racks = exp.racks;
  p.hosts_per_rack = exp.hosts_per_rack;
  p.spines = exp.spines;
  const double loss = exp.loss_rate;
  if (exp.protocol == harness::Protocol::Ndp) {
    p.port_customize = [loss, mtu_wire](net::PortConfig& pc) {
      pc.loss_rate = loss;
      proto::ndp_port_customize(pc, mtu_wire);
    };
  } else {
    p.port_customize = [loss](net::PortConfig& pc) { pc.loss_rate = loss; };
  }
  return p;
}

}  // namespace

JsonObject traced_run(const harness::ExperimentConfig& cfg, std::FILE* spans) {
  const Time slice = us(5);
  const bool dcpim = cfg.protocol == harness::Protocol::Dcpim;
  if ((!dcpim && cfg.protocol != harness::Protocol::Ndp) ||
      cfg.topo != harness::TopoKind::LeafSpine || cfg.fixed_size != Bytes{} ||
      !cfg.faults.empty() || cfg.audit || !cfg.lb_policy_auto ||
      (cfg.pattern != harness::Pattern::AllToAll &&
       cfg.pattern != harness::Pattern::DenseTM)) {
    throw std::invalid_argument("traced run supports only the benchmark's "
                                "dcPIM/NDP leaf-spine workloads");
  }
  const Clock::time_point run_start = Clock::now();
  harness::ExperimentConfig exp = cfg;  // hosts hold the protocol configs

  net::NetConfig ncfg;
  ncfg.seed = cfg.seed;
  ncfg.lb_policy = net::LbPolicy::kSpray;  // dcPIM's and NDP's default
  ncfg.flowlet_gap = cfg.flowlet_gap;
  ncfg.packet_pool = cfg.packet_pool;
  net::Network net(ncfg);

  HostClocks clocks;
  net::Topology::HostFactory factory;
  if (dcpim) {
    factory = [&exp, &clocks](net::Network& n, int id,
                              const net::PortConfig& nic) -> net::Host* {
      return n.add_device<TimedDcpimHost>(id, nic, exp.dcpim, clocks);
    };
  } else {
    factory = [&exp, &clocks](net::Network& n, int id,
                              const net::PortConfig& nic) -> net::Host* {
      return n.add_device<TimedNdpHost>(id, nic, exp.ndp, clocks);
    };
  }

  Clock::time_point t0 = Clock::now();
  const net::Topology topo = net::Topology::leaf_spine(
      net, leaf_spine_params(exp, ncfg.mtu_wire()), factory);
  const double topology_s = seconds_since(t0);

  exp.dcpim.control_rtt = topo.max_control_rtt();
  exp.dcpim.bdp_bytes = topo.bdp_bytes();
  exp.ndp.bdp_bytes = topo.bdp_bytes();
  exp.ndp.control_rtt = topo.max_control_rtt();

  stats::FlowStats fstats(net, topo);
  fstats.set_window(cfg.measure_start, cfg.measure_end);
  // Unread below, but run_experiment registers it, so its observer runs.
  stats::GoodputMeter goodput(net);
  goodput.set_window(cfg.measure_start, cfg.measure_end);
  stats::UtilizationSeries util(net, cfg.util_bin);

  t0 = Clock::now();
  std::unique_ptr<workload::PoissonGenerator> gen;
  if (cfg.pattern == harness::Pattern::AllToAll) {
    workload::PoissonPatternConfig pc;
    pc.cdf = &workload::workload_by_name(cfg.workload);
    pc.load = cfg.load;
    pc.stop = cfg.gen_stop;
    gen = std::make_unique<workload::PoissonGenerator>(net, topo.host_rate(),
                                                       pc);
    gen->start();
  } else {
    workload::schedule_dense_tm(net, workload::all_hosts(net),
                                workload::all_hosts(net), cfg.dense_flow_size,
                                TimePoint{});
  }
  const double workload_setup_s = seconds_since(t0);

  MatchingTally tally;
  if (dcpim) {
    for (int h = 0; h < net.num_hosts(); ++h) {
      auto* host = static_cast<core::DcpimHost*>(net.host(h));
      host->set_epoch_audit_hook([host, &tally](std::uint64_t m) {
        if (m == 0) return;
        tally.matched_channels += static_cast<std::uint64_t>(
            host->receiver_matched_channels(m - 1));
        ++tally.host_epochs;
      });
    }
  }

  const PortTiers tiers(net);
  sim::Simulator& sim = net.sim();
  std::vector<Slice> slices;
  const Clock::time_point loop_start = Clock::now();
  for (TimePoint until = TimePoint{} + slice;; until = until + slice) {
    if (until > cfg.horizon) until = cfg.horizon;
    Slice s;
    const std::uint64_t events0 = sim.events_executed();
    const CallClock packet0 = clocks.packet;
    const CallClock arrival0 = clocks.arrival;
    t0 = Clock::now();
    sim.run(until);
    s.wall_ns = ns_since(t0);
    s.end_us = to_us(until);
    s.events = sim.events_executed() - events0;
    s.pending = sim.pending();
    s.packet = {clocks.packet.calls - packet0.calls,
                clocks.packet.ns - packet0.ns};
    s.arrival = {clocks.arrival.calls - arrival0.calls,
                 clocks.arrival.ns - arrival0.ns};
    s.nic_bytes = max_queued(tiers.nic);
    s.leaf_up_bytes = max_queued(tiers.leaf_up);
    s.spine_down_bytes = max_queued(tiers.spine_down);
    s.leaf_down_bytes = max_queued(tiers.leaf_down);
    slices.push_back(s);
    if (until == cfg.horizon) break;
  }
  const double loop_s = seconds_since(loop_start);

  // The same collection run_experiment performs after its run() call.
  t0 = Clock::now();
  harness::ExperimentResult res;
  res.events_executed = sim.events_executed();
  res.sim_end = sim.now();
  res.overall = fstats.summary();
  res.short_flows = fstats.short_flows(topo.bdp_bytes());
  res.buckets = fstats.by_buckets(harness::default_bucket_edges(topo.bdp_bytes()));
  const double capacity_bps =
      static_cast<double>(topo.host_rate().raw()) * net.num_hosts();
  res.util_bin = cfg.util_bin;
  res.util_series.resize(util.num_bins());
  for (std::size_t i = 0; i < util.num_bins(); ++i) {
    res.util_series[i] = util.utilization(i, capacity_bps);
  }
  const double stats_collect_s = seconds_since(t0);
  res.flows_total = net.num_flows();
  res.flows_done = net.completed_flows;

  std::size_t pending_peak = 0;
  std::int64_t nic_peak = 0, leaf_up_peak = 0, spine_down_peak = 0,
               leaf_down_peak = 0;
  for (const Slice& s : slices) {
    pending_peak = std::max(pending_peak, s.pending);
    nic_peak = std::max(nic_peak, s.nic_bytes);
    leaf_up_peak = std::max(leaf_up_peak, s.leaf_up_bytes);
    spine_down_peak = std::max(spine_down_peak, s.spine_down_bytes);
    leaf_down_peak = std::max(leaf_down_peak, s.leaf_down_bytes);
  }

  std::uint64_t hops = 0, loss_recovery = 0;
  for (const auto& dev : net.devices()) {
    if (dev->kind() != net::Device::Kind::Switch) continue;
    for (const auto& p : dev->ports) hops += p->tx_packets.raw();
  }
  core::DcpimHost::Counters dc;
  for (int h = 0; h < net.num_hosts(); ++h) {
    loss_recovery += net.host(h)->loss_recovery_count();
    if (!dcpim) continue;
    const auto& c = static_cast<core::DcpimHost*>(net.host(h))->counters();
    dc.grants_sent += c.grants_sent;
    dc.accepts_sent += c.accepts_sent;
    dc.tokens_sent += c.tokens_sent;
    dc.tokens_received += c.tokens_received;
    dc.tokens_expired += c.tokens_expired;
    dc.pacer_skips_window += c.pacer_skips_window;
    dc.pacer_skips_no_work += c.pacer_skips_no_work;
  }

  JsonObject counts;
  counts.add("slices", slices.size())
      .add("pending_peak", pending_peak)
      .add("hops", hops)
      .add("drops", net.total_drops())
      .add("trims", net.total_trims())
      .add("pool_acquired", net.packet_pool().acquired())
      .add("pool_recycled", net.packet_pool().recycled())
      .add("queue_peak_nic_bytes", nic_peak)
      .add("queue_peak_leaf_up_bytes", leaf_up_peak)
      .add("queue_peak_spine_down_bytes", spine_down_peak)
      .add("queue_peak_leaf_down_bytes", leaf_down_peak)
      .add("on_packet_calls", clocks.packet.calls)
      .add("on_flow_arrival_calls", clocks.arrival.calls)
      .add("loss_recovery", loss_recovery)
      .add("grants_sent", dc.grants_sent)
      .add("accepts_sent", dc.accepts_sent)
      .add("tokens_sent", dc.tokens_sent)
      .add("tokens_received", dc.tokens_received)
      .add("tokens_expired", dc.tokens_expired)
      .add("pacer_skips", dc.pacer_skips_window + dc.pacer_skips_no_work)
      .add("matched_channels", tally.matched_channels)
      .add("host_epochs", tally.host_epochs)
      .add("channels", exp.dcpim.channels);

  JsonObject times;
  times.add("total_s", seconds_since(run_start))
      .add("loop_s", loop_s)
      .add("topology_s", topology_s)
      .add("workload_setup_s", workload_setup_s)
      .add("stats_collect_s", stats_collect_s)
      .add("on_packet_ns", clocks.packet.ns)
      .add("on_flow_arrival_ns", clocks.arrival.ns);

  if (spans != nullptr) {
    for (const Slice& s : slices) {
      std::fprintf(spans, "%s\n", s.json().str().c_str());
    }
  }
  return JsonObject()
      .add("protocol", std::string(harness::to_string(cfg.protocol)))
      .add("result", model_fields(cfg, res))
      .add("counts", counts)
      .add("times", times);
}

}  // namespace dcpim::perfbench
