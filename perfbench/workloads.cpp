#include "workloads.h"

#include <stdexcept>

namespace dcpim::perfbench {

namespace {

using harness::ExperimentConfig;

/// Table 1 default: 9x16 leaf-spine, 4 spines, IMC10 all-to-all at 0.6.
ExperimentConfig ls144_imc10() {
  ExperimentConfig c;
  c.gen_stop = TimePoint(us(1000));
  c.horizon = TimePoint(us(1200));
  c.measure_start = TimePoint(us(100));
  c.measure_end = TimePoint(us(1000));
  return c;
}

/// The same traffic on a 64x16 leaf-spine with 16 spines (1024 hosts).
ExperimentConfig ls1024_imc10() {
  ExperimentConfig c;
  c.racks = 64;
  c.spines = 16;
  c.gen_stop = TimePoint(us(100));
  c.horizon = TimePoint(us(200));
  c.measure_start = TimePoint(us(25));
  c.measure_end = TimePoint(us(100));
  return c;
}

/// Fig 4c's dense traffic matrix: every host sends one long flow to every
/// other host at t=0. The flows are 200 KB (16 BDP) rather than Fig 4c's
/// 1 MB so that some finish inside the horizon and the slowdown metrics
/// exist: only 20 of the 20,592 1 MB flows finish by 400 us.
ExperimentConfig ls144_densetm() {
  ExperimentConfig c;
  c.pattern = harness::Pattern::DenseTM;
  c.dense_flow_size = 200 * kKB;
  c.gen_stop = TimePoint{};
  c.horizon = TimePoint(us(150));
  c.measure_start = TimePoint{};  // the window selects flows by start time
  c.measure_end = TimePoint(us(150));
  return c;
}

/// ls144_imc10's traffic under NDP (packet trimming, no dcPIM code).
ExperimentConfig ls144_imc10_ndp() {
  ExperimentConfig c = ls144_imc10();
  c.protocol = harness::Protocol::Ndp;
  return c;
}

/// perf_basket's timing (bench/perf_basket.cpp at DCPIM_BENCH_SCALE=1), so
/// the benchmark's tests can match BENCH_7.json's fingerprints and prove
/// this composition is the basket's. Not benchmark workloads.
ExperimentConfig basket(harness::Protocol protocol) {
  ExperimentConfig c;
  c.protocol = protocol;
  c.gen_stop = TimePoint(us(1200));
  c.horizon = TimePoint(ms(3));
  c.measure_start = TimePoint(us(300));
  c.measure_end = TimePoint(us(1200));
  return c;
}
ExperimentConfig basket_dcpim() { return basket(harness::Protocol::Dcpim); }
ExperimentConfig basket_ndp() { return basket(harness::Protocol::Ndp); }

struct Entry {
  const char* name;
  ExperimentConfig (*make)();
};

constexpr Entry kWorkloads[] = {
    {"ls144_imc10", ls144_imc10},
    {"ls1024_imc10", ls1024_imc10},
    {"ls144_densetm", ls144_densetm},
    {"ls144_imc10_ndp", ls144_imc10_ndp},
    {"basket_dcpim", basket_dcpim},
    {"basket_ndp", basket_ndp},
};

/// Mean of the utilization series over the measure window: the bins that
/// lie inside [measure_start, measure_end).
double window_utilization(const ExperimentConfig& cfg,
                          const harness::ExperimentResult& res) {
  const auto bin = [&](TimePoint t) {
    return static_cast<std::size_t>(t.since_start() / cfg.util_bin);
  };
  return res.mean_util(bin(cfg.measure_start), bin(cfg.measure_end));
}

}  // namespace

ExperimentConfig workload_config(const std::string& name, std::uint64_t seed) {
  for (const Entry& e : kWorkloads) {
    if (name == e.name) {
      ExperimentConfig c = e.make();
      c.seed = seed;
      return c;
    }
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

JsonObject model_fields(const ExperimentConfig& cfg,
                        const harness::ExperimentResult& res) {
  const auto summary = [](const stats::SlowdownSummary& s) {
    return JsonObject()
        .add("count", s.count)
        .add("mean", s.mean)
        .add("p50", s.p50)
        .add("p99", s.p99)
        .add("max", s.max);
  };
  return JsonObject()
      .add("events", res.events_executed)
      .add("sim_end_ps", res.sim_end.since_start().raw())
      .add("flows_total", res.flows_total)
      .add("flows_done", res.flows_done)
      .add("slowdown", summary(res.overall))
      .add("short_slowdown", summary(res.short_flows))
      .add("utilization", window_utilization(cfg, res));
}

}  // namespace dcpim::perfbench
