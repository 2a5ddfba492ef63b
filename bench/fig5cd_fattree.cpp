// Figure 5(c)-(d): three-tier FatTree at load 0.6. The paper uses 1024
// hosts (k=16); the default bench runs k=8 (128 hosts) for runtime and
// switches to k=16 when DCPIM_BENCH_SCALE >= 2. Trends must match Fig 3:
// pipelining hides the larger RTTs even though dcPIM sizes its stages on
// the longest cRTT.
#include <cstdio>

#include "bench_common.h"

using namespace dcpim;
using namespace dcpim::harness;

int main(int argc, char** argv) {
  bench::parse_figure_flags(argc, argv);
  const int k = bench_scale() >= 2.0 ? 16 : 8;
  bench::print_header(
      "Figure 5(c,d): FatTree, load 0.6",
      "same trends as Fig 3; matching-phase length set by the longest "
      "cRTT, hidden by pipelining");
  std::printf("  (FatTree k=%d -> %d hosts; paper: k=16 -> 1024; set "
              "DCPIM_BENCH_SCALE>=2 for paper scale)\n\n",
              k, k * k * k / 4);

  const std::vector<std::string> workloads = {"imc10", "websearch",
                                              "datamining"};
  const std::vector<Protocol> protocols = bench::figure_protocols();
  std::vector<ExperimentConfig> configs;
  for (const std::string& workload : workloads) {
    for (Protocol p : protocols) {
      ExperimentConfig cfg = bench::default_setup(p);
      cfg.topo = TopoKind::FatTree;
      cfg.fat_tree_k = k;
      cfg.workload = workload;
      cfg.gen_stop = TimePoint(bench::scaled(us(700)));
      cfg.measure_start = TimePoint(bench::scaled(us(200)));
      cfg.measure_end = TimePoint(bench::scaled(us(700)));
      cfg.horizon = TimePoint(bench::scaled(ms(2)));
      configs.push_back(cfg);
    }
  }
  const std::vector<ExperimentResult> all =
      bench::run_sweep(configs, "fig5cd");

  std::size_t idx = 0;
  for (const std::string& workload : workloads) {
    std::printf("--- workload: %s ---\n", workload.c_str());
    std::printf("  %-12s %10s %10s | %12s %12s | %8s\n", "protocol",
                "mean(all)", "p99(all)", "short mean", "short p99",
                "carried");
    for (Protocol p : protocols) {
      const ExperimentResult& res = all[idx];
      bench::maybe_csv("fig5cd", p, workload, configs[idx].load, res);
      ++idx;
      std::printf("  %-12s %10.2f %10.2f | %12.2f %12.2f | %8.3f\n",
                  to_string(p), res.overall.mean, res.overall.p99,
                  res.short_flows.mean, res.short_flows.p99,
                  res.load_carried_ratio);
      bench::maybe_print_audit(res);
      bench::maybe_print_faults(res);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  return 0;
}
