// Figure 6: dcPIM sensitivity to its three parameters — matching rounds r,
// channels k, and slack beta — at load 0.54 (the paper's common load for
// all parameter combinations).
//
// Paper result: r=1 -> r=2 yields the biggest jump (18-24% higher
// sustainable load; the matching algorithm kicks in), more rounds give
// diminishing returns at slightly higher latency; 2-4 channels are the
// sweet spot; beta has no impact beyond 1.1.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"

using namespace dcpim;
using namespace dcpim::harness;

namespace {

ExperimentConfig base_config() {
  ExperimentConfig cfg = bench::default_setup(Protocol::Dcpim);
  cfg.load = 0.54;
  bench::steady_state_timing(cfg, ms(2));
  return cfg;
}

void print_row(const std::string& label, const ExperimentResult& res) {
  std::printf("  %-14s carried=%6.3f  mean=%6.2f  p99=%7.2f  short p99=%6.2f\n",
              label.c_str(), res.load_carried_ratio, res.overall.mean,
              res.overall.p99, res.short_flows.p99);
  bench::maybe_print_audit(res);
  bench::maybe_print_faults(res);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_figure_flags(argc, argv);
  bench::print_header(
      "Figure 6: dcPIM sensitivity to r, k, beta (load 0.54)",
      "r=1->2 biggest gain (18-24% load); k=2-4 sweet spot; beta "
      "irrelevant beyond 1.1");

  // Build every parameter point up front (section header, label, config),
  // sweep them all in one --jobs batch, then print section by section.
  struct Row {
    const char* section;  ///< non-null: print this header before the row
    std::string label;
  };
  std::vector<Row> rows;
  std::vector<ExperimentConfig> configs;
  const auto add = [&](const char* section, std::string label,
                       ExperimentConfig cfg) {
    rows.push_back({section, std::move(label)});
    configs.push_back(cfg);
  };

  for (int r : {1, 2, 3, 4, 5}) {
    ExperimentConfig cfg = base_config();
    cfg.dcpim.rounds = r;
    add(r == 1 ? "-- matching rounds r (k=4, beta=1.3):" : nullptr,
        "r=" + std::to_string(r), cfg);
  }
  for (int k : {1, 2, 4, 8}) {
    ExperimentConfig cfg = base_config();
    cfg.dcpim.channels = k;
    add(k == 1 ? "-- channels k (r=4, beta=1.3):" : nullptr,
        "k=" + std::to_string(k), cfg);
  }
  for (double beta : {1.0, 1.1, 1.3, 2.0}) {
    ExperimentConfig cfg = base_config();
    cfg.dcpim.beta = beta;
    char label[32];
    std::snprintf(label, sizeof(label), "beta=%.1f", beta);
    add(beta == 1.0 ? "-- slack beta (r=4, k=4):" : nullptr, label, cfg);
  }
  {
    ExperimentConfig cfg = base_config();
    cfg.dcpim.fct_optimizing_first_round = false;
    add("-- ablations (DESIGN.md §5):", "no-FCT-round", cfg);
  }
  {
    ExperimentConfig cfg = base_config();
    cfg.dcpim.pipeline_phases = false;
    add(nullptr, "sequential", cfg);
  }
  {
    ExperimentConfig cfg = base_config();
    cfg.dcpim.clock_jitter = ns(500);
    add(nullptr, "jitter=500ns", cfg);
  }

  const std::vector<ExperimentResult> all = bench::run_sweep(configs, "fig6");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].section != nullptr) std::printf("%s\n", rows[i].section);
    print_row(rows[i].label, all[i]);
  }
  return 0;
}
