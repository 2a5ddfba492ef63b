// Figures 3(b)-(e): slowdown across all flows and broken down by flow size,
// per workload, at load 0.6 (the highest load every protocol sustains) on
// the default leaf-spine setup.
//
// Paper result: dcPIM and Homa Aeolus achieve the best overall means; NDP
// and HPCC trail (HPCC good on short flows, poor on long). Short flows,
// across workloads: dcPIM mean 1.03-1.04 and p99 1.09-1.16; Homa Aeolus
// mean 2.5-2.7 / p99 3-6.1; NDP mean 2.5-4.1 / p99 12.5-22.3; HPCC mean
// 1.1-1.9 / p99 2-5.8. dcPIM trades medium-flow latency for that (matching
// wait), staying strong on long flows.
//
// Scenario: tests/campaign_specs/fig3b.campaign (protocol x workload).
#include <cstdio>
#include <vector>

#include "bench_common.h"

using namespace dcpim;
using namespace dcpim::harness;

int main(int argc, char** argv) {
  bench::parse_figure_flags(argc, argv);
  bench::print_header(
      "Figures 3(b)-(e): slowdown overall and by flow size, load 0.6",
      "dcPIM/HomaAeolus lowest overall mean; short flows: dcPIM mean "
      "1.03-1.04 / p99 1.09-1.16; HomaAeolus 2.5-2.7 / 3-6.1; NDP "
      "2.5-4.1 / 12.5-22.3; HPCC 1.1-1.9 / 2-5.8");

  const bench::SpecRun run = bench::run_spec("fig3b");
  const std::vector<std::string>& workloads = run.spec.axes[1].values;
  const std::size_t n_protocols = run.spec.axes[0].values.size();
  const auto cell = [&](std::size_t pi, std::size_t wi) {
    return pi * workloads.size() + wi;  // workload axis fastest
  };

  // Figure 3(b): mean slowdown across all flows.
  std::printf("  %-12s", "protocol");
  for (const auto& w : workloads) std::printf(" %12s", w.c_str());
  std::printf("\n");
  for (std::size_t pi = 0; pi < n_protocols; ++pi) {
    std::printf("  %-12s", to_string(run.cells[cell(pi, 0)].config.protocol));
    for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
      std::printf(" %12.2f", run.results[cell(pi, wi)].overall.mean);
    }
    std::printf("\n");
  }
  std::printf("\n");

  // Figures 3(c)-(e): mean and p99 per size bucket, one table per workload.
  for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
    std::printf("--- workload: %s ---\n", workloads[wi].c_str());
    std::vector<std::size_t> rows;
    for (std::size_t pi = 0; pi < n_protocols; ++pi) {
      const std::size_t idx = cell(pi, wi);
      rows.push_back(idx);
      bench::maybe_csv("fig3cde", run.cells[idx].config.protocol,
                       workloads[wi], run.cells[idx].config.load,
                       run.results[idx]);
    }
    bench::print_bucket_table(run, rows);
    std::printf("\n");
  }
  bench::print_cell_lines(run);
  return 0;
}
