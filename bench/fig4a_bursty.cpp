// Figure 4(a): microscopic view — 16 senders in one rack shuffle to 16
// receivers in another, plus a 50:1 incast of 128KB flows into one of the
// receivers every 100us for the first 600us. Reports the receiver-side
// utilization time series.
//
// Paper result: HPCC stumbles (frequent PFC triggering); Homa Aeolus and
// NDP take 300-600us to converge after bursts; dcPIM converges within tens
// of microseconds and holds high utilization (zero during the very first
// matching phase, footnote 3).
//
// Scenario: tests/campaign_specs/fig4a.campaign. The horizon stretches with
// DCPIM_BENCH_SCALE; util_bin and the burst schedule do not.
#include <cstdio>

#include "bench_common.h"

using namespace dcpim;
using namespace dcpim::harness;

int main(int argc, char** argv) {
  bench::parse_figure_flags(argc, argv);
  bench::print_header(
      "Figure 4(a): bursty microbenchmark (shuffle + periodic 50:1 incast)",
      "dcPIM holds high utilization through bursts; HPCC collapses via "
      "PFC; HomaAeolus/NDP converge slowly (300-600us)");

  const bench::SpecRun run = bench::run_spec("fig4a");
  std::printf("  utilization of the 16 receiver downlinks per 50us bin:\n");
  bench::print_util_series(run, 2, [](const ExperimentResult& res,
                                      double mean) {
    std::printf("   (mean %.2f, pfc=%llu, drops=%llu)\n", mean,
                static_cast<unsigned long long>(res.pfc_pauses),
                static_cast<unsigned long long>(res.drops));
  });
  bench::print_cell_lines(run);
  return 0;
}
