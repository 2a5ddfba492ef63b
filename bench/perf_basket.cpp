// Perf basket: a fixed fig3a-style scenario set, timed.
//
// Unlike the figure binaries (which report *protocol* metrics), this one
// reports *simulator* metrics: events per wall-second and simulated-seconds
// per wall-second for each scenario in the basket. Every scenario runs
// twice and the two result_fingerprint() strings must match — a perf number
// only counts if it provably timed the same simulation, so an optimization
// that perturbs results can never masquerade as a speedup.
//
// The scenario set is tests/campaign_specs/perf_basket.campaign; the grid
// is expanded directly here — not journaled — because a timing run must
// never be satisfied from a cache.
//
// Output is one JSON object per line on stdout (tools/record_bench.py
// parses these into BENCH_6.json); progress goes to stderr. Wall-clock
// reads live here and in bench_common.h only — sim code never sees them.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "util/check.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dcpim;
  bench::parse_figure_flags(argc, argv);
  const campaign::CampaignSpec spec = bench::load_spec("perf_basket");

  std::uint64_t total_events = 0;
  double total_wall = 0.0;
  double total_sim = 0.0;

  for (const campaign::Cell& cell : campaign::expand(spec)) {
    const char* name = harness::to_string(cell.config.protocol);
    std::fprintf(stderr, "perf_basket: %s ...\n", name);

    const Clock::time_point t1 = Clock::now();
    const harness::ExperimentResult r1 = harness::run_experiment(cell.config);
    const double wall1 = seconds_since(t1);
    const Clock::time_point t2 = Clock::now();
    const harness::ExperimentResult r2 = harness::run_experiment(cell.config);
    const double wall2 = seconds_since(t2);

    const std::string fp1 = harness::result_fingerprint(r1);
    const std::string fp2 = harness::result_fingerprint(r2);
    DCPIM_CHECK(fp1 == fp2,
                "perf basket runs diverged — timing different simulations");

    // Best-of-two: the repeat is mandatory for the fingerprint check anyway,
    // and min() sheds one-off scheduler noise without hiding real cost.
    const double wall = wall1 < wall2 ? wall1 : wall2;
    const double sim_s = to_sec(r1.sim_end.since_start());
    total_events += r1.events_executed;
    total_wall += wall;
    total_sim += sim_s;

    std::printf(
        "{\"scenario\":\"fig3a_default\",\"protocol\":\"%s\","
        "\"events_executed\":%llu,\"sim_seconds\":%.9f,"
        "\"wall_seconds_run1\":%.6f,\"wall_seconds_run2\":%.6f,"
        "\"events_per_sec\":%.1f,\"sim_seconds_per_wall_second\":%.9f,"
        "\"flows_done\":%zu,\"fingerprint_fnv1a\":\"%016llx\"}\n",
        name, static_cast<unsigned long long>(r1.events_executed), sim_s,
        wall1, wall2, static_cast<double>(r1.events_executed) / wall,
        sim_s / wall, r1.flows_done,
        static_cast<unsigned long long>(campaign::fnv1a(fp1)));
    std::fflush(stdout);
  }

  std::printf(
      "{\"scenario\":\"total\",\"protocol\":\"all\","
      "\"events_executed\":%llu,\"sim_seconds\":%.9f,"
      "\"wall_seconds\":%.6f,\"events_per_sec\":%.1f,"
      "\"sim_seconds_per_wall_second\":%.9f}\n",
      static_cast<unsigned long long>(total_events), total_sim, total_wall,
      static_cast<double>(total_events) / total_wall, total_sim / total_wall);
  return 0;
}
