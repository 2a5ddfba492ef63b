// Hot-path microbenchmarks (google-benchmark): event queue throughput,
// PIM matching rounds, CDF sampling, and port enqueue/transmit. These are
// engineering benchmarks for the simulator substrate itself, not paper
// figures.
#include <benchmark/benchmark.h>
#include <functional>

#include "bench_common.h"
#include "matching/pim.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workload/cdf.h"

namespace {

using namespace dcpim;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < batch; ++i) {
      sim.schedule_at(TimePoint{static_cast<std::int64_t>((i * 7919) % batch)},
                      [&sink]() { ++sink; });
    }
    sim.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(65536);

void BM_EventQueueSelfPerpetuating(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    std::function<void()> tick = [&]() {
      if (sim.now() < TimePoint(us(100))) sim.schedule_local(ns(10), [&]() { tick(); });
    };
    sim.schedule_at(TimePoint{}, [&]() { tick(); });
    sim.run();
    benchmark::DoNotOptimize(sim.events_executed());
  }
}
BENCHMARK(BM_EventQueueSelfPerpetuating);

void BM_PimMatchingRound(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  auto g = matching::BipartiteGraph::random(n, 5.0, rng);
  for (auto _ : state) {
    auto result = matching::run_pim(g, 4, rng);
    benchmark::DoNotOptimize(result.size());
  }
}
BENCHMARK(BM_PimMatchingRound)->Arg(144)->Arg(1024);

void BM_ChannelPim(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(2);
  auto g = matching::BipartiteGraph::random(n, 5.0, rng);
  std::vector<std::vector<int>> demand(
      static_cast<std::size_t>(n),
      std::vector<int>(static_cast<std::size_t>(n), 0));
  for (int s = 0; s < n; ++s) {
    for (int r : g.receivers_of(s)) {
      demand[static_cast<std::size_t>(s)][static_cast<std::size_t>(r)] = 4;
    }
  }
  for (auto _ : state) {
    auto result = matching::run_channel_pim(g, demand, 4, 4, rng);
    benchmark::DoNotOptimize(result.total_channels());
  }
}
BENCHMARK(BM_ChannelPim)->Arg(144);

void BM_CdfSample(benchmark::State& state) {
  const auto& cdf = workload::web_search();
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cdf.sample(rng));
  }
}
BENCHMARK(BM_CdfSample);

void BM_HopcroftKarp(benchmark::State& state) {
  Rng rng(4);
  auto g = matching::BipartiteGraph::random(
      static_cast<int>(state.range(0)), 5.0, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.maximum_matching_size());
  }
}
BENCHMARK(BM_HopcroftKarp)->Arg(256);

}  // namespace

// Expanded BENCHMARK_MAIN() so the shared bench flags (--jobs/--audit) are
// consumed before google-benchmark rejects them as unknown.
int main(int argc, char** argv) {
  dcpim::bench::parse_common_flags(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
