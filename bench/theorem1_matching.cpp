// Theorem 1 validation (§3.1): empirical PIM matching sizes after r rounds
// versus the paper's bound  E[M_dcPIM] >= (1 - delta*alpha/4^r) * M*.
//
// Prints, per (n, avg degree, r): the converged PIM matching M*, the
// measured r-round matching, the bound, and the measured/converged ratio —
// demonstrating the headline claim that a constant number of rounds
// suffices independent of n.
#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "matching/pim.h"
#include "util/rng.h"

using namespace dcpim;
using namespace dcpim::matching;

int main(int argc, char** argv) {
  // Accepts the shared flags for sweep-driver uniformity; the matching
  // microbenchmark itself is a single RNG stream, so --jobs has no effect,
  // and it runs no network, so --faults is refused.
  bench::parse_figure_flags(argc, argv);
  bench::refuse_faults();
  bench::print_header(
      "Theorem 1: constant-round near-optimal matching",
      "e.g. n=10^6, avg degree 5, 80% matched by PIM => r=4 keeps >78% "
      "(paper §3.1); dense TM n=144 bound 32.9% (§4.1)");

  const int trials = std::max(1, static_cast<int>(20 * bench_scale()));
  std::printf("  %6s %6s %3s | %8s %8s %8s | %9s %7s\n", "n", "deg", "r",
              "M*", "M_r", "bound", "M_r/M*", "ok?");

  Rng rng(2022);
  for (int n : {128, 512, 2048}) {
    for (double deg : {2.0, 5.0, 10.0}) {
      for (int r : {1, 2, 3, 4}) {
        double sum_r = 0, sum_star = 0;
        for (int t = 0; t < trials; ++t) {
          auto g = BipartiteGraph::random(n, deg, rng);
          const int log_rounds =
              static_cast<int>(std::ceil(std::log2(n))) + 4;
          sum_r += run_pim(g, r, rng).size();
          sum_star += run_pim(g, log_rounds, rng).size();
        }
        const double m_r = sum_r / trials;
        const double m_star = sum_star / trials;
        const double bound = theorem1_bound(n, deg, m_star, r);
        std::printf("  %6d %6.1f %3d | %8.1f %8.1f %8.1f | %9.3f %7s\n", n,
                    deg, r, m_star, m_r, bound, m_r / m_star,
                    m_r >= bound * 0.95 ? "yes" : "NO");
      }
    }
  }

  std::printf("\n  PIM vs iSLIP (round-robin) after r rounds — §5's point:\n"
              "  iSLIP herds when pointers are synchronized (dense demand),\n"
              "  PIM's randomization does not:\n");
  std::printf("  %10s %4s | %8s %8s\n", "demand", "r", "PIM", "iSLIP");
  {
    Rng rng2(7);
    for (int r : {1, 2, 4}) {
      auto dense = BipartiteGraph::complete(64);
      double pim_sum = 0;
      for (int t = 0; t < 10; ++t) pim_sum += run_pim(dense, r, rng2).size();
      std::printf("  %10s %4d | %8.1f %8d\n", "dense n=64", r, pim_sum / 10,
                  run_islip(dense, r).size());
    }
    for (int r : {1, 2, 4}) {
      auto sparse = BipartiteGraph::random(64, 4.0, rng2);
      double pim_sum = 0;
      for (int t = 0; t < 10; ++t) pim_sum += run_pim(sparse, r, rng2).size();
      std::printf("  %10s %4d | %8.1f %8d\n", "sparse d=4", r, pim_sum / 10,
                  run_islip(sparse, r).size());
    }
  }

  std::printf(
      "\n  Paper spot check: n=10^6, deg=5, alpha=1/0.8, r=4 -> bound/M* = "
      "%.4f (paper: >0.78 of hosts => 0.975 of M*)\n",
      theorem1_bound(1'000'000, 5.0, 0.8e6, 4) / 0.8e6);
  std::printf(
      "  Dense-TM spot check: n=144, deg=144, M*=120, r=4 -> bound = %.1f "
      "channels => %.1f%% of M* (paper: 32.9%%)\n",
      theorem1_bound(144, 144.0, 120.0, 4),
      100.0 * theorem1_bound(144, 144.0, 120.0, 4) / 120.0);
  return 0;
}
