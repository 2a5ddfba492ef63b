// Shared helpers for the per-figure bench binaries.
//
// Each binary reproduces one table/figure of the paper: it runs the
// scenario at a commodity-server-friendly scale, prints the same rows the
// paper reports, and quotes the paper's published value next to the
// measured one. DCPIM_BENCH_SCALE (default 1.0) stretches the simulated
// horizons (and the FatTree size) toward paper scale.
#pragma once

#include <cerrno>
#include <chrono>  // wall-clock ETA only; sim code never reads real time
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "campaign/grid.h"
#include "campaign/runner.h"
#include "campaign/spec.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/sweep.h"
#include "util/env.h"
#include "util/thread_pool.h"

namespace dcpim::bench {

inline Time scaled(Time t) { return t * dcpim::bench_scale(); }

/// Process-wide bench flags, set once by parse_common_flags() in main().
inline bool& audit_flag() {
  static bool enabled = false;
  return enabled;
}

/// FaultPlan spec applied to every experiment the binary runs (--faults;
/// empty = none). Grammar in sim/fault/fault_plan.h.
inline std::string& faults_flag() {
  static std::string spec;
  return spec;
}

/// Seed for wildcard/burst resolution in the FaultPlan (--fault-seed).
inline std::uint64_t& fault_seed_flag() {
  static std::uint64_t seed = 1;
  return seed;
}

/// Worker threads for experiment sweeps (--jobs N / $DCPIM_JOBS; default 1
/// == serial; 0 == all hardware threads). Results are bit-identical at
/// every value — see harness/sweep.h for the isolation contract that
/// guarantees it.
inline int& jobs_flag() {
  static int jobs = 1;
  return jobs;
}

/// The program name diagnostics are prefixed with (argv[0], recorded by
/// parse_common_flags()).
inline std::string& program_name() {
  static std::string name = "bench";
  return name;
}

/// Prints `<program>: <message>` on stderr and exits 2 (usage error).
[[noreturn]] inline void usage_error(const std::string& message) {
  std::fprintf(stderr, "%s: %s\n", program_name().c_str(), message.c_str());
  std::exit(2);
}

/// True if `dir` is a directory this process can create files in. Checked
/// before the first cell, so a bad CSV destination fails in milliseconds
/// instead of after the whole sweep has run.
inline bool writable_dir(const std::string& dir) {
  struct stat st{};
  return stat(dir.c_str(), &st) == 0 && S_ISDIR(st.st_mode) &&
         access(dir.c_str(), W_OK | X_OK) == 0;
}

/// Parses a non-negative decimal count for `flag`; anything else (empty,
/// signs, trailing junk, overflow) is a usage error rather than 0.
inline std::uint64_t parse_count(const char* flag, const std::string& value) {
  errno = 0;
  const unsigned long long n = std::strtoull(value.c_str(), nullptr, 10);
  if (value.empty() ||
      value.find_first_not_of("0123456789") != std::string::npos ||
      errno == ERANGE) {
    usage_error(std::string(flag) + " expects a non-negative integer, got '" +
                value + "'");
  }
  return n;
}

/// Parses the flags every figure binary shares and REMOVES them from argv
/// (compacting; argc is updated) so binaries with their own flag parsers —
/// micro_core hands the remainder to google-benchmark — never see them.
///   --audit     attach the invariant auditor (sim/audit.h) to every
///               experiment the binary runs and print its summary.
///   --jobs N    run experiment sweeps on N worker threads (also
///               --jobs=N; 0 = all hardware threads). Output stays
///               byte-identical to --jobs 1; progress/ETA goes to stderr.
///   --faults S  execute FaultPlan spec S (also --faults=S; grammar in
///               sim/fault/fault_plan.h) in every experiment and print the
///               recovery metrics. Deterministic: stdout stays
///               byte-identical across --jobs values.
///   --fault-seed N   seed for wildcard/`rand:` resolution (default 1;
///               also --fault-seed=N).
/// A missing or non-numeric value exits 2, and so does an unparsable
/// $DCPIM_JOBS (read like --jobs, which overrides it) or
/// $DCPIM_BENCH_SCALE; a $DCPIM_BENCH_CSV that is not a writable directory
/// exits 1. Unknown arguments are left alone for the binary to interpret.
inline void parse_common_flags(int& argc, char** argv) {
  program_name() = argv[0];
  const auto set_jobs = [](const char* flag, const std::string& value) {
    const std::uint64_t n = parse_count(flag, value);
    if (n > static_cast<std::uint64_t>(INT_MAX)) {
      usage_error(std::string(flag) + " " + value + " is out of range");
    }
    jobs_flag() = n >= 1 ? static_cast<int>(n)
                         : util::ThreadPool::hardware_threads();
  };
  if (const char* env = std::getenv("DCPIM_JOBS")) set_jobs("DCPIM_JOBS", env);
  if (!env_double("DCPIM_BENCH_SCALE", 1.0)) {
    usage_error(std::string("DCPIM_BENCH_SCALE expects a number, got '") +
                std::getenv("DCPIM_BENCH_SCALE") + "'");
  }
  const std::string csv_dir = harness::csv_dir_from_env();
  if (!csv_dir.empty() && !writable_dir(csv_dir)) {
    std::fprintf(stderr,
                 "%s: cannot write CSV %s/ (not a writable directory)\n",
                 program_name().c_str(), csv_dir.c_str());
    std::exit(1);
  }
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--audit") {
      audit_flag() = true;
    } else if (arg == "--jobs") {
      set_jobs("--jobs", value());
    } else if (arg.rfind("--jobs=", 0) == 0) {
      set_jobs("--jobs", arg.substr(7));
    } else if (arg == "--faults") {
      faults_flag() = value();
    } else if (arg.rfind("--faults=", 0) == 0) {
      faults_flag() = arg.substr(9);
    } else if (arg == "--fault-seed") {
      fault_seed_flag() = parse_count("--fault-seed", value());
    } else if (arg.rfind("--fault-seed=", 0) == 0) {
      fault_seed_flag() = parse_count("--fault-seed", arg.substr(13));
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  argv[argc] = nullptr;
}

/// parse_common_flags() for a figure binary, which takes no other
/// arguments: anything left over exits 2 instead of being ignored.
inline void parse_figure_flags(int argc, char** argv) {
  parse_common_flags(argc, argv);
  if (argc > 1) usage_error(std::string("unknown argument '") + argv[1] + "'");
}

/// For binaries that build no ExperimentConfig and so could never apply a
/// fault plan: --faults exits 2 instead of being silently ignored.
inline void refuse_faults() {
  if (!faults_flag().empty()) {
    usage_error("--faults is not supported (this binary runs no "
                "ExperimentConfig)");
  }
}

/// Progress/ETA line for a sweep, written to stderr only — stdout must stay
/// byte-identical between --jobs 1 and --jobs N runs.
class SweepProgress {
 public:
  explicit SweepProgress(const char* label)
      : label_(label), start_(std::chrono::steady_clock::now()) {}

  void operator()(std::size_t done, std::size_t total) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    const double eta =
        done > 0 ? elapsed * static_cast<double>(total - done) /
                       static_cast<double>(done)
                 : 0.0;
    std::fprintf(stderr, "\r  [%zu/%zu] %s  jobs=%d  %.1fs elapsed, eta %.1fs ",
                 done, total, label_, jobs_flag(), elapsed, eta);
    if (done == total) std::fputc('\n', stderr);
    std::fflush(stderr);
  }

 private:
  const char* label_;
  std::chrono::steady_clock::time_point start_;
};

/// Runs the configs on jobs_flag() workers with a progress line; results
/// come back in submission order regardless of completion order.
inline std::vector<harness::ExperimentResult> run_sweep(
    const std::vector<harness::ExperimentConfig>& configs,
    const char* label) {
  harness::SweepOptions opts;
  opts.jobs = jobs_flag();
  auto progress = std::make_shared<SweepProgress>(label);
  opts.progress = [progress](std::size_t done, std::size_t total) {
    (*progress)(done, total);
  };
  return harness::run_sweep(configs, opts);
}

/// The four protocols of the paper's simulation figures.
inline std::vector<harness::Protocol> figure_protocols() {
  return {harness::Protocol::Dcpim, harness::Protocol::HomaAeolus,
          harness::Protocol::Ndp, harness::Protocol::Hpcc};
}

/// Default-setup timing (Table 1 scenario) trimmed for bench runtime.
inline harness::ExperimentConfig default_setup(harness::Protocol p) {
  harness::ExperimentConfig cfg;
  cfg.protocol = p;
  cfg.workload = "imc10";
  cfg.load = 0.6;
  cfg.gen_stop = TimePoint(scaled(ms(1.2)));
  cfg.measure_start = TimePoint(scaled(us(300)));
  cfg.measure_end = TimePoint(scaled(ms(1.2)));
  cfg.horizon = TimePoint(scaled(ms(3)));
  cfg.audit = audit_flag();
  cfg.faults = faults_flag();
  cfg.fault_seed = fault_seed_flag();
  return cfg;
}

/// Steady-state timing for utilization/sustained-load measurements: the
/// generator runs to the horizon and the window covers the second half.
inline void steady_state_timing(harness::ExperimentConfig& cfg, Time horizon) {
  cfg.gen_stop = TimePoint(scaled(horizon));
  cfg.horizon = TimePoint(scaled(horizon));
  cfg.measure_start = TimePoint(scaled(horizon / 2));
  cfg.measure_end = TimePoint(scaled(horizon));
}

inline void print_header(const char* title, const char* paper_note) {
  std::printf("\n=== %s ===\n", title);
  std::printf("paper: %s\n", paper_note);
  std::printf("(DCPIM_BENCH_SCALE=%.2f; see EXPERIMENTS.md for method)\n\n",
              dcpim::bench_scale());
}

/// Bucket label like "<18K", "18K-73K", ">4.7M".
inline std::string bucket_label(Bytes lo, Bytes hi) {
  auto human = [](Bytes b) {
    char buf[32];
    if (b >= kMB) {
      std::snprintf(buf, sizeof(buf), "%.1fM", to_mb(b));
    } else {
      std::snprintf(buf, sizeof(buf), "%lldK",
                    static_cast<long long>(b / kKB));
    }
    return std::string(buf);
  };
  if (lo == Bytes{}) return "<" + human(hi);
  if (hi == Bytes{}) return ">" + human(lo);
  return human(lo) + "-" + human(hi);
}

/// Appends a result row to $DCPIM_BENCH_CSV/<experiment>.csv when set; a
/// file that cannot be written exits 1 with one line naming it.
inline void maybe_csv(const std::string& experiment,
                      harness::Protocol protocol,
                      const std::string& workload, double load,
                      const harness::ExperimentResult& result) {
  const std::string dir = harness::csv_dir_from_env();
  if (dir.empty()) return;
  harness::ReportRow row;
  row.experiment = experiment;
  row.protocol = harness::to_string(protocol);
  row.workload = workload;
  row.load = load;
  row.result = result;
  if (!harness::append_csv(dir, {row})) {
    std::fprintf(stderr, "%s: cannot write CSV %s/%s.csv\n",
                 program_name().c_str(), dir.c_str(), experiment.c_str());
    std::exit(1);
  }
}

/// Prints the audit verdict under a result row when --audit is active.
inline void maybe_print_audit(const harness::ExperimentResult& result) {
  if (!result.audit.enabled) return;
  std::printf("    %s\n", harness::format_audit_summary(result.audit).c_str());
}

/// Prints the fault-recovery metrics under a result row when --faults is
/// active. Deterministic output (simulated quantities only), so it is safe
/// for the byte-identical stdout contract across --jobs values.
inline void maybe_print_faults(const harness::ExperimentResult& result) {
  if (!result.recovery.enabled) return;
  std::printf("    %s\n",
              harness::format_recovery_stats(result.recovery).c_str());
}

/// Reads and parses the campaign spec at `path`, then folds the shared
/// bench flags (--audit/--faults/--fault-seed) into it exactly like
/// bench/campaign does. An unreadable file or a malformed spec exits 2
/// with one line on stderr.
inline campaign::CampaignSpec read_spec(const std::string& path) {
  std::ifstream in(path);
  if (!in) usage_error("cannot read spec '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  try {
    campaign::CampaignSpec spec =
        campaign::parse_campaign_spec(text.str(), path);
    campaign::apply_overrides(spec, audit_flag(), faults_flag(),
                              fault_seed_flag());
    return spec;
  } catch (const campaign::CampaignError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
}

/// The committed spec `<name>.campaign` under tests/campaign_specs/
/// (DCPIM_CAMPAIGN_SPEC_DIR, fixed at configure time), read as read_spec()
/// does. The committed file is a figure's only copy of its scenario.
inline campaign::CampaignSpec load_spec(const std::string& name) {
  return read_spec(std::string(DCPIM_CAMPAIGN_SPEC_DIR) + "/" + name +
                   ".campaign");
}

/// A committed spec expanded and executed. Cells are in expansion order
/// (grid.h), results parallel.
struct SpecRun {
  campaign::CampaignSpec spec;
  std::vector<campaign::Cell> cells;
  std::vector<harness::ExperimentResult> results;
};

/// load_spec(name), expanded and run on jobs_flag() workers.
inline SpecRun run_spec(const std::string& name) {
  SpecRun run;
  run.spec = load_spec(name);
  run.cells = campaign::expand(run.spec);  // parse validated constraints
  std::vector<harness::ExperimentConfig> configs;
  configs.reserve(run.cells.size());
  for (const campaign::Cell& cell : run.cells) configs.push_back(cell.config);
  run.results = run_sweep(configs, run.spec.name.c_str());
  return run;
}

/// The shared per-cell fingerprint block. Byte-identical to the cell lines
/// `bench/campaign --spec <this spec>` prints, which is the cross-check
/// contract between the figure binaries and the campaign runner.
inline void print_cell_lines(const SpecRun& run) {
  for (std::size_t i = 0; i < run.cells.size(); ++i) {
    const std::uint64_t fnv =
        campaign::fnv1a(harness::result_fingerprint(run.results[i]));
    std::printf("%s\n",
                campaign::format_cell_line(i, run.cells[i].label, fnv).c_str());
  }
}

/// Per-size-bucket slowdown table (Figs 3c-e, 7): a bucket-edge header
/// taken from the first row's result, then a mean and a p99 line for each
/// cell index in `rows`, each followed by its audit/fault blocks.
inline void print_bucket_table(const SpecRun& run,
                               const std::vector<std::size_t>& rows) {
  const auto print_stat = [](const stats::SlowdownSummary& s, double value) {
    if (s.count == 0) {
      std::printf(" %13s", "-");
    } else {
      std::printf(" %13.2f", value);
    }
  };
  std::printf("  %-12s %6s", "protocol", "");
  for (const auto& b : run.results[rows.front()].buckets) {
    std::printf(" %13s", bucket_label(b.lo, b.hi).c_str());
  }
  std::printf("\n");
  for (std::size_t idx : rows) {
    const harness::ExperimentResult& res = run.results[idx];
    std::printf("  %-12s %6s",
                harness::to_string(run.cells[idx].config.protocol), "mean");
    for (const auto& b : res.buckets) print_stat(b.slowdown, b.slowdown.mean);
    std::printf("\n  %-12s %6s", "", "p99");
    for (const auto& b : res.buckets) print_stat(b.slowdown, b.slowdown.p99);
    std::printf("\n");
    maybe_print_audit(res);
    maybe_print_faults(res);
    std::fflush(stdout);
  }
}

/// Utilisation time series (Figs 4a, 4c): a time-axis header over the
/// horizon in util_bin steps, then one row per cell with its per-bin
/// utilisation. `tail(result, mean)` ends each row, `mean` being the mean
/// utilisation after the first `warmup_bins` bins.
template <typename Tail>
void print_util_series(const SpecRun& run, std::size_t warmup_bins,
                       Tail tail) {
  const Time horizon = run.cells[0].config.horizon.since_start();
  const Time bin = run.cells[0].config.util_bin;
  std::printf("  %-12s", "protocol");
  for (Time t{}; t < horizon; t += bin) std::printf(" %5.0f", to_us(t));
  std::printf("  (us)\n");
  for (std::size_t pi = 0; pi < run.cells.size(); ++pi) {
    const harness::ExperimentResult& res = run.results[pi];
    std::printf("  %-12s", harness::to_string(run.cells[pi].config.protocol));
    for (std::size_t i = 0; bin * i < horizon; ++i) {
      std::printf(" %5.2f",
                  i < res.util_series.size() ? res.util_series[i] : 0.0);
    }
    tail(res, res.mean_util(warmup_bins, res.util_series.size()));
    maybe_print_audit(res);
    maybe_print_faults(res);
    std::fflush(stdout);
  }
}

}  // namespace dcpim::bench
