// perfbench: the simulator-side half of the benchmark. Each invocation does
// one job and prints one JSON line on stdout; perfbench/run.py launches the
// jobs, checks their outputs and aggregates the metrics.
//
//   perfbench run    --workload W --seed S [--setup] [--reps N]
//       harness::run_experiment, timed around the call in wall and CPU
//       time, with the calibration kernel (calibrate.h) run before the
//       first and after the last call. --setup sets the horizon to 0, so
//       only construction and the t=0 events run.
//   perfbench trace  --workload W --seed S [--spans FILE]
//       the traced composition (traced.h); per-slice spans go to FILE.
//   perfbench hold   --depth D --seed S
//   perfbench hop    --workload W --seed S
//   perfbench sample --workload W --seed S
//       the layer drivers (drivers.h).

#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "calibrate.h"
#include "campaign/spec.h"
#include "drivers.h"
#include "harness/report.h"
#include "json.h"
#include "traced.h"
#include "workloads.h"

namespace dcpim::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        throw std::invalid_argument("unexpected argument '" + key + "'");
      }
      key = key.substr(2);
      if (key == "setup") {
        values_[key] = "1";
      } else if (i + 1 < argc) {
        values_[key] = argv[++i];
      } else {
        throw std::invalid_argument("--" + key + " needs a value");
      }
    }
  }

  std::string str(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      throw std::invalid_argument("missing --" + key);
    }
    return it->second;
  }
  std::uint64_t u64(const std::string& key) const {
    return std::stoull(str(key));
  }
  std::uint64_t u64(const std::string& key, std::uint64_t dflt) const {
    return values_.count(key) != 0 ? u64(key) : dflt;
  }
  bool flag(const std::string& key) const { return values_.count(key) != 0; }

 private:
  std::map<std::string, std::string> values_;
};

std::string list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.17g", i == 0 ? "" : ",", values[i]);
    out += buf;
  }
  return out + "]";
}

/// Peak resident set of this process image, in MiB. VmHWM, unlike
/// getrusage's ru_maxrss, restarts at exec, so the launching process's
/// own footprint does not leak into the figure.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the field is in kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

harness::ExperimentConfig config_from(const Args& args) {
  return workload_config(args.str("workload"), args.u64("seed"));
}

int cmd_run(const Args& args) {
  harness::ExperimentConfig cfg = config_from(args);
  if (args.flag("setup")) cfg.horizon = TimePoint{};
  const auto reps = static_cast<int>(args.u64("reps", 1));
  std::vector<double> walls;
  std::vector<double> cpus;
  std::vector<double> cals;
  std::uint64_t cal_checksum = 0;
  const auto calibrate_once = [&] {
    const Calibration c = calibrate();
    cals.push_back(c.cpu_s);
    cal_checksum = c.checksum;
  };
  std::string fingerprint;
  bool repeat_ok = true;
  harness::ExperimentResult res;
  calibrate_once();
  for (int r = 0; r < reps; ++r) {
    const double c0 = cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    res = harness::run_experiment(cfg);
    walls.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    cpus.push_back(cpu_seconds() - c0);
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(
                      campaign::fnv1a(harness::result_fingerprint(res))));
    if (r > 0 && fingerprint != hex) repeat_ok = false;
    fingerprint = hex;
  }
  // Read before the closing calibration, whose table must not count.
  const double rss = peak_rss_mb();
  calibrate_once();
  std::printf("%s\n", JsonObject()
                          .add("wall_s", list(walls), JsonObject::Raw{})
                          .add("cpu_s", list(cpus), JsonObject::Raw{})
                          .add("cal_s", list(cals), JsonObject::Raw{})
                          .add("cal_checksum", cal_checksum)
                          .add("peak_rss_mb", rss)
                          .add("fingerprint", fingerprint)
                          .add("repeat_ok", repeat_ok ? 1 : 0)
                          .add("result", model_fields(cfg, res))
                          .str()
                          .c_str());
  return 0;
}

int cmd_trace(const Args& args) {
  const harness::ExperimentConfig cfg = config_from(args);
  struct Closer {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };
  std::unique_ptr<std::FILE, Closer> spans;
  if (args.flag("spans")) {
    spans.reset(std::fopen(args.str("spans").c_str(), "w"));
    if (!spans) throw std::runtime_error("cannot write " + args.str("spans"));
  }
  const JsonObject out = traced_run(cfg, spans.get());
  if (spans && std::fclose(spans.release()) != 0) {
    throw std::runtime_error("cannot write " + args.str("spans"));
  }
  std::printf("%s\n", out.str().c_str());
  return 0;
}

int cmd_drivers(const std::string& cmd, const Args& args) {
  std::vector<double> ns;
  if (cmd == "hold") {
    ns = hold_ns(args.u64("depth"), args.u64("seed"));
  } else if (cmd == "hop") {
    ns = hop_ns(config_from(args));
  } else {
    ns = sample_ns(config_from(args));
  }
  std::printf("%s\n",
              JsonObject().add("ns", list(ns), JsonObject::Raw{}).str().c_str());
  return 0;
}

}  // namespace
}  // namespace dcpim::perfbench

int main(int argc, char** argv) {
  using namespace dcpim::perfbench;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench run|trace|hold|hop|sample --key value ...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    const Args args(argc, argv);
    if (cmd == "run") return cmd_run(args);
    if (cmd == "trace") return cmd_trace(args);
    if (cmd == "hold" || cmd == "hop" || cmd == "sample") {
      return cmd_drivers(cmd, args);
    }
    std::fprintf(stderr, "perfbench: unknown command '%s'\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
