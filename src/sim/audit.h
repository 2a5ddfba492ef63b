// Simulation invariant auditor.
//
// An Auditor is a registry of named correctness probes swept periodically
// on the simulator clock (plus on demand, e.g. one final sweep at the end
// of a run). Probes express whole-system invariants that single-site
// DCPIM_CHECKs cannot: conservation of bytes across a flow's lifetime,
// switch queue occupancy against configured buffer bounds, dcPIM token /
// matching accounting (the Theorem 1 precondition). A probe failure is
// recorded as a structured violation — with the simulated time and a
// human-readable message — rather than aborting, so one sweep can surface
// every broken invariant of a run and the harness can report them together.
//
// The engine is protocol-agnostic: it knows only the Simulator. Concrete
// probes over the network/protocol layers are installed by the harness
// (see harness/audit_probes.h), keeping the sim -> net dependency acyclic.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "util/time.h"
#include "util/unique_function.h"

namespace dcpim::sim {

/// One recorded invariant violation.
struct AuditViolation {
  TimePoint at{};
  std::string probe;
  std::string message;
};

/// Per-probe sweep statistics.
struct AuditProbeStat {
  std::string name;
  std::uint64_t checks = 0;      ///< times the probe was evaluated
  std::uint64_t violations = 0;  ///< times it reported a failure
};

/// Structured end-of-run audit result (embedded in ExperimentResult).
struct AuditSummary {
  bool enabled = false;
  std::uint64_t sweeps = 0;            ///< periodic + final sweeps executed
  std::uint64_t checks = 0;            ///< total probe evaluations
  std::uint64_t violations_total = 0;  ///< including ones past the cap
  std::vector<AuditProbeStat> probes;
  std::vector<AuditViolation> violations;  ///< first `max_recorded` kept

  bool clean() const { return violations_total == 0; }
};

class Auditor {
 public:
  struct Options {
    Time period = us(10);  ///< periodic sweep interval
    std::size_t max_recorded_violations = 64;
  };

  /// Handed to each probe during a sweep.
  class Context {
   public:
    TimePoint now() const { return now_; }
    /// Records a violation of the probe currently being evaluated.
    void fail(std::string message);

   private:
    friend class Auditor;
    Context(Auditor& auditor, std::size_t probe, TimePoint now)
        : auditor_(auditor), probe_(probe), now_(now) {}
    Auditor& auditor_;
    std::size_t probe_;
    TimePoint now_;
  };

  using ProbeFn = UniqueFunction<void(Context&)>;

  Auditor() : Auditor(Options{}) {}
  explicit Auditor(Options options);
  Auditor(const Auditor&) = delete;
  Auditor& operator=(const Auditor&) = delete;

  /// Registers a probe evaluated on every sweep. Returns its id.
  std::size_t add_probe(std::string name, ProbeFn fn);

  /// Registers a probe with no sweep function — a hook point for
  /// event-driven checks that call report()/count_check() directly.
  std::size_t add_event_probe(std::string name);

  /// Records a violation against probe `id` from outside a sweep.
  void report(std::size_t id, TimePoint at, std::string message);
  /// Counts a passed event-driven check against probe `id`.
  void count_check(std::size_t id) { ++probes_[id].stat.checks; }

  /// Starts periodic sweeping on `sim`. The tick keeps rescheduling itself
  /// only while other events are pending, so an attached auditor never
  /// keeps an otherwise-drained simulation alive.
  void attach(Simulator& sim);

  /// Evaluates every sweep probe once at time `now` (attach() calls this
  /// on each tick; callers invoke it directly for a final end-of-run pass).
  void sweep(TimePoint now);

  std::uint64_t violations_total() const { return violations_total_; }
  const std::vector<AuditViolation>& violations() const { return violations_; }

  AuditSummary summary() const;

 private:
  struct Probe {
    ProbeFn fn;  ///< empty for event-driven probes
    AuditProbeStat stat;
  };

  void tick(Simulator& sim);
  void record(std::size_t probe, TimePoint at, std::string message);

  Options options_;
  std::vector<Probe> probes_;
  std::vector<AuditViolation> violations_;
  std::uint64_t violations_total_ = 0;
  std::uint64_t sweeps_ = 0;
  TimePoint last_seen_now_{};
  bool saw_tick_ = false;
};

}  // namespace dcpim::sim
