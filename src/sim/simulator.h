// Discrete-event simulation core.
//
// A Simulator owns a time-ordered event queue. Events are arbitrary
// callbacks scheduled at absolute or relative times; ties are broken by
// scheduling order so runs are fully deterministic.
//
// Queue: an exact radix queue (Ahuja, Mehlhorn, Orlin and Tarjan, J. ACM
// 1990) over the event time. It relies on the keys being monotone: every
// event is scheduled at t >= now(), and now() is the time of the last event
// popped, so no key pushed is ever below the queue's base `base_` (the time
// of the last refill, == now() while events run). An entry sits in bucket
// bit_width(t ^ base_): bucket 0 holds the events at t == base_, and every
// entry of bucket b > 0 agrees with base_ above bit b-1 and differs at it,
// so it is later than every entry of a lower bucket. Popping drains bucket 0
// front to back; when it is empty, the lowest non-empty bucket b is scanned
// for its minimum m, base_ moves to m, and b's entries are redistributed by
// bit_width(t ^ m) into buckets below b (each entry moves at most 63 times
// over its life, so a push and its pop cost O(1) amortized in the queue
// depth, where a d-ary heap pays an O(log n) sift each way).
//
// Same (t, scheduling order) pop order as a heap, by construction: every
// bucket is a FIFO in scheduling order. A push appends the newest event;
// a refill walks bucket b front to back into buckets that are all empty
// (b was the lowest non-empty one), and a subsequence of an ordered
// sequence is ordered. So bucket 0, which holds exactly the ties at base_,
// pops them in scheduling order without sorting and without storing a
// sequence number. run(until) peeks: it scans the lowest bucket for its
// minimum and refills only when that minimum is due, so base_ never passes
// `until` and a caller may still schedule anywhere in [until, next event).
//
// Memory: bucket storage is a linked list of fixed 64-entry blocks drawn
// from one free-list pool shared by all buckets. At any instant the queue
// holds at most ceil(pending / 64) full blocks plus one partial tail per
// bucket (and a partly popped head in bucket 0), so its footprint tracks
// the pending count — about 12 bytes per event — whatever path the entries
// took. One std::vector per bucket was measured and rejected: each vector
// keeps its peak capacity while entries pass through several buckets on
// their way to bucket 0 (5.6 moves per entry on the 144-host perf-basket
// HomaAeolus and HPCC cells), so the buckets together held a multiple of
// the pending count (peak RSS +14% to +25% on the perfbench workloads).
// Intrusive per-callback linked lists kept memory flat, but their pointer
// chasing cost all of the speed gain.
//
// Callbacks live apart from the queue in a CallbackSlab the entries index
// into, so moving an entry between buckets copies 12 bytes and never a
// type-erased callable. UniqueFunction stores small callables inline
// (SBO), so the per-hop forwarding lambdas never touch the allocator — a
// scheduled callback moves into a recycled slab slot, and the run loop
// threads the slot back onto the slab's intrusive free list the moment the
// event fires (eager retire, so captured resources such as pooled packets
// release at end-of-event). After the first few simulated RTTs the slab and
// the block pool reach steady state and the per-event path allocates
// nothing at all. Events cannot be taken back once scheduled (every
// protocol here runs on fixed epoch, round, token and retransmission
// clocks), which is what lets a bucket be an append-only FIFO. The
// dcpim-sa hot-cost rule recognizes the block pool as event-queue storage
// by its type and the class's schedule API rather than by function names.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/time.h"
#include "util/unique_function.h"

namespace dcpim::sim {

/// Proven-positive scheduling bound for cross-domain events — the PDES
/// lookahead of a link. Constructible only from a strictly positive Time,
/// and with Time being integer picoseconds that means every Lookahead is
/// statically >= 1 ps: a schedule_remote() call carries its own proof that
/// the target shard's clock may safely lag the caller's by the bound
/// (DESIGN.md §15). The dcpim-sa pdes rule restricts construction to the
/// link seam (Port::link_lookahead), which ties every bound to a physical
/// propagation delay rather than an arbitrary constant.
class Lookahead {
 public:
  explicit Lookahead(Time bound) : bound_(bound) {
    DCPIM_CHECK_GT(bound_, Time{}, "cross-domain lookahead must be positive");
  }
  Time bound() const { return bound_; }

 private:
  Time bound_;
};

/// Stable, recycled storage for scheduled callbacks, indexed by slot.
/// Deliberately a separate type from Simulator: these members are NOT the
/// event queue (no ordering, no sift) — they are a slab with an intrusive
/// free list threaded through retired slots, so take() allocates nothing
/// and store() allocates only while the slab is still growing toward the
/// peak event population.
class CallbackSlab {
 public:
  using Callback = UniqueFunction<void()>;

  /// Moves `cb` into a slot (recycled when possible) and returns its index.
  std::uint32_t store(Callback&& cb) {
    if (free_head_ != kNoSlot) {
      const std::uint32_t slot = free_head_;
      free_head_ = slots_[slot].next_free;
      slots_[slot].cb = std::move(cb);
      return slot;
    }
    const auto slot = static_cast<std::uint32_t>(slots_.size());
    // sa-ok(hot-alloc): slab growth stops at the peak event population —
    // every take() threads its slot back onto the intrusive free list, so
    // the steady-state per-event path never reaches this push.
    slots_.push_back(Slot{std::move(cb), kNoSlot});
    return slot;
  }

  /// Moves the callback out of `slot` and recycles the slot — popped-event
  /// callback storage is reused, never freed. The moved-from shell is
  /// destroyed eagerly so captured resources release now, not at reuse.
  Callback take(std::uint32_t slot) {
    Callback cb = std::move(slots_[slot].cb);
    slots_[slot].cb = Callback();
    slots_[slot].next_free = free_head_;
    free_head_ = slot;
    return cb;
  }

 private:
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;
  struct Slot {
    Callback cb;
    std::uint32_t next_free = kNoSlot;
  };
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
};

class Simulator {
 public:
  using Callback = UniqueFunction<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  TimePoint now() const { return now_; }

  /// Schedules `cb` at absolute time `t` (must be >= now()).
  void schedule_at(TimePoint t, Callback cb);

  // --- PDES locality-typed scheduling (DESIGN.md §15) -----------------------
  // The typed entry points make delay provenance visible to the dcpim-sa
  // pdes rule: _local asserts the callback stays inside the caller's
  // ownership domain (zero delay is fine there — a future sharded scheduler
  // keeps same-shard events in order for free), while _remote crosses
  // domains and must carry a link's Lookahead, so every cross-shard edge
  // has a proven positive bound. All of them forward to schedule_at with
  // the same arithmetic the raw call sites used — identical tie-breaking
  // ids, so migrating a call site cannot change a simulation.

  /// Same-domain relative scheduling: timers, self-ticks, staged work.
  void schedule_local(Time delay, Callback cb) {
    schedule_at(now_ + delay, std::move(cb));
  }

  /// Same-domain absolute scheduling (epoch ticks, arrival injection).
  void schedule_local_at(TimePoint t, Callback cb) {
    schedule_at(t, std::move(cb));
  }

  /// Cross-domain scheduling: fires `link.bound() + extra` after now().
  /// `extra` models receiver-side processing latency and may be zero; the
  /// positive link bound is the lookahead the target shard is guaranteed.
  void schedule_remote(Lookahead link, Time extra, Callback cb) {
    DCPIM_CHECK_GE(extra, Time{}, "remote extra delay cannot be negative");
    schedule_at(now_ + link.bound() + extra, std::move(cb));
  }
  void schedule_remote(Lookahead link, Callback cb) {
    schedule_remote(link, Time{}, std::move(cb));
  }

  /// Runs events until the queue drains, `until` is passed, or stop().
  /// Events scheduled exactly at `until` still execute.
  void run(TimePoint until = kTimePointInfinity);

  /// Executes at most `max_events` pending events; returns count executed.
  std::size_t run_steps(std::size_t max_events);

  /// Stops the run() loop after the current event returns.
  void stop() { stopped_ = true; }

  /// Number of events executed since construction.
  std::uint64_t events_executed() const { return executed_; }

  /// Number of events currently pending.
  std::size_t pending() const { return pending_; }

 private:
  /// Fixed-size bucket storage, structure-of-arrays so a refill's minimum
  /// scan reads keys contiguously. Blocks come from one shared free list.
  struct Block {
    static constexpr std::uint32_t kEntries = 64;
    Block* next = nullptr;
    std::uint64_t keys[kEntries];  ///< event time, integer picoseconds
    std::uint32_t slots[kEntries];  ///< index into slab_
  };
  /// A FIFO of entries in scheduling order: a chain of blocks from head to
  /// tail. Only bucket 0 pops from the front, so head_pos stays 0 elsewhere.
  struct Bucket {
    Block* head = nullptr;  ///< nullptr iff the bucket is empty
    Block* tail = nullptr;
    std::uint32_t head_pos = 0;  ///< first live entry of head
    std::uint32_t tail_pos = 0;  ///< entries filled in tail
  };
  /// Keys are non-negative int64 picoseconds, so bit_width(key ^ base_) is
  /// at most 63.
  static constexpr int kBuckets = 64;

  int bucket_of(std::uint64_t key) const;
  void append(int bucket, std::uint64_t key, std::uint32_t slot);
  /// True when bucket 0 holds the earliest pending events and they are due
  /// by `until`. Refills bucket 0 when it is empty, but only once the
  /// lowest bucket's minimum is known to be due, so the base never passes
  /// `until`.
  bool ready(TimePoint until);
  /// Pops bucket 0's front entry (the next event); returns its slab slot.
  std::uint32_t pop_tie();
  Block* take_block();
  Block* grow_pool();  ///< the queue's one storage growth point
  void release_block(Block* block);

  TimePoint now_{};
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
  std::uint64_t base_ = 0;      ///< key of the last refill; bucket 0's time
  std::uint64_t nonempty_ = 0;  ///< bit b set iff buckets_[b] holds entries
  std::size_t pending_ = 0;
  Bucket buckets_[kBuckets];
  Block* free_blocks_ = nullptr;  ///< the shared pool's free list
  std::vector<std::unique_ptr<Block>> blocks_;  ///< owns every block
  CallbackSlab slab_;  ///< callback storage; queue entries index into it
};

}  // namespace dcpim::sim
