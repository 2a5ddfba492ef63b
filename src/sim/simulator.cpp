#include "sim/simulator.h"

#include <algorithm>
#include <bit>

#include "util/check.h"
#include "util/logging.h"

namespace dcpim::sim {

namespace {

/// The one place this file turns a TimePoint into a bare integer: the
/// radix queue's keys and check.h's failure-time hook both need it.
std::int64_t picoseconds(TimePoint t) {
  // sa-ok(unit-raw): queue keys and check.h's hook are unit-agnostic by design
  return t.raw();
}

/// Event time <-> radix-queue key (times are non-negative, so the order of
/// keys is the order of times).
std::uint64_t key_of(TimePoint t) {
  return static_cast<std::uint64_t>(picoseconds(t));
}
TimePoint time_of(std::uint64_t key) {
  return TimePoint{static_cast<std::int64_t>(key)};
}

/// Adapter so DCPIM_CHECK failures anywhere in the stack can report the
/// simulated time at which the invariant broke (see util/check.h).
std::int64_t sim_now_for_checks(const void* ctx) {
  return picoseconds(static_cast<const Simulator*>(ctx)->now());
}

}  // namespace

int Simulator::bucket_of(std::uint64_t key) const {
  return static_cast<int>(std::bit_width(key ^ base_));
}

Simulator::Block* Simulator::grow_pool() {
  // sa-ok(hot-alloc): the block pool grows only until it covers the peak
  // pending count (one block per 64 events plus a partial one per bucket);
  // every drained block returns to the free list, so steady-state pushes
  // and refills never reach this line.
  // sa-ok(hot-cost): this is the queue's only storage growth, not a sift —
  // pushes and pops themselves are O(1) amortized (see simulator.h).
  blocks_.push_back(std::make_unique<Block>());
  return blocks_.back().get();
}

Simulator::Block* Simulator::take_block() {
  if (free_blocks_ == nullptr) return grow_pool();
  Block* block = free_blocks_;
  free_blocks_ = block->next;
  block->next = nullptr;
  return block;
}

void Simulator::release_block(Block* block) {
  block->next = free_blocks_;
  free_blocks_ = block;
}

void Simulator::append(int bucket, std::uint64_t key, std::uint32_t slot) {
  Bucket& b = buckets_[bucket];
  if (b.head == nullptr) {
    b.head = b.tail = take_block();
    b.head_pos = b.tail_pos = 0;
    nonempty_ |= std::uint64_t{1} << bucket;
  } else if (b.tail_pos == Block::kEntries) {
    Block* block = take_block();
    b.tail->next = block;
    b.tail = block;
    b.tail_pos = 0;
  }
  b.tail->keys[b.tail_pos] = key;
  b.tail->slots[b.tail_pos] = slot;
  ++b.tail_pos;
}

bool Simulator::ready(TimePoint until) {
  if ((nonempty_ & 1) != 0) {
    return time_of(base_) <= until;
  }
  if (nonempty_ == 0) return false;
  const int lowest = std::countr_zero(nonempty_);
  Bucket src = buckets_[lowest];
  // Peek: find the bucket's earliest time without moving the base, so an
  // event past `until` leaves the queue exactly as it was.
  std::uint64_t min_key = UINT64_MAX;
  for (const Block* block = src.head; block != nullptr; block = block->next) {
    const std::uint32_t end =
        block == src.tail ? src.tail_pos : Block::kEntries;
    for (std::uint32_t i = 0; i < end; ++i) {
      min_key = std::min(min_key, block->keys[i]);
    }
  }
  if (time_of(min_key) > until) return false;
  // Refill: every entry of `lowest` moves to a strictly lower bucket, in
  // order, so each bucket stays a FIFO in scheduling order.
  base_ = min_key;
  buckets_[lowest] = Bucket{};
  nonempty_ &= ~(std::uint64_t{1} << lowest);
  for (Block* block = src.head; block != nullptr;) {
    const std::uint32_t end =
        block == src.tail ? src.tail_pos : Block::kEntries;
    for (std::uint32_t i = 0; i < end; ++i) {
      append(bucket_of(block->keys[i]), block->keys[i], block->slots[i]);
    }
    Block* next = block->next;
    release_block(block);
    block = next;
  }
  return true;
}

std::uint32_t Simulator::pop_tie() {
  Bucket& b = buckets_[0];
  const std::uint32_t slot = b.head->slots[b.head_pos++];
  if (b.head == b.tail && b.head_pos == b.tail_pos) {
    release_block(b.head);
    b = Bucket{};
    nonempty_ &= ~std::uint64_t{1};
  } else if (b.head_pos == Block::kEntries) {
    Block* next = b.head->next;
    release_block(b.head);
    b.head = next;
    b.head_pos = 0;
  }
  --pending_;
  return slot;
}

void Simulator::schedule_at(TimePoint t, Callback cb) {
  DCPIM_DCHECK_GE(t, now_, "cannot schedule into the past");
  if (t < now_) t = now_;  // degrade gracefully in release builds
  const std::uint64_t key = key_of(t);
  // Monotone keys are the radix queue's whole correctness argument: a key
  // below the base would land in a bucket that pops after later events.
  DCPIM_DCHECK_GE(key, base_, "event key below the radix queue's base");
  append(bucket_of(key), key, slab_.store(std::move(cb)));
  ++pending_;
}

// sa-hot: the event loop proper — every simulated event passes through.
void Simulator::run(TimePoint until) {
  check_detail::ScopedSimTimeSource time_source(this, &sim_now_for_checks);
  stopped_ = false;
  while (!stopped_ && ready(until)) {
    const TimePoint t = time_of(base_);
    // Event-time monotonicity: a pop that travels backwards in time means
    // the queue ordering is corrupt — every downstream latency/FCT number
    // would be garbage.
    DCPIM_CHECK_GE(t, now_, "event queue is not time-ordered");
    now_ = t;
    ++executed_;
    // slab_.take() recycles the slab slot *before* invoking, so an event
    // that schedules follow-ups (the common per-hop case) re-uses the very
    // slot it just vacated. `cb` is destroyed at the end of this
    // iteration — captured resources, above all pooled PacketPtrs, return
    // to their owners at end-of-event, never lingering until the next pop.
    Callback cb = slab_.take(pop_tie());
    cb();
  }
  // Drained, or the next event is past `until`: the clock advances to
  // `until`, never backwards (now() >= base_ keeps every later push legal).
  if (!stopped_ && until != kTimePointInfinity && until > now_) now_ = until;
}

// sa-hot: bounded-step variant of the event loop.
std::size_t Simulator::run_steps(std::size_t max_events) {
  check_detail::ScopedSimTimeSource time_source(this, &sim_now_for_checks);
  stopped_ = false;
  std::size_t done = 0;
  while (!stopped_ && done < max_events && ready(kTimePointInfinity)) {
    const TimePoint t = time_of(base_);
    DCPIM_CHECK_GE(t, now_, "event queue is not time-ordered");
    now_ = t;
    ++executed_;
    ++done;
    Callback cb = slab_.take(pop_tie());  // eager recycle, as in run()
    cb();
  }
  return done;
}

}  // namespace dcpim::sim
