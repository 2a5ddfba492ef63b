// Unit tests: discrete-event simulator ordering, relative timing, stop/resume.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "util/rng.h"

namespace dcpim::sim {
namespace {

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(TimePoint(us(3)), [&]() { order.push_back(3); });
  sim.schedule_at(TimePoint(us(1)), [&]() { order.push_back(1); });
  sim.schedule_at(TimePoint(us(2)), [&]() { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, TiesBreakByScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(TimePoint(us(1)), [&, i]() { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimulatorTest, NowAdvancesToEventTime) {
  Simulator sim;
  TimePoint seen = kTimeUnset;
  sim.schedule_at(TimePoint(us(7)), [&]() { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, TimePoint(us(7)));
  EXPECT_EQ(sim.now(), TimePoint(us(7)));
}

TEST(SimulatorTest, ScheduleAfterIsRelative) {
  Simulator sim;
  TimePoint seen = kTimeUnset;
  sim.schedule_at(TimePoint(us(5)), [&]() {
    sim.schedule_local(us(2), [&]() { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, TimePoint(us(7)));
}

TEST(SimulatorTest, RunUntilStopsAtBoundaryAndResumes) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(TimePoint(us(1)), [&]() { order.push_back(1); });
  sim.schedule_at(TimePoint(us(10)), [&]() { order.push_back(10); });
  sim.run(TimePoint(us(5)));
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sim.now(), TimePoint(us(5)));
  sim.run(TimePoint(us(20)));
  EXPECT_EQ(order, (std::vector<int>{1, 10}));
}

TEST(SimulatorTest, EventExactlyAtUntilRuns) {
  Simulator sim;
  bool ran = false;
  sim.schedule_at(TimePoint(us(5)), [&]() { ran = true; });
  sim.run(TimePoint(us(5)));
  EXPECT_TRUE(ran);
}

TEST(SimulatorTest, StopHaltsLoop) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(TimePoint(us(1)), [&]() {
    ++count;
    sim.stop();
  });
  sim.schedule_at(TimePoint(us(2)), [&]() { ++count; });
  sim.run();
  EXPECT_EQ(count, 1);
  sim.run();  // resumes
  EXPECT_EQ(count, 2);
}

TEST(SimulatorTest, RunStepsBounded) {
  Simulator sim;
  int count = 0;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(TimePoint(us(i + 1)), [&]() { ++count; });
  }
  EXPECT_EQ(sim.run_steps(3), 3u);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.run_steps(10), 2u);
  EXPECT_EQ(count, 5);
}

TEST(SimulatorTest, SelfPerpetuatingChainBoundedByUntil) {
  Simulator sim;
  int ticks = 0;
  std::function<void()> tick = [&]() {
    ++ticks;
    sim.schedule_local(us(1), [&]() { tick(); });
  };
  sim.schedule_at(TimePoint{}, [&]() { tick(); });
  sim.run(TimePoint(us(100)));
  EXPECT_EQ(ticks, 101);  // t = 0..100 inclusive
}

TEST(SimulatorTest, CountsExecutedAndPending) {
  Simulator sim;
  sim.schedule_at(TimePoint(us(1)), []() {});
  sim.schedule_at(TimePoint(us(2)), []() {});
  sim.schedule_at(TimePoint(us(3)), []() {});
  EXPECT_EQ(sim.pending(), 3u);
  sim.run();
  EXPECT_EQ(sim.events_executed(), 3u);
  EXPECT_EQ(sim.pending(), 0u);
}

// run(until) must only peek at the next event: the queue's base may not
// move past `until`, or scheduling into [until, next event) would land
// below it and pop out of order (and trip the monotone-key DCHECK).
TEST(SimulatorTest, RunUntilPeekLeavesRoomBeforeTheNextEvent) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(TimePoint(us(1)), [&]() { order.push_back(1); });
  sim.schedule_at(TimePoint(us(10)), [&]() { order.push_back(10); });
  sim.run(TimePoint(us(5)));
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sim.pending(), 1u);
  sim.schedule_at(TimePoint(us(7)), [&]() { order.push_back(7); });
  sim.schedule_at(TimePoint(us(5)), [&]() { order.push_back(5); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 5, 7, 10}));
}

TEST(SimulatorTest, RunUntilNeverMovesTheClockBackwards) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(TimePoint(us(10)), [&]() { order.push_back(10); });
  sim.schedule_at(TimePoint(us(10)), [&]() { order.push_back(11); });
  EXPECT_EQ(sim.run_steps(1), 1u);
  sim.run(TimePoint(us(5)));  // an `until` already in the past
  EXPECT_EQ(sim.now(), TimePoint(us(10)));
  sim.schedule_at(sim.now(), [&]() { order.push_back(12); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{10, 11, 12}));
}

/// Drives a Simulator with random schedules from inside and outside events
/// and records the (time, scheduling order) key of every event scheduled
/// and fired. An exact queue fires each event at its time, every key in
/// increasing order, and all of them: the fired list equals the sorted
/// scheduled list.
class QueueOracle {
 public:
  using Key = std::pair<std::int64_t, std::uint64_t>;

  QueueOracle(std::uint64_t seed, std::int64_t origin)
      : rng_(seed), origin_(origin) {}

  /// A delay mix that stresses every bucket: zero (ties with now, and
  /// zero-delay self-schedules), a few picoseconds (low buckets), and up
  /// to 2^40 ps (high buckets).
  std::int64_t delay() {
    const std::uint64_t kind = rng_.uniform_int(8);
    if (kind < 3) return 0;
    if (kind < 5) return static_cast<std::int64_t>(rng_.uniform_int(8));
    if (kind < 7) return static_cast<std::int64_t>(rng_.uniform_int(1 << 16));
    return static_cast<std::int64_t>(rng_.uniform_int(std::uint64_t{1} << 40));
  }

  void schedule(std::int64_t t, int depth) {
    const std::uint64_t seq = scheduled_.size();
    scheduled_.emplace_back(t, seq);
    sim_.schedule_at(TimePoint{t}, [this, t, seq, depth]() {
      EXPECT_EQ(sim_.now(), TimePoint{t});
      fired_.emplace_back(t, seq);
      if (depth == 0) return;
      const std::uint64_t children = rng_.uniform_int(3);
      for (std::uint64_t c = 0; c < children; ++c) {
        schedule(t + delay(), depth - 1);
      }
    });
  }

  /// Seeds `n` events around the origin, then makes `moves` random moves —
  /// run_steps(k), run(until) slices and outside schedules — and drains.
  void drive(int n, int moves) {
    for (int i = 0; i < n; ++i) schedule(origin_ + delay(), 6);
    for (int m = 0; m < moves && sim_.pending() > 0; ++m) {
      const std::uint64_t move = rng_.uniform_int(4);
      if (move == 0) {
        sim_.run_steps(1 + rng_.uniform_int(4));
      } else if (move == 1) {
        const std::int64_t now = sim_.now().raw();
        const TimePoint until{now + static_cast<std::int64_t>(
                                        rng_.uniform_int(1 << 12))};
        sim_.run(until);
        // Right at or just past `until`, possibly before the next event.
        schedule(until.raw() +
                     static_cast<std::int64_t>(rng_.uniform_int(4)),
                 2);
      } else {
        const std::int64_t now = sim_.now().raw();
        schedule(std::max(now, origin_) + delay(), 3);
        sim_.run_steps(1);
      }
    }
    sim_.run();
  }

  void expect_exact_order() {
    std::vector<Key> expected = scheduled_;
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(fired_.size(), expected.size());
    EXPECT_TRUE(fired_ == expected);
    EXPECT_EQ(sim_.events_executed(), expected.size());
    EXPECT_EQ(sim_.pending(), 0u);
  }

 private:
  Simulator sim_;
  Rng rng_;
  std::int64_t origin_;
  std::vector<Key> scheduled_;
  std::vector<Key> fired_;
};

TEST(SimulatorQueueTest, RandomScheduleMatchesReferenceSort) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    QueueOracle oracle(seed, /*origin=*/0);
    oracle.drive(300, 2000);
    oracle.expect_exact_order();
  }
}

TEST(SimulatorQueueTest, KeysNearBit62MatchReferenceSort) {
  // The origin sits just below 2^62, so keys straddle the bit where
  // bit_width(t ^ base) reaches its top buckets.
  const std::int64_t origin = (std::int64_t{1} << 62) - (std::int64_t{1} << 20);
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    QueueOracle oracle(seed, origin);
    oracle.drive(300, 2000);
    oracle.expect_exact_order();
  }
}

TEST(SimulatorQueueTest, ManyTiesFireInScheduleOrder) {
  // Thousands of events at one instant, spanning many 64-entry blocks,
  // interleaved with zero-delay self-schedules that join the same tie.
  Simulator sim;
  std::vector<int> order;
  const TimePoint t(us(3));
  int next = 0;
  for (int i = 0; i < 1000; ++i) {
    sim.schedule_at(t, [&, i]() {
      order.push_back(i);
      if (i % 7 == 0) {
        const int id = 1000 + next++;
        sim.schedule_local(Time{}, [&, id]() { order.push_back(id); });
      }
    });
  }
  sim.schedule_at(TimePoint(us(2)), [&]() { order.push_back(-1); });
  sim.run();
  ASSERT_EQ(order.size(), 1001u + 143u);
  EXPECT_EQ(order.front(), -1);
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_LT(order[i - 1], order[i]) << "at position " << i;
  }
}

}  // namespace
}  // namespace dcpim::sim
