// Adversarial tests for the hierarchical timer wheel (src/sim/event_queue.h):
// far-future horizons that land in the top levels, multi-level cascade
// correctness, the same-tick FIFO golden, a large randomized differential
// against a std::priority_queue reference ordered by (time, schedule index),
// and the bounded-peek regression (scheduling into the gap RunUntil stopped
// in must not land behind the wheel).
#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <queue>
#include <vector>

namespace psp {
namespace {

// Records its id into a shared order log — the probe used by every test to
// observe the exact execution sequence.
struct Rec {
  std::vector<uint64_t>* out;
  uint64_t id;
  void operator()() const { out->push_back(id); }
};

TEST(TimerWheel, FarFutureHorizonsExecuteInOrder) {
  // Times spanning every wheel level, including ones only the top levels can
  // index (there is no overflow list: 8 one-byte levels cover all 64 bits).
  const std::vector<Nanos> times = {
      (Nanos{1} << 62),      1,    (Nanos{1} << 50), 255,  (Nanos{1} << 40),
      256,                   0,    (Nanos{1} << 30), 257,  65536,
      (Nanos{1} << 20) + 17, 4096, (Nanos{1} << 45), 2,
  };
  Simulation sim;
  std::vector<uint64_t> order;
  for (size_t i = 0; i < times.size(); ++i) {
    sim.ScheduleAt(times[i], Rec{&order, i});
  }
  sim.RunToCompletion();
  ASSERT_EQ(order.size(), times.size());
  std::vector<Nanos> sorted = times;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(times[order[i]], sorted[i]) << "position " << i;
  }
  EXPECT_EQ(sim.Now(), Nanos{1} << 62);
  // The far events started at high levels, so reaching them must cascade.
  EXPECT_GT(sim.wheel_cascades(), 0u);
  EXPECT_GT(sim.wheel_rollovers(), 0u);
}

TEST(TimerWheel, MultiLevelCascadePreservesTotalOrder) {
  // A few thousand events spread over a ~2^26-tick horizon: every one is
  // inserted at level 2-3 and must pour down through the intermediate levels
  // before it can run.
  constexpr uint64_t kEvents = 5000;
  Simulation sim;
  std::vector<uint64_t> order;
  std::vector<Nanos> times(kEvents);
  for (uint64_t i = 0; i < kEvents; ++i) {
    times[i] = static_cast<Nanos>((i * 2654435761u) % (uint64_t{1} << 26));
    sim.ScheduleAt(times[i], Rec{&order, i});
  }
  sim.RunToCompletion();
  ASSERT_EQ(order.size(), kEvents);
  for (size_t i = 1; i < order.size(); ++i) {
    ASSERT_LE(times[order[i - 1]], times[order[i]]) << "position " << i;
  }
  EXPECT_EQ(sim.executed_events(), kEvents);
  EXPECT_GT(sim.wheel_cascades(), kEvents / 2);  // deep inserts all cascade
}

// The FIFO golden: three ticks' handlers scheduled interleaved; the wheel
// must drain each tick in schedule order — the exact sequence the
// determinism goldens (p99.9 replays, fleet byte-equality) depend on.
TEST(TimerWheel, SameTickFifoGolden) {
  Simulation sim;
  std::vector<uint64_t> order;
  constexpr uint64_t kPerTick = 100;
  const Nanos ticks[3] = {40, 10, 20};
  for (uint64_t i = 0; i < kPerTick; ++i) {
    for (uint64_t t = 0; t < 3; ++t) {
      sim.ScheduleAt(ticks[t], Rec{&order, t * kPerTick + i});
    }
  }
  sim.RunToCompletion();
  ASSERT_EQ(order.size(), 3 * kPerTick);
  // Drain order: tick 10 (ids 100..199), tick 20 (200..299), tick 40 (0..99),
  // each in schedule (id) order.
  const uint64_t tick_base[3] = {1 * kPerTick, 2 * kPerTick, 0 * kPerTick};
  for (uint64_t t = 0; t < 3; ++t) {
    for (uint64_t i = 0; i < kPerTick; ++i) {
      ASSERT_EQ(order[t * kPerTick + i], tick_base[t] + i)
          << "tick group " << t << " position " << i;
    }
  }
}

// Reference engine for the differential: a std::priority_queue ordered by
// (time, schedule index) — the ordering contract stated directly. It mirrors
// the Simulation calls the mixed workload makes and logs ids in execution
// order.
class ReferenceQueue {
 public:
  explicit ReferenceQueue(std::vector<uint64_t>* order) : order_(order) {}
  Nanos Now() const { return now_; }
  void ScheduleAt(Nanos t, uint64_t id) { queue_.push({t, next_index_++, id}); }
  void RunUntil(Nanos until) {
    while (!queue_.empty() && queue_.top().time <= until) {
      Pop();
    }
    if (now_ < until) {
      now_ = until;
    }
  }
  void RunToCompletion() {
    while (!queue_.empty()) {
      Pop();
    }
  }

 private:
  struct Entry {
    Nanos time;
    uint64_t index;
    uint64_t id;
    // priority_queue pops the *largest*, so "greater" means "runs later".
    bool operator<(const Entry& o) const {
      return time != o.time ? time > o.time : index > o.index;
    }
  };
  void Pop() {
    now_ = queue_.top().time;
    order_->push_back(queue_.top().id);
    queue_.pop();
  }
  std::vector<uint64_t>* order_;
  std::priority_queue<Entry> queue_;
  uint64_t next_index_ = 0;
  Nanos now_ = 0;
};

// The same interface over the wheel: each scheduled id runs as a Rec handler.
class WheelUnderTest {
 public:
  explicit WheelUnderTest(std::vector<uint64_t>* order) : order_(order) {}
  Nanos Now() const { return sim_.Now(); }
  void ScheduleAt(Nanos t, uint64_t id) { sim_.ScheduleAt(t, Rec{order_, id}); }
  void RunUntil(Nanos until) { sim_.RunUntil(until); }
  void RunToCompletion() { sim_.RunToCompletion(); }

 private:
  std::vector<uint64_t>* order_;
  Simulation sim_;
};

// Randomized differential: 1e6 mixed schedules — heavy same-tick ties,
// short-horizon churn, mid-range spreads, and deep-cascade far futures,
// interleaved with partial RunUntil drains — must produce the identical
// execution sequence on the wheel and on the reference queue.
template <typename Engine>
void RunMixedWorkload(Engine* engine) {
  constexpr uint64_t kBatches = 100;
  constexpr uint64_t kPerBatch = 10000;  // 1e6 events total
  uint64_t lcg = 0x853c49e6748fea9bull;
  const auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return lcg;
  };
  uint64_t id = 0;
  for (uint64_t b = 0; b < kBatches; ++b) {
    const Nanos base = engine->Now();
    for (uint64_t i = 0; i < kPerBatch; ++i) {
      const uint64_t r = next();
      const uint64_t pick = r & 3;
      Nanos t = base;
      if (pick == 0) {
        t += static_cast<Nanos>((r >> 8) % 16);  // heavy FIFO ties
      } else if (pick == 1) {
        t += static_cast<Nanos>((r >> 8) % 4096);  // levels 0-1
      } else if (pick == 2) {
        t += static_cast<Nanos>((r >> 8) % (uint64_t{1} << 20));  // level 2-3
      } else {
        t += static_cast<Nanos>((r >> 8) % (uint64_t{1} << 34));  // deep
      }
      engine->ScheduleAt(t, id++);
    }
    // Partial drain: far events stay pending across batches, so later
    // batches schedule *around* older high-level entries.
    engine->RunUntil(base + static_cast<Nanos>(next() % (uint64_t{1} << 22)));
  }
  engine->RunToCompletion();
}

TEST(TimerWheel, RandomizedDifferentialMatchesReferenceQueue) {
  std::vector<uint64_t> reference_order;
  reference_order.reserve(1000000);
  ReferenceQueue reference(&reference_order);
  RunMixedWorkload(&reference);

  std::vector<uint64_t> wheel_order;
  wheel_order.reserve(1000000);
  WheelUnderTest wheel(&wheel_order);
  RunMixedWorkload(&wheel);

  ASSERT_EQ(reference_order.size(), 1000000u);
  ASSERT_EQ(wheel_order.size(), reference_order.size());
  EXPECT_EQ(wheel.Now(), reference.Now());
  // Element-wise loop instead of EXPECT_EQ on the vectors: on mismatch this
  // reports the first diverging position, not a 1e6-element dump.
  for (size_t i = 0; i < reference_order.size(); ++i) {
    ASSERT_EQ(reference_order[i], wheel_order[i])
        << "first divergence at " << i;
  }
}

// Regression: RunUntil's peek must not advance the wheel past `until`. If it
// did, an event scheduled afterwards into [until, next-pending) would land
// behind the wheel and be lost or misordered.
TEST(TimerWheel, ScheduleIntoRunUntilGapStaysOrdered) {
  Simulation sim;
  std::vector<uint64_t> order;
  sim.ScheduleAt(1000, Rec{&order, 0});
  sim.RunUntil(100);  // peeks the 1000-tick event, runs nothing
  EXPECT_EQ(sim.Now(), 100);
  EXPECT_TRUE(order.empty());
  sim.ScheduleAt(500, Rec{&order, 1});  // into the gap the peek spanned
  sim.ScheduleAt(200, Rec{&order, 2});
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<uint64_t>{2, 1, 0}));
  EXPECT_EQ(sim.Now(), 1000);
}

// Same regression across a level boundary: the pending event sits in a
// higher level, so the bounded peek must also stop mid-cascade.
TEST(TimerWheel, ScheduleIntoGapAcrossLevelBoundary) {
  Simulation sim;
  std::vector<uint64_t> order;
  sim.ScheduleAt(70000, Rec{&order, 0});  // level 2 relative to tick 0
  sim.RunUntil(100);
  sim.ScheduleAt(300, Rec{&order, 1});
  sim.RunUntil(400);
  EXPECT_EQ(order, (std::vector<uint64_t>{1}));
  sim.ScheduleAt(65536, Rec{&order, 2});
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<uint64_t>{1, 2, 0}));
}

// Exact-minimum rollover: a rollover jumps the wheel to the earliest time in
// the bucket it pours, so an event alone five levels up lands directly in
// level 0 — one cascade, not one per level with a non-zero byte.
TEST(TimerWheel, LoneFarEventCascadesExactlyOnce) {
  Simulation sim;
  std::vector<uint64_t> order;
  const Nanos t = 0x010203040506;  // every byte 0-5 non-zero: level 5
  sim.ScheduleAt(t, Rec{&order, 0});
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<uint64_t>{0}));
  EXPECT_EQ(sim.Now(), t);
  EXPECT_EQ(sim.wheel_rollovers(), 1u);
  EXPECT_EQ(sim.wheel_cascades(), 1u);
}

// Equal-time events scheduled at different moments share one high-level
// bucket with an earlier and a later time; they must still run in schedule
// order through two rollovers (the first stops at the bucket's minimum, the
// second lands exactly on the shared time), and bounded peeks in between
// must not pour a bucket whose minimum lies past the horizon.
TEST(TimerWheel, EqualTimesStayFifoAcrossRollovers) {
  Simulation sim;
  std::vector<uint64_t> order;
  constexpr Nanos kFar = (Nanos{3} << 32) + 777;  // level 4 from tick 0
  sim.ScheduleAt(kFar, Rec{&order, 0});
  sim.ScheduleAt(kFar + 5, Rec{&order, 1});
  sim.ScheduleAt(kFar, Rec{&order, 2});
  sim.ScheduleAt(kFar - 300, Rec{&order, 3});  // the bucket's minimum
  sim.ScheduleAt(kFar, Rec{&order, 4});
  sim.RunUntil(1000);  // minimum past the horizon: nothing poured
  EXPECT_EQ(sim.wheel_rollovers(), 0u);
  sim.ScheduleAt(kFar, Rec{&order, 5});
  sim.RunUntil(kFar - 300);  // pours to the minimum, runs event 3 only
  EXPECT_EQ(order, (std::vector<uint64_t>{3}));
  sim.ScheduleAt(kFar, Rec{&order, 6});
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<uint64_t>{3, 0, 2, 4, 5, 6, 1}));
  EXPECT_EQ(sim.wheel_rollovers(), 2u);
  // Rollover 1 pours events 0-5 (3 to level 0, the rest to level 1);
  // rollover 2 pours the six then at level 1 (0, 1, 2, 4, 5, 6).
  EXPECT_EQ(sim.wheel_cascades(), 12u);
}

// Self-rescheduling handler with a far-future stride: keeps the wheel
// cascading in steady state.
struct FarChain {
  Simulation* sim;
  uint64_t* fired;
  Nanos stride;
  void operator()() const {
    ++*fired;
    sim->ScheduleAfter(stride, *this);
  }
};

TEST(TimerWheel, SteadyStateCascadesDoNotAllocate) {
  Simulation sim;
  uint64_t fired = 0;
  constexpr uint64_t kPending = 64;
  sim.Reserve(kPending + 8);
  for (uint64_t i = 0; i < kPending; ++i) {
    // Strides up to ~2^24 ticks: every re-arm lands 2-3 levels up and must
    // cascade back down before firing.
    sim.ScheduleAt(static_cast<Nanos>(1 + i),
                   FarChain{&sim, &fired, static_cast<Nanos>(
                                              (uint64_t{1} << 16) +
                                              i * 257 * 1024)});
  }
  sim.RunUntil(Nanos{1} << 22);  // warmup: reach peak arena footprint
  const uint64_t allocs_before = sim.arena_allocations();
  const uint64_t cascades_before = sim.wheel_cascades();
  sim.RunUntil(Nanos{1} << 26);
  EXPECT_EQ(sim.arena_allocations(), allocs_before)
      << "wheel path must be allocation-free in steady state";
  EXPECT_GT(sim.wheel_cascades(), cascades_before);
  EXPECT_GT(fired, kPending);
}

}  // namespace
}  // namespace psp
