// Unit tests for the discrete-event core and propagation model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <random>
#include <utility>
#include <vector>

#include "sim/events.h"
#include "sim/propagation.h"
#include "sim/time.h"

namespace whitefi {
namespace {

// ----------------------------------------------------------------- time ---

TEST(SimTimeConv, ToTicksRounding) {
  EXPECT_EQ(ToTicks(0.0), 0);
  EXPECT_EQ(ToTicks(1.4), 1);
  EXPECT_EQ(ToTicks(1.6), 2);
  // Strictly positive durations never round to zero ticks.
  EXPECT_EQ(ToTicks(0.2), 1);
  EXPECT_DOUBLE_EQ(ToUs(1500), 1500.0);
  EXPECT_DOUBLE_EQ(ToSeconds(2 * kTicksPerSec), 2.0);
}

// --------------------------------------------------------------- events ---

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(300, [&] { order.push_back(3); });
  sim.Schedule(100, [&] { order.push_back(1); });
  sim.Schedule(200, [&] { order.push_back(2); });
  sim.Run(1000);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 1000);
  EXPECT_EQ(sim.NumProcessed(), 3u);
}

TEST(Simulator, SimultaneousEventsAreFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(50, [&order, i] { order.push_back(i); });
  }
  sim.Run(100);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, RunStopsAtBoundaryLeavesLaterEvents) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(100, [&] { ++fired; });
  sim.Schedule(101, [&] { ++fired; });
  sim.Run(100);  // Inclusive boundary.
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 100);
  sim.Run(200);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.Schedule(10, [&] { ++fired; });
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));  // Second cancel is a no-op.
  EXPECT_FALSE(sim.Cancel(kInvalidEventId));
  EXPECT_FALSE(sim.Cancel(9999));  // Never-issued id.
  sim.Run(100);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.NumProcessed(), 0u);
}

TEST(Simulator, EventsScheduleMoreEvents) {
  Simulator sim;
  int chain = 0;
  std::function<void()> step = [&] {
    if (++chain < 5) sim.ScheduleAfter(10, step);
  };
  sim.Schedule(0, step);
  sim.Run(1000);
  EXPECT_EQ(chain, 5);
}

TEST(Simulator, SchedulingInThePastClampsToNow) {
  Simulator sim;
  SimTime observed = -1;
  sim.Schedule(100, [&] {
    sim.Schedule(50, [&] { observed = sim.Now(); });  // "Past" event.
  });
  sim.Run(1000);
  EXPECT_EQ(observed, 100);
}

TEST(Simulator, StopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(10, [&] {
    ++fired;
    sim.Stop();
  });
  sim.Schedule(20, [&] { ++fired; });
  sim.Run(100);
  EXPECT_EQ(fired, 1);
  // A subsequent Run resumes.
  sim.Run(100);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilIdleDrainsQueue) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(5, [&] { ++fired; });
  sim.Schedule(500000, [&] { ++fired; });
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), 500000);
}

TEST(Simulator, CancelledTombstonesDoNotCountAsProcessed) {
  Simulator sim;
  const EventId a = sim.Schedule(1, [] {});
  sim.Schedule(2, [] {});
  sim.Cancel(a);
  sim.Run(10);
  EXPECT_EQ(sim.NumProcessed(), 1u);
}

TEST(Simulator, SimultaneousEventsAreFifoInRunUntilIdle) {
  // The (time, seq) FIFO contract must hold in BOTH drain loops — scenario
  // determinism rests on it.
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(50, [&order, i] { order.push_back(i); });
  }
  sim.RunUntilIdle();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, SimultaneousFifoSurvivesInterleavedCancels) {
  // Cancelling some of a tick's events must not perturb the schedule order
  // of the survivors (in-place cancellation must not reorder the bucket).
  Simulator sim;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 16; ++i) {
    ids.push_back(sim.Schedule(50, [&order, i] { order.push_back(i); }));
  }
  for (int i = 1; i < 16; i += 2) {
    EXPECT_TRUE(sim.Cancel(ids[static_cast<std::size_t>(i)]));
  }
  sim.RunUntilIdle();
  std::vector<int> expected;
  for (int i = 0; i < 16; i += 2) expected.push_back(i);
  EXPECT_EQ(order, expected);
}

TEST(Simulator, FiresInTimeOrderAcrossWideHorizons) {
  // Times straddling many wheel levels (same tick, adjacent ticks, 256-
  // and 65536-tick window boundaries, and far-future timers), scheduled in
  // shuffled order, must still fire in (time, seq) order.
  const std::vector<SimTime> times = {
      0,     1,       2,         255,       256,        257,      511,
      512,   65535,   65536,     65537,     100000,     1 << 24,  (1 << 24) + 1,
      1 << 30, SimTime{1} << 40, (SimTime{1} << 40) + 255};
  std::vector<std::size_t> perm(times.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  std::mt19937 rng(1234);
  for (int trial = 0; trial < 20; ++trial) {
    std::shuffle(perm.begin(), perm.end(), rng);
    Simulator sim;
    std::vector<SimTime> fired;
    for (const std::size_t i : perm) {
      sim.Schedule(times[i], [&fired, &sim] { fired.push_back(sim.Now()); });
    }
    sim.RunUntilIdle();
    std::vector<SimTime> expected = times;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(fired, expected);
  }
}

TEST(Simulator, CancellingFiredIdsLeavesStateBounded) {
  // Regression for the seed engine's unbounded tombstone set: cancelling
  // ids that already fired must be a stateless miss, and repeated
  // schedule/fire/cancel churn must not grow the arena beyond the peak
  // number of simultaneously pending events.
  Simulator sim;
  std::vector<EventId> ids;
  for (int round = 0; round < 200; ++round) {
    ids.clear();
    for (int i = 0; i < 64; ++i) {
      ids.push_back(sim.ScheduleAfter(i % 7 + 1, [] {}));
    }
    sim.RunUntilIdle();
    for (const EventId id : ids) EXPECT_FALSE(sim.Cancel(id));
    EXPECT_EQ(sim.NumPending(), 0u);
  }
  // 64 concurrent events fit one 256-slot chunk; 12800 schedules and as
  // many stale cancels must not have grown it.
  EXPECT_EQ(sim.ArenaSlots(), 256u);
}

TEST(Simulator, StaleIdAfterSlotReuseIsNoOp) {
  // The generation check on EventId: once a slot is released (fired or
  // cancelled) and reissued to a NEW event, the old handle must neither
  // cancel the new occupant nor report success — across arbitrary
  // schedule/fire churn, including chunk recycling.
  Simulator sim;
  // Burn through several full 256-slot chunk cycles so reissued ids come
  // from recycled slots at every chunk position.
  std::vector<EventId> stale;
  for (int round = 0; round < 4; ++round) {
    stale.clear();
    for (int i = 0; i < 300; ++i) {  // > one chunk: forces a second chunk.
      stale.push_back(sim.ScheduleAfter(1, [] {}));
    }
    sim.RunUntilIdle();  // All fire; every slot is released.

    // Reoccupy the slots with live events.
    int fired = 0;
    std::vector<EventId> live;
    for (int i = 0; i < 300; ++i) {
      live.push_back(sim.ScheduleAfter(1, [&fired] { ++fired; }));
    }
    // Stale handles from the PREVIOUS occupancy of the same slots: every
    // cancel must be a generation-check miss, not a hit on the new event.
    for (const EventId id : stale) EXPECT_FALSE(sim.Cancel(id));
    sim.RunUntilIdle();
    EXPECT_EQ(fired, 300);  // No live event was collaterally cancelled.
    // And the live ids are stale now too.
    for (const EventId id : live) EXPECT_FALSE(sim.Cancel(id));
  }
}

TEST(Simulator, RearmChurnReusesSlots) {
  Simulator sim;
  EventId timer = kInvalidEventId;
  for (int i = 0; i < 5000; ++i) {
    sim.Cancel(timer);
    timer = sim.ScheduleAfter(10, [] {});
  }
  EXPECT_EQ(sim.NumPending(), 1u);
  sim.RunUntilIdle();
  EXPECT_EQ(sim.NumPending(), 0u);
  EXPECT_EQ(sim.ArenaSlots(), 256u);  // One live timer, one chunk, forever.
}

TEST(Simulator, CallbackResourcesReleasedOnFireAndCancel) {
  // Callbacks owning real resources (shared_ptr here; ASan watches the
  // rest) must be destroyed exactly once whether they fire, are cancelled,
  // or are cancelled mid-drain by an earlier same-tick event.
  Simulator sim;
  auto token = std::make_shared<int>(7);
  // Larger than the inline buffer: exercises the heap fallback too.
  struct Big {
    std::shared_ptr<int> p;
    char pad[160];
  };

  sim.Schedule(10, [t = token] { EXPECT_EQ(*t, 7); });
  const EventId cancelled = sim.Schedule(20, [t = token] {});
  sim.Schedule(30, [b = Big{token, {}}] { EXPECT_EQ(*b.p, 7); });
  const EventId big_cancelled =
      sim.Schedule(40, [b = Big{token, {}}] { ADD_FAILURE(); });
  EXPECT_TRUE(sim.Cancel(cancelled));
  EXPECT_TRUE(sim.Cancel(big_cancelled));
  sim.RunUntilIdle();
  EXPECT_EQ(token.use_count(), 1);  // Every capture destroyed.
}

TEST(Simulator, SameTickCancelDuringDrainIsSafe) {
  // An event cancelling a later event of the SAME tick: the victim's
  // callback (and its resources) must be destroyed during the drain, and
  // must not fire.
  Simulator sim;
  auto token = std::make_shared<int>(1);
  std::vector<int> order;
  EventId victim = kInvalidEventId;
  sim.Schedule(50, [&] {
    order.push_back(0);
    EXPECT_TRUE(sim.Cancel(victim));
    EXPECT_EQ(token.use_count(), 1);  // Victim's capture already gone.
  });
  sim.Schedule(50, [&order] { order.push_back(1); });
  victim = sim.Schedule(50, [&order, t = token] { order.push_back(2); });
  sim.Schedule(50, [&order] { order.push_back(3); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 3}));
  EXPECT_EQ(sim.NumPending(), 0u);
}

TEST(Simulator, FiredSlotReuseDoesNotAliasOldId) {
  // A callback rescheduling into the slot it just vacated must get a fresh
  // generation: cancelling the fired id must miss, not kill the new event.
  Simulator sim;
  int fired = 0;
  EventId first = kInvalidEventId;
  first = sim.Schedule(10, [&] { sim.ScheduleAfter(10, [&fired] { ++fired; }); });
  sim.Run(15);
  EXPECT_FALSE(sim.Cancel(first));  // Already fired; must not hit the new event.
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, NumPendingIsExactUnderCancellation) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) ids.push_back(sim.ScheduleAfter(i + 1, [] {}));
  EXPECT_EQ(sim.NumPending(), 100u);
  for (int i = 0; i < 100; i += 2) {
    EXPECT_TRUE(sim.Cancel(ids[static_cast<std::size_t>(i)]));
  }
  EXPECT_EQ(sim.NumPending(), 50u);  // Immediately, not lazily at pop.
  sim.RunUntilIdle();
  EXPECT_EQ(sim.NumPending(), 0u);
  EXPECT_EQ(sim.NumProcessed(), 50u);
}

// ------------------------------------------- differential vs a reference ---

/// The queue contract written the obvious way: a (time, seq)-ordered map.
/// Ids are seqs (from 1, so kInvalidEventId is never issued).
class ReferenceQueue {
 public:
  SimTime Now() const { return now_; }
  std::size_t NumPending() const { return queue_.size(); }
  /// What the arena must hold: the pending high-water mark in whole chunks.
  std::size_t ArenaSlots() const { return (peak_ + 255) / 256 * 256; }

  EventId Schedule(SimTime at, std::function<void()> fn) {
    const Key key{std::max(at, now_), next_seq_++};
    queue_.emplace(key, std::move(fn));
    keys_.emplace(key.second, key);
    peak_ = std::max(peak_, queue_.size());
    return key.second;
  }

  bool Cancel(EventId id) {
    const auto it = keys_.find(id);
    if (it == keys_.end()) return false;
    queue_.erase(it->second);
    keys_.erase(it);
    return true;
  }

  void Run(SimTime until) {
    Fire(until);
    if (!stopped_) now_ = std::max(now_, until);
  }
  void RunUntilIdle() { Fire(std::numeric_limits<SimTime>::max()); }
  void Stop() { stopped_ = true; }

 private:
  using Key = std::pair<SimTime, std::uint64_t>;

  void Fire(SimTime until) {
    stopped_ = false;
    while (!stopped_ && !queue_.empty() &&
           queue_.begin()->first.first <= until) {
      auto node = queue_.extract(queue_.begin());
      keys_.erase(node.key().second);
      now_ = node.key().first;
      node.mapped()();
    }
  }

  std::map<Key, std::function<void()>> queue_;
  std::map<EventId, Key> keys_;
  std::uint64_t next_seq_ = 1;
  std::size_t peak_ = 0;
  SimTime now_ = 0;
  bool stopped_ = false;
};

/// One entry of a runner's history: an event firing, or a cancel's result.
struct Record {
  char what;  // 'f' fired, 'c' cancelled, 'm' cancel missed.
  std::uint64_t tag;
  SimTime now;
  bool operator==(const Record&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Record& r) {
  return os << r.what << " tag " << r.tag << " at " << r.now;
}

/// Keeps times far from overflow however many wide delays a run draws.
constexpr SimTime kHorizon = SimTime{1} << 62;

/// A delay of up to 20 random bits, and one time in 16 of up to 60, so
/// every wheel level gets events while time stays well short of kHorizon.
SimTime DrawDelay(std::uint64_t bits, std::uint64_t width) {
  const std::uint64_t w = (width >> 4) % ((width & 15) == 0 ? 61 : 21);
  return static_cast<SimTime>(bits & ((std::uint64_t{1} << w) - 1));
}

std::uint64_t Mix(std::uint64_t x) {  // SplitMix64's finalizer.
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Top-level operations, drawn once and applied to both queues.
enum class OpKind {
  kSchedule,
  kPast,
  kBurst,
  kCancel,
  kCancelNeverIssued,
  kRun,
  kRunUntilIdle,
};
struct Op {
  OpKind kind;
  SimTime delay;
  int count;
  std::uint64_t pick;
};

Op DrawOp(std::mt19937_64& rng) {
  const std::uint64_t r = rng();
  const std::uint64_t bits = rng();
  Op op{OpKind::kSchedule, DrawDelay(bits, rng()),
        2 + static_cast<int>((r >> 8) % 63), r >> 16};
  const int roll = static_cast<int>(r % 100);
  if (roll < 35) {
    op.kind = OpKind::kSchedule;
  } else if (roll < 38) {
    op.kind = OpKind::kPast;
  } else if (roll < 50) {
    op.kind = OpKind::kBurst;
  } else if (roll < 65) {
    op.kind = OpKind::kCancel;
  } else if (roll < 68) {
    op.kind = OpKind::kCancelNeverIssued;
  } else if (roll < 98) {
    op.kind = OpKind::kRun;
  } else {
    op.kind = OpKind::kRunUntilIdle;
  }
  return op;
}

/// Runs one queue through the drawn ops.  Every choice comes from an op or
/// from a hash of the firing event's tag, never from the queue itself, so
/// two queues that keep the contract record identical histories.
template <typename Queue>
class QueueRunner {
 public:
  explicit QueueRunner(std::uint64_t salt) : salt_(salt) {}
  QueueRunner(const QueueRunner&) = delete;
  QueueRunner& operator=(const QueueRunner&) = delete;

  Queue queue;
  std::vector<Record> history;

  void Apply(const Op& op) {
    switch (op.kind) {
      case OpKind::kSchedule: Add(Later(op.delay)); break;
      case OpKind::kPast: Add(queue.Now() - op.delay % 1000); break;
      case OpKind::kBurst: {
        const SimTime at = Later(op.delay);
        for (int i = 0; i < op.count; ++i) Add(at);
        break;
      }
      case OpKind::kCancel:
        if (!ids_.empty()) CancelTag(op.pick % ids_.size());
        break;
      case OpKind::kCancelNeverIssued:
        // Past any arena, and the invalid id: both must miss.
        Log(queue.Cancel((EventId{1} << 32) | 0xffffff) ? 'c' : 'm', 0);
        Log(queue.Cancel(kInvalidEventId) ? 'c' : 'm', 0);
        break;
      case OpKind::kRun: queue.Run(Later(op.delay)); break;
      case OpKind::kRunUntilIdle: queue.RunUntilIdle(); break;
    }
  }

 private:
  static constexpr std::size_t kMaxEvents = 40000;

  SimTime Later(SimTime delay) const {
    const SimTime now = queue.Now();
    return now + (now > kHorizon - delay ? delay % 4096 : delay);
  }

  void Add(SimTime at) {
    const std::uint64_t tag = ids_.size();
    ids_.push_back(queue.Schedule(at, [this, tag] { OnFire(tag); }));
  }

  void CancelTag(std::uint64_t tag) {
    if (tag >= ids_.size()) return;  // Not issued yet.
    Log(queue.Cancel(ids_[tag]) ? 'c' : 'm', tag);
  }

  void Log(char what, std::uint64_t tag) {
    history.push_back({what, tag, queue.Now()});
  }

  void OnFire(std::uint64_t tag) {
    Log('f', tag);
    const std::uint64_t h = Mix(tag ^ salt_);
    if (ids_.size() < kMaxEvents) {
      switch (h & 7) {
        case 0: Add(queue.Now()); break;  // Joins the draining tick.
        case 1: Add(queue.Now() + static_cast<SimTime>((h >> 8) & 255)); break;
        case 2: Add(Later(DrawDelay(Mix(h), h >> 8))); break;
        default: break;
      }
    }
    // Neighbouring tags are often this tick's: pending in the drain
    // (forward) or fired already (backward).
    const std::uint64_t step = 1 + ((h >> 24) & 3);
    switch ((h >> 3) & 7) {
      case 0: CancelTag(tag + step); break;
      case 1:
        if (tag >= step) CancelTag(tag - step);
        break;
      default: break;
    }
    if (((h >> 32) & 31) == 0) queue.Stop();
  }

  std::uint64_t salt_;
  std::vector<EventId> ids_;  ///< By tag.
};

TEST(Simulator, MatchesReferenceQueueUnderRandomWorkload) {
  // Random schedules at every wheel level, same-tick bursts, cancels of
  // pending, draining-tick, fired and never-issued ids, schedules and
  // stops from inside callbacks, and Run boundaries mixed with
  // RunUntilIdle: after every operation the wheel must have fired the same
  // events in the same order as the reference, and agree on Now(),
  // NumPending() and the arena's high-water mark.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    QueueRunner<Simulator> wheel(seed);
    QueueRunner<ReferenceQueue> reference(seed);
    std::size_t checked = 0;
    for (int step = 0; step < 3000; ++step) {
      const Op op = DrawOp(rng);
      wheel.Apply(op);
      reference.Apply(op);
      ASSERT_EQ(wheel.history.size(), reference.history.size())
          << "step " << step;
      for (; checked < wheel.history.size(); ++checked) {
        ASSERT_EQ(wheel.history[checked], reference.history[checked])
            << "step " << step;
      }
      ASSERT_EQ(wheel.queue.Now(), reference.queue.Now()) << "step " << step;
      ASSERT_EQ(wheel.queue.NumPending(), reference.queue.NumPending())
          << "step " << step;
      ASSERT_EQ(wheel.queue.ArenaSlots(), reference.queue.ArenaSlots())
          << "step " << step;
    }
  }
}

// ------------------------------------------------------------ propagation -

TEST(Propagation, PathLossGrowsWithDistance) {
  const PropagationModel model;
  EXPECT_DOUBLE_EQ(model.PathLossDb(1.0), 28.0);
  EXPECT_NEAR(model.PathLossDb(10.0), 28.0 + 22.0, 1e-9);
  EXPECT_NEAR(model.PathLossDb(100.0), 28.0 + 44.0, 1e-9);
  // Near-field clamp.
  EXPECT_DOUBLE_EQ(model.PathLossDb(0.1), 28.0);
}

TEST(Propagation, ReceivedPowerAndDistance) {
  const PropagationModel model;
  const Position a{0.0, 0.0}, b{300.0, 400.0};
  EXPECT_DOUBLE_EQ(Distance(a, b), 500.0);
  EXPECT_NEAR(model.ReceivedPower(16.0, a, b),
              16.0 - model.PathLossDb(500.0), 1e-9);
}

TEST(Propagation, UhfRangeExceedsOneKilometer) {
  // The paper expects communication ranges beyond 1 km in UHF; with the
  // default model a 16 dBm transmitter at 1 km is still >10 dB above the
  // 20 MHz noise floor.
  const PropagationModel model;
  const Dbm rx = model.ReceivedPower(16.0, 1000.0);
  EXPECT_GT(rx - NoiseFloorDbm(20.0), 10.0);
}

TEST(Propagation, NoiseFloorScalesWithWidth) {
  EXPECT_DOUBLE_EQ(NoiseFloorDbm(20.0), -101.0);
  EXPECT_NEAR(NoiseFloorDbm(10.0), -104.0, 0.02);
  EXPECT_NEAR(NoiseFloorDbm(5.0), -107.0, 0.03);
}

}  // namespace
}  // namespace whitefi
