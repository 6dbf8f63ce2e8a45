// Pins the event engine's zero-steady-state-allocation contract: once the
// arena and the drain scratch are warm, the schedule/fire cycle must not
// touch the heap, whichever wheel buckets it lands in (DESIGN.md §10).
// Global operator new/delete are replaced with counting versions; the
// warmed cycle must leave the count untouched.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "sim/events.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace whitefi {
namespace {

/// One batch of the steady-state workload: 512 inline-stored timers spread
/// over a 256-tick horizon, drained to idle.  Advances Now() by exactly
/// 256 ticks — one full level-0 wheel window — per call, so every call
/// replays identical tick loads.
void Cycle(Simulator& sim) {
  for (int i = 0; i < 512; ++i) {
    sim.ScheduleAfter((i * 7919) % 256 + 1, [] {});
  }
  sim.RunUntilIdle();
}

TEST(SimulatorAlloc, SteadyStateScheduleFireIsAllocationFree) {
  Simulator sim;
  // The first cycle warms all the cycle can grow: the arena chunks and
  // the drain scratch.  Buckets are list heads with no storage to warm;
  // the remaining cycles sweep the cursor across every level-1 bucket and
  // over the level-2 window crossing at 65536, and the measured cycles
  // continue past tick 102400 into level-1 buckets already visited.
  for (int i = 0; i < 400; ++i) Cycle(sim);

  const std::size_t before = g_allocations.load();
  for (int i = 0; i < 8; ++i) Cycle(sim);
  const std::size_t after = g_allocations.load();

  EXPECT_EQ(after, before) << "steady-state schedule/fire allocated";
  EXPECT_EQ(sim.NumPending(), 0u);
  EXPECT_EQ(sim.NumProcessed(), 408u * 512u);
}

TEST(SimulatorAlloc, CancelChurnIsAllocationFreeWhenWarm) {
  Simulator sim;
  std::vector<EventId> timers(256, kInvalidEventId);
  const auto Churn = [&] {
    for (int rearm = 0; rearm < 4; ++rearm) {
      for (std::size_t i = 0; i < timers.size(); ++i) {
        sim.Cancel(timers[i]);
        timers[i] = sim.ScheduleAfter(static_cast<SimTime>(i * 31 % 256 + 1),
                                      [] {});
      }
    }
    sim.RunUntilIdle();
  };
  for (int i = 0; i < 400; ++i) Churn();

  const std::size_t before = g_allocations.load();
  for (int i = 0; i < 8; ++i) Churn();
  EXPECT_EQ(g_allocations.load(), before)
      << "warm schedule/cancel churn allocated";
}

TEST(SimulatorAlloc, FreshBucketOnEveryLevelIsAllocationFree) {
  Simulator sim;
  // Warm only the arena and the drain scratch: 64 events in one tick.
  for (int i = 0; i < 64; ++i) sim.Schedule(1, [] {});
  sim.RunUntilIdle();

  // Eight events at each of 0x03, 0x0303, ..., 0x0303030303030303: each
  // time's highest byte past the cursor picks level 0 to 7, and each
  // lands in bucket 3 of its level, which no event has used before, then
  // cascades down through bucket 3 of every lower level to fire.
  const std::size_t before = g_allocations.load();
  SimTime at = 0;
  for (int level = 0; level < 8; ++level) {
    at = (at << 8) | 3;
    for (int i = 0; i < 8; ++i) sim.Schedule(at, [] {});
  }
  sim.RunUntilIdle();
  EXPECT_EQ(g_allocations.load(), before) << "a fresh wheel bucket allocated";
  EXPECT_EQ(sim.NumProcessed(), 128u);
  EXPECT_EQ(sim.Now(), at);
}

}  // namespace
}  // namespace whitefi
