// Tests for the deterministic parallel trial runner (util/parallel) and
// its byte-identity contract: any --jobs N produces the same results as
// the serial loop, because Rngs are forked before dispatch and results
// are collected in index order.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "flags.h"
#include "scenario.h"
#include "spectrum/campus.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace whitefi {
namespace {

using std::chrono::seconds;

// Runs `body` on a thread of its own and waits at most `limit` for it, so
// a pool that deadlocks fails its test instead of hanging the suite.  On
// a timeout the thread is abandoned with whatever its captures own; the
// bodies below hold their pool and counters through shared_ptr for that
// reason.
bool FinishesWithin(seconds limit, std::function<void()> body) {
  auto finished = std::make_shared<std::promise<void>>();
  std::future<void> done = finished->get_future();
  std::thread runner([body = std::move(body), finished] {
    body();
    finished->set_value();
  });
  if (done.wait_for(limit) != std::future_status::ready) {
    runner.detach();
    return false;
  }
  runner.join();
  return true;
}

constexpr seconds kHangLimit{30};

// Per-index hit counters.
using Hits = std::vector<std::atomic<int>>;

void ExpectEachOnce(const Hits& hits, const std::string& what) {
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << what << " index " << i;
  }
}

// Threads in this process, or -1 where /proc/self/status is unavailable.
int ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      int threads = -1;
      status >> threads;
      return threads;
    }
  }
  return -1;
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (int jobs : {1, 2, 4, 8}) {
    std::vector<std::atomic<int>> hits(257);
    ParallelFor(jobs, hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " jobs " << jobs;
    }
  }
}

TEST(ParallelFor, ZeroTasksIsANoop) {
  int calls = 0;
  ParallelFor(4, 0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelMap, ResultsArriveInIndexOrder) {
  for (int jobs : {1, 3, 7}) {
    const auto out = ParallelMap(jobs, std::size_t{100},
                                 [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
  }
}

TEST(ParallelMap, PreForkedRngsMatchSerialAtAnyJobCount) {
  // The canonical trial-loop shape: fork one Rng per trial serially, then
  // let each trial consume its own stream.  The draws must not depend on
  // the job count.
  auto run = [](int jobs) {
    Rng master(42);
    std::vector<Rng> rngs;
    for (int t = 0; t < 37; ++t) rngs.push_back(master.Fork());
    return ParallelMap(jobs, rngs.size(), [&](std::size_t i) {
      double acc = 0.0;
      for (int d = 0; d < 100; ++d) acc += rngs[i].Uniform(0.0, 1.0);
      return acc;
    });
  };
  const auto serial = run(1);
  for (int jobs : {2, 4, 8}) {
    const auto parallel = run(jobs);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i], parallel[i]) << "trial " << i << " jobs " << jobs;
    }
  }
}

TEST(ParallelFor, PropagatesTheFirstException) {
  for (int jobs : {1, 4}) {
    EXPECT_THROW(
        ParallelFor(jobs, 16,
                    [](std::size_t i) {
                      if (i == 7) throw std::runtime_error("trial 7 failed");
                    }),
        std::runtime_error)
        << "jobs " << jobs;
  }
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.jobs(), 4);
  for (int batch = 0; batch < 3; ++batch) {
    std::vector<std::atomic<int>> hits(64);
    pool.Run(hits.size(), [&](std::size_t i) { ++hits[i]; });
    const int total = std::accumulate(
        hits.begin(), hits.end(), 0,
        [](int acc, const std::atomic<int>& h) { return acc + h.load(); });
    EXPECT_EQ(total, 64);
  }
}

TEST(ThreadPool, IndexZeroRunsOnTheCallingThread) {
  ThreadPool pool(4);
  for (int batch = 0; batch < 50; ++batch) {
    std::thread::id zero;
    pool.Run(9, [&](std::size_t i) {
      if (i == 0) zero = std::this_thread::get_id();
    });
    EXPECT_EQ(zero, std::this_thread::get_id()) << "batch " << batch;
  }
}

TEST(ThreadPool, InPoolTaskHoldsInsideRunOnly) {
  EXPECT_FALSE(InPoolTask());
  ThreadPool pool(4);
  Hits inside(32);
  pool.Run(inside.size(), [&](std::size_t i) { inside[i] = InPoolTask(); });
  for (std::size_t i = 0; i < inside.size(); ++i) {
    EXPECT_EQ(inside[i].load(), 1) << "index " << i;
  }
  EXPECT_FALSE(InPoolTask());
  // A one-thread pool is the plain serial loop: not "inside".
  ThreadPool serial(1);
  bool flagged = true;
  serial.Run(1, [&](std::size_t) { flagged = InPoolTask(); });
  EXPECT_FALSE(flagged);
}

TEST(ThreadPool, RunFromInsideItsOwnTaskVisitsEveryIndexOnce) {
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 16;
  auto pool = std::make_shared<ThreadPool>(4);
  auto outer = std::make_shared<Hits>(kOuter);
  auto inner = std::make_shared<Hits>(kOuter * kInner);
  auto inline_inner = std::make_shared<std::atomic<int>>(0);
  ASSERT_TRUE(FinishesWithin(kHangLimit, [pool, outer, inner, inline_inner] {
    pool->Run(kOuter, [&](std::size_t i) {
      ++(*outer)[i];
      const std::thread::id task_thread = std::this_thread::get_id();
      pool->Run(kInner, [&](std::size_t j) {
        ++(*inner)[i * kInner + j];
        if (std::this_thread::get_id() == task_thread) ++*inline_inner;
      });
    });
  })) << "a Run nested in its own pool's task hung";
  ExpectEachOnce(*outer, "outer");
  ExpectEachOnce(*inner, "inner");
  // The nested batches ran inline, on their task's thread.
  EXPECT_EQ(inline_inner->load(), static_cast<int>(kOuter * kInner));
}

TEST(ThreadPool, ConcurrentCallersEachCompleteTheirOwnIndicesOnce) {
  struct Shared {
    ThreadPool pool{4};
    Hits first = Hits(64);
    Hits second = Hits(64);
    std::atomic<bool> first_in_flight{false};
    std::atomic<bool> second_done{false};
    std::atomic<int> free_runs{0};
  };
  auto shared = std::make_shared<Shared>();
  ASSERT_TRUE(FinishesWithin(kHangLimit, [shared] {
    Shared& s = *shared;
    // The first caller's batch stays in flight until the second caller's
    // Run on the same pool has returned (or 5 s pass), so the two calls
    // overlap every time.
    std::thread first([&] {
      s.pool.Run(s.first.size(), [&](std::size_t i) {
        ++s.first[i];
        s.first_in_flight = true;
        const auto give_up = std::chrono::steady_clock::now() + seconds(5);
        while (!s.second_done && std::chrono::steady_clock::now() < give_up) {
          std::this_thread::yield();
        }
      });
    });
    while (!s.first_in_flight) std::this_thread::yield();
    std::thread second([&] {
      s.pool.Run(s.second.size(), [&](std::size_t i) { ++s.second[i]; });
      s.second_done = true;
    });
    first.join();
    second.join();
    // Then unsynchronized: two callers racing batch after batch.
    const auto race = [&] {
      for (int round = 0; round < 200; ++round) {
        std::atomic<int> hits{0};
        s.pool.Run(16, [&](std::size_t) { ++hits; });
        if (hits == 16) ++s.free_runs;
      }
    };
    std::thread a(race);
    std::thread b(race);
    a.join();
    b.join();
  })) << "two callers on one pool hung";
  ExpectEachOnce(shared->first, "first caller");
  ExpectEachOnce(shared->second, "second caller");
  EXPECT_EQ(shared->free_runs.load(), 400);
}

TEST(ParallelFor, InsideAPoolTaskBuildsNoPool) {
  if (ProcessThreads() < 0) GTEST_SKIP() << "no /proc/self/status";
  constexpr std::size_t kOuter = 2;
  constexpr std::size_t kInner = 8;
  struct Shared {
    ThreadPool pool{2};
    Hits hits = Hits(kOuter * kInner);
    int before = 0;
    std::atomic<int> most{0};
  };
  auto shared = std::make_shared<Shared>();
  ASSERT_TRUE(FinishesWithin(kHangLimit, [shared] {
    Shared& s = *shared;
    s.before = ProcessThreads();
    s.pool.Run(kOuter, [&](std::size_t i) {
      ParallelFor(4, kInner, [&](std::size_t j) {
        ++s.hits[i * kInner + j];
        int seen = ProcessThreads();
        int most = s.most;
        while (seen > most && !s.most.compare_exchange_weak(most, seen)) {
        }
      });
    });
  })) << "ParallelFor inside a pool task hung";
  ExpectEachOnce(shared->hits, "inner");
  // No thread was started while the nested loops ran.
  EXPECT_EQ(shared->most.load(), shared->before);
}

#ifdef __linux__
TEST(HardwareJobs, CountsTheCallingThreadsAffinityMask) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(HardwareJobs(), CPU_COUNT(&saved));
  int cpu = 0;
  while (!CPU_ISSET(cpu, &saved)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const int pinned = HardwareJobs();
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(pinned, 1);
}
#endif

TEST(ParseJobs, ParsesCountsAndRejectsGarbage) {
  EXPECT_EQ(ParseJobs("1"), 1);
  EXPECT_EQ(ParseJobs("12"), 12);
  EXPECT_EQ(ParseJobs("0"), HardwareJobs());
  EXPECT_GE(HardwareJobs(), 1);
  EXPECT_THROW(ParseJobs("abc"), std::invalid_argument);
  EXPECT_THROW(ParseJobs("-3"), std::invalid_argument);
}

/// Runs JobsFromArgs over `args` (argv[0] is supplied).
int JobsFrom(std::vector<std::string> args,
             std::string* trace_jsonl = nullptr) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return bench::JobsFromArgs(static_cast<int>(argv.size()), argv.data(),
                             trace_jsonl);
}

TEST(BenchFlags, ReadJobsAndTheFlagsADriverNames) {
  EXPECT_EQ(JobsFrom({}), 1);
  EXPECT_EQ(JobsFrom({"--jobs", "3"}), 3);
  EXPECT_EQ(JobsFrom({"--jobs=2"}), 2);
  std::string trace;
  EXPECT_EQ(JobsFrom({"--trace-jsonl", "t.jsonl", "--jobs", "4"}, &trace), 4);
  EXPECT_EQ(trace, "t.jsonl");
}

TEST(BenchFlagsDeathTest, AFlagTheDriverDoesNotReadExitsTwo) {
  EXPECT_EXIT(JobsFrom({"--detector", "scalar"}),
              ::testing::ExitedWithCode(2), "unknown argument '--detector'");
  EXPECT_EXIT(JobsFrom({"--detectr=scalar"}), ::testing::ExitedWithCode(2),
              "--detectr=scalar");
  EXPECT_EXIT(JobsFrom({"--trace-jsonl", "t.jsonl"}),
              ::testing::ExitedWithCode(2), "--trace-jsonl");
  EXPECT_EXIT(JobsFrom({"--jobs"}), ::testing::ExitedWithCode(2),
              "--jobs needs a value");
}

/// Runs ParseFlags over `args` (argv[0] is supplied) against `flags`.
std::set<std::string_view> ParseFrom(std::vector<std::string> args,
                                     const std::vector<bench::Flag>& flags) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return bench::ParseFlags(static_cast<int>(argv.size()), argv.data(), flags);
}

TEST(BenchFlags, TableTakesBothFormsSwitchesListsAndBounds) {
  int seeds = 20;
  int trials = 10;
  bool geodb = false;
  bool minimize = true;
  std::vector<int> counts{1};
  std::string out;
  const std::vector<bench::Flag> flags{
      bench::Number("--seeds", seeds, 0), bench::Number("--trials", trials, 1),
      bench::Switch("--geodb", geodb),
      bench::Switch("--no-minimize", minimize, false),
      bench::List("--sweep", counts, 1), bench::Text("--out", out)};
  const auto given = ParseFrom(
      {"--seeds=0", "--geodb", "--sweep", "1,4,8", "--out=a=b.bundle"}, flags);
  EXPECT_EQ(seeds, 0);  // The lower bound is inclusive.
  EXPECT_EQ(trials, 10);
  EXPECT_TRUE(geodb);
  EXPECT_TRUE(minimize);
  EXPECT_EQ(counts, (std::vector<int>{1, 4, 8}));
  EXPECT_EQ(out, "a=b.bundle");
  EXPECT_EQ(given, (std::set<std::string_view>{"--seeds", "--geodb",
                                               "--sweep", "--out"}));
  ParseFrom({"--trials", "1", "--no-minimize", "--sweep=2"}, flags);
  EXPECT_EQ(trials, 1);
  EXPECT_FALSE(minimize);
  EXPECT_EQ(counts, (std::vector<int>{2}));
}

TEST(BenchFlags, SeedsTakeTheFullUnsignedRange) {
  std::uint64_t seed = 1;
  double seconds = 3.0;
  const std::vector<bench::Flag> flags{bench::Number("--seed", seed),
                                       bench::Number("--seconds", seconds)};
  ParseFrom({"--seed", "18446744073709551615", "--seconds=0.2"}, flags);
  EXPECT_EQ(seed, 18446744073709551615ULL);
  EXPECT_EQ(seconds, 0.2);
}

TEST(BenchFlagsDeathTest, AnUnusableValueExitsTwoNamingFlagAndValue) {
  int seeds = 20;
  std::uint64_t seed = 1;
  double seconds = 3.0;
  bool geodb = false;
  std::vector<int> counts;
  const std::vector<bench::Flag> flags{
      bench::Number("--seeds", seeds, 0), bench::Number("--seed", seed),
      bench::Number("--seconds", seconds), bench::Switch("--geodb", geodb),
      bench::List("--sweep", counts, 1)};
  const auto exits_two = ::testing::ExitedWithCode(2);
  EXPECT_EXIT(ParseFrom({"--seeds", "2x"}, flags), exits_two,
              "--seeds: expected an integer >= 0, got '2x'");
  EXPECT_EXIT(ParseFrom({"--seeds=-1"}, flags), exits_two,
              "--seeds: expected an integer >= 0, got '-1'");
  EXPECT_EXIT(ParseFrom({"--seed", "-1"}, flags), exits_two,
              "--seed: expected an unsigned integer, got '-1'");
  EXPECT_EXIT(ParseFrom({"--seeds", "2147483648"}, flags), exits_two,
              "--seeds: '2147483648' is out of range");
  EXPECT_EXIT(ParseFrom({"--seed", "18446744073709551616"}, flags), exits_two,
              "--seed: '18446744073709551616' is out of range");
  EXPECT_EXIT(ParseFrom({"--seconds", "inf"}, flags), exits_two,
              "--seconds: expected a number, got 'inf'");
  EXPECT_EXIT(ParseFrom({"--sweep", "1,0"}, flags), exits_two,
              "--sweep: expected an integer >= 1, got '0'");
  EXPECT_EXIT(ParseFrom({"--sweep", "1,,4"}, flags), exits_two,
              "--sweep: expected an integer >= 1, got ''");
  EXPECT_EXIT(ParseFrom({"--geodb=1"}, flags), exits_two,
              "unknown argument '--geodb=1'");
  EXPECT_EXIT(ParseFrom({"--sedes", "3"}, flags), exits_two,
              "unknown argument '--sedes'");
}

// The end-to-end contract at the scenario layer: an OPT candidate sweep —
// the hot loop the bench drivers parallelize — returns bit-equal
// throughput at jobs=4 and jobs=1.
TEST(ScenarioParallel, OptSweepIsJobCountInvariant) {
  bench::ScenarioConfig config;
  config.seed = 7;
  config.base_map = CampusSimulationMap();
  config.num_clients = 2;
  config.warmup_s = 0.5;
  config.measure_s = 1.0;
  const double serial =
      bench::OptStaticThroughput(config, ChannelWidth::kW10, 0.0, 1);
  const double parallel =
      bench::OptStaticThroughput(config, ChannelWidth::kW10, 0.0, 4);
  EXPECT_EQ(serial, parallel);
  EXPECT_GT(serial, 0.0);
}

}  // namespace
}  // namespace whitefi
