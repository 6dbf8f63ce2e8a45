// google-benchmark micro-benchmarks for the simulator substrate: event
// queue throughput (schedule/fire and schedule/cancel churn), the medium
// fast path under a dense-overlap transmit storm, a saturated CSMA/CA
// cell, a fig13-style mixed multi-cell load, and the spectrum-assignment
// evaluation cost (84 candidate channels per decision).
#include <benchmark/benchmark.h>

#include <array>
#include <vector>

#include "audit/audit.h"
#include "core/assignment.h"
#include "core/discovery.h"
#include "obs/event_trace.h"
#include "obs/state_timeline.h"
#include "sim/traffic.h"
#include "sim/world.h"
#include "spectrum/campus.h"
#include "util/parallel.h"

namespace whitefi {
namespace {

/// Bulk schedule-then-run: 10k timers spread (in shuffled order) over a
/// 100 ms horizon, then drained.  The simulator is reused across
/// iterations — real scenarios construct one engine per run and push
/// millions of events through it, so the per-event cycle, not the
/// constructor, is what this measures.
void BM_EventQueueScheduleRun(benchmark::State& state) {
  Simulator sim;
  for (auto _ : state) {
    const SimTime base = sim.Now();
    for (int i = 0; i < 10000; ++i) {
      sim.Schedule(base + (i * 7919) % 100000, [] {});
    }
    sim.RunUntilIdle();
    benchmark::DoNotOptimize(sim.NumProcessed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10000);
}
BENCHMARK(BM_EventQueueScheduleRun);

/// Steady-state schedule/fire cycle: one simulator reused across the whole
/// run, so slab/heap growth amortizes away and the measured cost is the
/// pure per-event cycle (the regime long soaks live in).
void BM_EventQueueSteadyState(benchmark::State& state) {
  Simulator sim;
  constexpr int kBatch = 4096;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      sim.ScheduleAfter((i * 7919) % 1000 + 1, [] {});
    }
    sim.RunUntilIdle();
  }
  benchmark::DoNotOptimize(sim.NumProcessed());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kBatch);
}
BENCHMARK(BM_EventQueueSteadyState);

/// Timer-heavy protocol pattern: every scheduled timeout is cancelled and
/// re-armed several times before it finally fires (ACK timers, contention
/// timers, chirp watchdogs all behave this way).  Also cancels ids that
/// have already fired — the unbounded-tombstone case of the seed engine.
void BM_EventScheduleCancelChurn(benchmark::State& state) {
  constexpr int kTimers = 2048;
  constexpr int kRearms = 4;
  Simulator sim;
  std::vector<EventId> timers(kTimers, kInvalidEventId);
  for (auto _ : state) {
    for (int rearm = 0; rearm < kRearms; ++rearm) {
      for (int i = 0; i < kTimers; ++i) {
        sim.Cancel(timers[static_cast<std::size_t>(i)]);
        timers[static_cast<std::size_t>(i)] =
            sim.ScheduleAfter((i * 31) % 500 + 1, [] {});
      }
    }
    sim.RunUntilIdle();
    // Cancelling fired ids must be a cheap miss, not a tombstone insert.
    for (const EventId id : timers) sim.Cancel(id);
  }
  benchmark::DoNotOptimize(sim.NumProcessed());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kTimers * kRearms);
}
BENCHMARK(BM_EventScheduleCancelChurn);

/// Medium-level stub: a radio parked on one channel that swallows
/// deliveries, so the measured cost is the medium's own bookkeeping.
class StormRadio : public RadioPort {
 public:
  StormRadio(int id, Position pos, Channel channel)
      : id_(id), pos_(pos), channel_(channel) {}

  int NodeId() const override { return id_; }
  Position Location() const override { return pos_; }
  const Channel& TunedChannel() const override { return channel_; }
  bool IsAp() const override { return false; }
  void DeliverFrame(const Frame&, Dbm) override { ++delivered_; }
  void MediumChanged() override { ++changes_; }

 private:
  int id_;
  Position pos_;
  Channel channel_;
  std::uint64_t delivered_ = 0;
  std::uint64_t changes_ = 0;
};

/// Dense-overlap transmit storm: 30 transmitters (one per UHF channel)
/// plus periodic 20 MHz wideband frames, with frame durations far longer
/// than the inter-start spacing so hundreds of transmissions are on the
/// air at once — the regime where scanning every active transmission per
/// Transmit() goes quadratic in offered load.
void BM_MediumTransmitStorm(benchmark::State& state) {
  constexpr int kTransmissions = 3000;
  constexpr SimTime kSpacing = 10;     // One new frame every 10 us.
  constexpr SimTime kDuration = 3000;  // ~300 concurrently active.
  for (auto _ : state) {
    Simulator sim;
    Medium medium(sim, MediumParams{});
    std::vector<StormRadio> radios;
    radios.reserve(kNumUhfChannels);
    for (UhfIndex c = 0; c < kNumUhfChannels; ++c) {
      radios.emplace_back(c, Position{static_cast<double>(40 * c), 0.0},
                          Channel{c, ChannelWidth::kW5});
    }
    for (StormRadio& radio : radios) medium.Register(&radio);
    Frame frame;
    frame.type = FrameType::kData;
    frame.bytes = 500;
    for (int i = 0; i < kTransmissions; ++i) {
      const UhfIndex c = i % kNumUhfChannels;
      // Every 7th frame is a 20 MHz wideband burst (clamped to a valid
      // center) so the storm also exercises cross-width overlap.
      const Channel channel =
          i % 7 == 0 ? Channel{std::clamp(c, 2, kNumUhfChannels - 3),
                               ChannelWidth::kW20}
                     : Channel{c, ChannelWidth::kW5};
      StormRadio* tx = &radios[static_cast<std::size_t>(c)];
      Frame f = frame;
      f.src = c;
      sim.Schedule(i * kSpacing, [&medium, tx, channel, f] {
        medium.Transmit(tx, channel, f, 16.0, kDuration, nullptr);
      });
    }
    sim.RunUntilIdle();
    benchmark::DoNotOptimize(medium.NumTransmissions());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kTransmissions);
}
BENCHMARK(BM_MediumTransmitStorm);

void BM_SaturatedCellSimSecond(benchmark::State& state) {
  for (auto _ : state) {
    World world;
    DeviceConfig config;
    config.initial_channel = Channel{10, ChannelWidth::kW20};
    config.position = {0, 0};
    Device& a = world.Create<Device>(config);
    config.position = {50, 0};
    Device& b = world.Create<Device>(config);
    SaturatedSource source(a, b.NodeId(), 1000);
    source.Start();
    world.RunFor(1.0);  // One simulated second of saturated traffic.
    benchmark::DoNotOptimize(world.AppBytes(b.NodeId()));
  }
}
BENCHMARK(BM_SaturatedCellSimSecond);

/// The same saturated second with the invariant auditor attached: every
/// transmit feeds the interval-union reference and the periodic sweep
/// cross-checks the medium books.  The acceptance bar is <10% overhead
/// over BM_SaturatedCellSimSecond — the auditor must stay cheap enough to
/// leave on in every soak.
void BM_SaturatedCellSimSecondAudited(benchmark::State& state) {
  for (auto _ : state) {
    InvariantAuditor auditor;
    WorldConfig world_config;
    world_config.obs.auditor = &auditor;
    World world(world_config);
    auditor.Attach(world);
    DeviceConfig config;
    config.initial_channel = Channel{10, ChannelWidth::kW20};
    config.position = {0, 0};
    Device& a = world.Create<Device>(config);
    config.position = {50, 0};
    Device& b = world.Create<Device>(config);
    SaturatedSource source(a, b.NodeId(), 1000);
    source.Start();
    world.RunFor(1.0);
    benchmark::DoNotOptimize(world.AppBytes(b.NodeId()));
    benchmark::DoNotOptimize(auditor.violation_count());
  }
}
BENCHMARK(BM_SaturatedCellSimSecondAudited);

/// The audited saturated second with the flight recorder attached on top:
/// a kind-filtered event trace (protocol-level kinds only, the trace_lens
/// capture profile) plus the state timeline.  Per-frame hot sites take
/// the Wants()-rejected path (exact counting, no record built) on
/// every tx/rx/backoff, which is precisely the cost the ≤5% overhead
/// gate in compare_bench.py --overhead pins against
/// BM_SaturatedCellSimSecondAudited.
void BM_SaturatedCellSimSecondAuditedTraced(benchmark::State& state) {
  for (auto _ : state) {
    InvariantAuditor auditor;
    EventTraceOptions trace_options;
    trace_options.only = {
        TraceEventKind::kSpanBegin,  TraceEventKind::kSpanEnd,
        TraceEventKind::kStateEnter, TraceEventKind::kChirp,
        TraceEventKind::kChannelSwitch, TraceEventKind::kIncumbentOn,
        TraceEventKind::kIncumbentOff,
    };
    EventTrace trace(trace_options);
    StateTimeline timeline;
    WorldConfig world_config;
    world_config.obs.auditor = &auditor;
    world_config.obs.trace = &trace;
    world_config.obs.timeline = &timeline;
    World world(world_config);
    auditor.Attach(world);
    DeviceConfig config;
    config.initial_channel = Channel{10, ChannelWidth::kW20};
    config.position = {0, 0};
    Device& a = world.Create<Device>(config);
    config.position = {50, 0};
    Device& b = world.Create<Device>(config);
    SaturatedSource source(a, b.NodeId(), 1000);
    source.Start();
    world.RunFor(1.0);
    benchmark::DoNotOptimize(world.AppBytes(b.NodeId()));
    benchmark::DoNotOptimize(trace.TotalSeen());
  }
}
BENCHMARK(BM_SaturatedCellSimSecondAuditedTraced);

/// Fig13-style mixed load: one saturated 20 MHz cell plus Markov on/off
/// CBR background pairs spread over the band — the event/medium mix
/// (timers, collisions, cross-channel books) every network-level
/// experiment in the suite is built from.
void BM_MixedLoadSimSecond(benchmark::State& state) {
  for (auto _ : state) {
    World world;
    DeviceConfig cell;
    cell.initial_channel = Channel{10, ChannelWidth::kW20};
    cell.position = {0, 0};
    Device& ap = world.Create<Device>(cell);
    cell.position = {50, 0};
    Device& client = world.Create<Device>(cell);
    SaturatedSource downlink(ap, client.NodeId(), 1000);

    std::vector<std::unique_ptr<MarkovOnOffSource>> backgrounds;
    DeviceConfig bg;
    for (int pair = 0; pair < 10; ++pair) {
      const UhfIndex c = (pair * 3) % kNumUhfChannels;
      bg.initial_channel = Channel{c, ChannelWidth::kW5};
      bg.position = {200.0 + 10.0 * pair, 200.0};
      Device& src = world.Create<Device>(bg);
      bg.position = {200.0 + 10.0 * pair, 250.0};
      Device& dst = world.Create<Device>(bg);
      MarkovOnOffSource::Params markov;
      markov.mean_active = kTicksPerSec / 4;
      markov.mean_passive = kTicksPerSec / 4;
      backgrounds.push_back(std::make_unique<MarkovOnOffSource>(
          src, dst.NodeId(), 500, 25 * kTicksPerMs, markov));
    }
    downlink.Start();
    for (auto& background : backgrounds) background->Start();
    world.RunFor(1.0);
    benchmark::DoNotOptimize(world.AppBytes(client.NodeId()));
  }
}
BENCHMARK(BM_MixedLoadSimSecond);

void BM_AssignmentEvaluation(benchmark::State& state) {
  AssignmentInputs inputs;
  inputs.ap_map = CampusSimulationMap();
  inputs.ap_observation = EmptyBandObservation();
  for (int i = 0; i < 10; ++i) {
    inputs.client_maps.push_back(inputs.ap_map);
    inputs.client_observations.push_back(inputs.ap_observation);
  }
  SpectrumAssigner assigner;
  for (auto _ : state) {
    benchmark::DoNotOptimize(assigner.SelectInitial(inputs));
  }
}
BENCHMARK(BM_AssignmentEvaluation);

void BM_JSiftDiscovery(benchmark::State& state) {
  const SpectrumMap map = CampusSimulationMap();
  const auto usable = map.UsableChannels();
  Rng rng(4);
  for (auto _ : state) {
    AnalyticScanEnvironment env(usable[rng.Index(usable.size())]);
    benchmark::DoNotOptimize(JSiftDiscover(env, map));
  }
}
BENCHMARK(BM_JSiftDiscovery);

/// Dispatch cost of the deterministic trial runner: 64 discovery trials
/// per batch, swept over job counts.  On a single-core host every job
/// count degenerates to the serial loop; the jobs=1 row is the pure
/// function-call overhead either way.
void BM_ParallelDiscoveryTrials(benchmark::State& state) {
  const SpectrumMap map = CampusSimulationMap();
  const auto usable = map.UsableChannels();
  const int jobs = static_cast<int>(state.range(0));
  constexpr std::size_t kTrials = 64;
  for (auto _ : state) {
    const auto elapsed =
        ParallelMap(jobs, kTrials, [&](std::size_t i) {
          AnalyticScanEnvironment env(usable[i % usable.size()]);
          return JSiftDiscover(env, map).elapsed;
        });
    benchmark::DoNotOptimize(elapsed.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTrials));
}
BENCHMARK(BM_ParallelDiscoveryTrials)->Arg(1)->Arg(2)->Arg(4);

}  // namespace
}  // namespace whitefi

// Custom main so JSON reports carry context for bench/compare_bench.py.
int main(int argc, char** argv) {
  benchmark::AddCustomContext("whitefi_trial_runner", "parallel");
  benchmark::AddCustomContext("whitefi_hardware_jobs",
                              std::to_string(whitefi::HardwareJobs()));
#ifdef WHITEFI_BUILD_TYPE
  benchmark::AddCustomContext("whitefi_build_type", WHITEFI_BUILD_TYPE);
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
