// city_serial and city_parallel: one generated city (perfbench/city.conf)
// advanced through shard::ShardEngine one horizon round per Run call, on
// one worker or on several.  Both must print the same output hash: the
// worker count only maps tiles onto threads.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "fuzz.h"
#include "scenario_file.h"
#include "shard/audit_fanout.h"
#include "shard/engine.h"
#include "util/config.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using whitefi::ConfigFile;
using whitefi::SimTime;
using whitefi::shard::ShardEngine;
namespace bench = whitefi::bench;

constexpr const char* kCityFile = "perfbench/city.conf";
/// The benchmark's own tests run a seconds-long city: the same
/// description with these keys overridden (the last value of a key wins).
constexpr const char* kQuickOverrides =
    "\n[]\nseconds = 1\n"
    "[city]\nwidth_m = 8400\nheight_m = 8400\naps = 36\n"
    "mics = 2\nmic_start_s = 0.2\nmic_period_s = 0.3\nmic_duration_s = 0.5\n"
    "roams = 3\nroam_start_s = 0.2\nroam_period_s = 0.2\n";
/// Set-up takes ~12 ms and the first one in a process also faults its
/// memory in, so it is timed this many times besides once for the pass.
constexpr int kSetupReps = 9;

/// One constructed engine and what building it cost.
struct Built {
  std::unique_ptr<ShardEngine> engine;
  double seconds = 0.0;  ///< Simulated span of the run.
  double load_s = 0.0;
  double build_s = 0.0;
};

std::string ReadCityFile(bool quick) {
  std::ifstream in(kCityFile);
  if (!in) throw std::runtime_error(std::string("cannot read ") + kCityFile);
  std::ostringstream text;
  text << in.rdbuf();
  return quick ? text.str() + kQuickOverrides : text.str();
}

/// The set-up: read, parse and load the description with the benchmark
/// seed, then construct the engine (GenerateCity plus every tile world).
Built Build(bool quick, std::uint64_t seed, int workers, SpanLog& spans) {
  Built built;
  const int setup = spans.Begin("city.setup");
  const int load = spans.Begin("scenario.load", setup);
  const Clock::time_point start = Clock::now();
  // Config integers are signed 64-bit.
  const std::uint64_t city_seed =
      whitefi::DeriveSeed(seed, "perfbench.city") >> 1;
  const ConfigFile config = ConfigFile::ParseString(
      ReadCityFile(quick) + "\n[]\nseed = " + std::to_string(city_seed) +
      "\n");
  bench::CityScenario scenario = bench::LoadCityScenario(config);
  scenario.engine.audit_config = bench::LoadAuditConfig(config);
  scenario.engine.shards = workers;
  if (!scenario.engine.audit) {
    throw std::runtime_error(std::string(kCityFile) +
                             " must set [shards] audit = true");
  }
  built.seconds = scenario.seconds;
  built.load_s = SecondsSince(start);
  spans.End(load);
  const int build = spans.Begin("shard.engine_build", setup);
  const Clock::time_point build_start = Clock::now();
  built.engine = std::make_unique<ShardEngine>(scenario.city, scenario.engine);
  built.build_s = SecondsSince(build_start);
  spans.End(build);
  spans.End(setup);
  return built;
}

/// Everything one pass produced.
struct Pass {
  double load_s = 0.0;
  double build_s = 0.0;
  double run_s = 0.0;
  OutputHash hash;
  std::uint64_t cells = 0;
  std::uint64_t failed = 0;
  std::uint64_t violations = 0;
  std::uint64_t roams_applied = 0;
  std::uint64_t roams_planned = 0;
  std::uint64_t mics_fired = 0;
  std::uint64_t mics_planned = 0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t ghosts = 0;
  std::uint64_t transmissions = 0;
  std::uint64_t events = 0;
  std::uint64_t arena_slots = 0;
  /// Traced pass only: host seconds of each Run call, and per round the
  /// events of the busiest tile.
  std::vector<double> round_s;
  std::uint64_t critical_events = 0;
  std::vector<std::uint64_t> tile_events;
  std::map<std::string, std::uint64_t> counters;
};

struct ScheduledMic {
  SimTime on = 0;
  SimTime off = 0;
  whitefi::UhfIndex channel = 0;
  int tile = 0;
  bool fired = false;
};

Pass RunPass(bool quick, std::uint64_t seed, int workers, SpanLog& spans) {
  Pass pass;
  Built built = Build(quick, seed, workers, spans);
  ShardEngine& engine = *built.engine;
  pass.load_s = built.load_s;
  pass.build_s = built.build_s;

  const auto& layout = engine.layout();
  std::vector<ScheduledMic> mics;
  for (std::size_t m = 0; m < layout.mics.size(); ++m) {
    mics.push_back({whitefi::ToTicks(layout.mics[m].on_time),
                    whitefi::ToTicks(layout.mics[m].off_time),
                    layout.mics[m].channel, layout.mic_tile[m], false});
  }
  const int tiles = engine.NumTiles();
  std::vector<std::uint64_t> before(static_cast<std::size_t>(tiles), 0);

  const SimTime end = std::llround(built.seconds * whitefi::kTicksPerSec);
  const int root = spans.Begin("city.run");
  const Clock::time_point start = Clock::now();
  while (engine.Now() < end) {
    const SimTime step = std::min(engine.horizon(), end - engine.Now());
    const int round = spans.Begin("shard.round", root);
    engine.Run(static_cast<double>(step) / whitefi::kTicksPerSec);
    if (spans.enabled()) {
      pass.round_s.push_back(spans.End(round));
      std::uint64_t busiest = 0;
      for (int t = 0; t < tiles; ++t) {
        const std::uint64_t now = engine.tile_world(t).sim().NumProcessed();
        busiest = std::max(busiest, now - before[static_cast<std::size_t>(t)]);
        before[static_cast<std::size_t>(t)] = now;
      }
      pass.critical_events += busiest;
    }
    // A mic fired when its tile's world reports it on at a barrier inside
    // its window.
    for (ScheduledMic& mic : mics) {
      if (!mic.fired && mic.on <= engine.Now() && engine.Now() < mic.off) {
        mic.fired = engine.tile_world(mic.tile).MicActiveNow(mic.channel);
      }
    }
  }
  pass.run_s = SecondsSince(start);
  spans.End(root);

  pass.hash.Add(engine.SummaryText());
  for (int t = 0; t < tiles; ++t) {
    whitefi::World& world = engine.tile_world(t);
    const auto* fanout =
        dynamic_cast<const whitefi::shard::AuditFanout*>(world.obs().auditor);
    if (fanout == nullptr) throw std::runtime_error("city tile not audited");
    for (const auto& auditor : fanout->auditors()) {
      ++pass.cells;
      pass.failed += auditor->ok() ? 0 : 1;
    }
    pass.arena_slots += world.sim().ArenaSlots();
    pass.tile_events.push_back(world.sim().NumProcessed());
  }
  pass.violations = engine.audit_violations();
  pass.roams_applied = engine.roams_applied();
  pass.roams_planned = layout.roams.size();
  pass.mics_planned = mics.size();
  for (const ScheduledMic& mic : mics) pass.mics_fired += mic.fired ? 1 : 0;
  pass.rounds = engine.rounds();
  pass.messages = engine.messages_shipped();
  pass.ghosts = engine.ghosts_injected();
  pass.transmissions = engine.Transmissions();
  pass.events = engine.EventsProcessed();
  pass.counters = engine.MergedCounters();
  return pass;
}

}  // namespace

Outcome RunCity(const Options& options, int workers) {
  std::vector<double> setup_s;
  std::vector<double> load_ms;
  std::vector<double> build_ms;
  const auto record_setup = [&](double load_s, double build_s) {
    setup_s.push_back(load_s + build_s);
    load_ms.push_back(1e3 * load_s);
    build_ms.push_back(1e3 * build_s);
  };
  SpanLog untraced(false);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Built built = Build(options.quick, options.seed, workers, untraced);
    record_setup(built.load_s, built.build_s);
  }

  Outcome out;
  const Pass pass = RunPass(options.quick, options.seed, workers, untraced);
  record_setup(pass.load_s, pass.build_s);
  out.hash = pass.hash.Hex();
  out.attempted = pass.cells;
  out.failed = pass.failed;
  out.coverage = {
      {"city.every_mic_fired",
       pass.mics_planned > 0 && pass.mics_fired == pass.mics_planned},
      {"city.every_roam_applied",
       pass.roams_planned > 0 && pass.roams_applied == pass.roams_planned},
  };
  if (!options.trace) {
    out.metrics["run_s"] = {pass.run_s, "s"};
    out.metrics["setup_s"] = {Median(setup_s), "s"};
    out.metrics["peak_rss_mb"] = {PeakRssMiB(), "MiB"};
    return out;
  }

  SpanLog spans(true);
  const Pass t = RunPass(options.quick, options.seed, workers, spans);
  out.repeatable = t.hash.Hex() == out.hash;
  std::vector<double> rounds_ms;
  for (const double s : t.round_s) rounds_ms.push_back(1e3 * s);
  if (!options.spans_path.empty()) spans.Write(options.spans_path);

  const double events = static_cast<double>(t.events);
  const double mean_tile_events =
      events / static_cast<double>(t.tile_events.size());
  const Distribution rounds = Summarize(rounds_ms);
  auto& m = out.metrics;
  m["shard.round_ms_p50"] = {rounds.median, "ms"};
  m["shard.round_ms_tail"] = {rounds.tail, "ms"};
  m["shard.round_tail_percentile"] = {rounds.tail_percentile, "%"};
  m["shard.round_samples"] = {static_cast<double>(rounds.samples), "count"};
  m["shard.messages_per_round"] = {
      Share(static_cast<double>(t.messages), static_cast<double>(t.rounds)),
      "count"};
  m["shard.ghosts_per_local_tx"] = {
      Share(static_cast<double>(t.ghosts),
            static_cast<double>(t.transmissions - t.ghosts)),
      "ratio"};
  m["shard.critical_path_share"] = {
      Share(static_cast<double>(t.critical_events), events), "ratio"};
  m["shard.tile_event_imbalance"] = {
      Share(static_cast<double>(*std::max_element(t.tile_events.begin(),
                                                  t.tile_events.end())),
            mean_tile_events),
      "ratio"};
  m["shard.engine_build_ms"] = {Median(build_ms), "ms"};
  m["shard.roams_applied"] = {static_cast<double>(t.roams_applied), "count"};
  m["shard.mics_fired"] = {static_cast<double>(t.mics_fired), "count"};
  m["sim.events"] = {events, "count"};
  m["sim.events_per_host_s"] = {events / pass.run_s, "1/s"};
  m["sim.arena_slots"] = {static_cast<double>(t.arena_slots), "count"};
  m.merge(CounterMetrics(t.counters));
  m["audit.violations"] = {static_cast<double>(t.violations), "count"};
  m["audit.cells_failed"] = {static_cast<double>(t.failed), "count"};
  m["scenario.load_ms"] = {Median(load_ms), "ms"};
  m["obs.overhead_share"] = {t.run_s / pass.run_s - 1.0, "ratio"};
  return out;
}

}  // namespace perfbench
