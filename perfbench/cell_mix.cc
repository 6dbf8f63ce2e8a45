// cell_mix: the scenario_cli --config path over the six shipped
// single-cell configs.  The sim engine, MAC and medium, MCham with vacate
// and chirping, fault injection, the geo-db service and the auditor do
// the work; shard and sift do none.

#include <algorithm>
#include <array>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "fuzz.h"
#include "scenario.h"
#include "scenario_file.h"
#include "util/config.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using whitefi::AuditConfig;
using whitefi::ConfigFile;
using whitefi::InvariantAuditor;
using whitefi::MetricsRegistry;
using whitefi::PhaseProfiler;
using whitefi::SimTime;
using whitefi::World;
namespace bench = whitefi::bench;

constexpr std::array<const char*, 6> kConfigs = {
    "busy_campus",  "mic_outage",       "chaos_storm",
    "geodb_outage", "geodb_push_storm", "geodb_mobility"};
constexpr const char* kConfigDir = "examples/configs/";
// Run time depends on each run's draws (storms, venues, waypoints); 20
// seeds per config keep that seed-to-seed share of run_s spread small.
constexpr int kSeedsPerConfig = 20;
constexpr int kQuickSeedsPerConfig = 1;
/// Loading takes a few ms, so a process takes the median of many.
constexpr int kSetupReps = 21;

struct Description {
  std::string name;
  std::string text;
};

struct AuditedScenario {
  std::string name;
  std::uint64_t seed = 0;
  bench::ScenarioConfig config;
  AuditConfig audit;
};

std::vector<Description> ReadDescriptions() {
  std::vector<Description> out;
  for (const char* name : kConfigs) {
    const std::string path = std::string(kConfigDir) + name + ".conf";
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read " + path);
    std::ostringstream text;
    text << in.rdbuf();
    out.push_back({name, text.str()});
  }
  return out;
}

/// The set-up: reads, parses and loads every run's description.
/// LoadScenario draws the map and background from the file's seed, so
/// the run seed enters through the parser: a trailing "[]" returns to the
/// top level and the last value of a key wins.
std::vector<AuditedScenario> LoadAll(std::uint64_t seed, int per_config) {
  const std::vector<Description> files = ReadDescriptions();
  std::vector<AuditedScenario> runs;
  for (const Description& file : files) {
    for (int i = 0; i < per_config; ++i) {
      AuditedScenario run;
      run.name = file.name;
      // Config integers are signed 64-bit.
      run.seed = whitefi::DeriveSeed(seed, "perfbench.cell_mix." + file.name +
                                               "." + std::to_string(i)) >>
                 1;
      const ConfigFile config = ConfigFile::ParseString(
          file.text + "\n[]\nseed = " + std::to_string(run.seed) + "\n");
      run.config = bench::LoadScenario(config);
      run.audit = bench::LoadAuditConfig(config);
      runs.push_back(std::move(run));
    }
  }
  return runs;
}

/// Everything one pass produced.
struct Pass {
  double run_s = 0.0;
  OutputHash hash;
  std::uint64_t failed = 0;
  std::uint64_t violations = 0;
  std::uint64_t switches = 0;
  std::uint64_t faults = 0;
  std::uint64_t geodb_recovered = 0;
  std::uint64_t geodb_queries = 0;
  std::uint64_t geodb_shed = 0;
  std::uint64_t events = 0;
  std::uint64_t arena_slots = 0;
  std::map<std::string, std::uint64_t> counters;
};

/// Runs every scenario once.  The metrics registry is attached in every
/// pass because the chirp count of the output check lives there; a
/// traced pass adds the phase profiler, a span per RunScenario call and
/// an end-of-run probe event that reads the engine's counters.
Pass RunPass(const std::vector<AuditedScenario>& runs, SpanLog& spans,
             PhaseProfiler* profiler) {
  Pass pass;
  MetricsRegistry metrics;
  const int root = spans.Begin("cell_mix.pass");
  const Clock::time_point start = Clock::now();
  for (const AuditedScenario& run : runs) {
    bench::ScenarioConfig config = run.config;
    InvariantAuditor auditor(run.audit);
    config.auditor = &auditor;
    config.obs.metrics = &metrics;
    config.obs.profiler = profiler;
    if (profiler != nullptr) {
      // RunScenario advances warmup then measure; the probe fires at the
      // last tick, before events scheduled later for that same tick.
      const SimTime end =
          static_cast<SimTime>(config.warmup_s * whitefi::kTicksPerSec) +
          static_cast<SimTime>(config.measure_s * whitefi::kTicksPerSec);
      config.customize = [&pass, end](World& world) {
        world.sim().Schedule(end, [&pass, &world] {
          pass.events += world.sim().NumProcessed();
          pass.arena_slots = std::max<std::uint64_t>(
              pass.arena_slots, world.sim().ArenaSlots());
        });
      };
    }
    const int span = spans.Begin("scenario.run." + run.name, root);
    const bench::RunResult r = bench::RunScenario(config);
    spans.End(span);

    OutputHash& h = pass.hash;
    h.Add(run.name);
    h.Add(run.seed);
    h.Add(r.per_client_mbps);
    h.Add(r.aggregate_mbps);
    h.Add(r.switches);
    h.Add(r.disconnects);
    h.Add(r.max_outage_s);
    h.Add(static_cast<std::uint64_t>(r.outages_s.size()));
    for (const double outage : r.outages_s) h.Add(outage);
    h.Add(r.faults_injected);
    h.Add(r.final_channel.ToString());
    h.Add(r.geodb_degraded);
    h.Add(r.geodb_recovered);
    h.Add(r.geodb_queries);
    h.Add(r.geodb_shed);
    h.Add(r.geodb_pushes);
    h.Add(auditor.violation_count());

    pass.failed += auditor.ok() ? 0 : 1;
    pass.violations += auditor.violation_count();
    pass.switches += static_cast<std::uint64_t>(r.switches);
    pass.faults += r.faults_injected;
    pass.geodb_recovered += static_cast<std::uint64_t>(r.geodb_recovered);
    pass.geodb_queries += r.geodb_queries;
    pass.geodb_shed += r.geodb_shed;
  }
  pass.run_s = SecondsSince(start);
  spans.End(root);
  for (const auto& entry : metrics.Snapshot().counters) {
    pass.counters[entry.name] = entry.value;
  }
  return pass;
}

double PhaseMeanUs(const PhaseProfiler& profiler, const std::string& phase) {
  const auto it = profiler.phases().find(phase);
  if (it == profiler.phases().end() || it->second.count == 0) return 0.0;
  return it->second.total_us / static_cast<double>(it->second.count);
}

}  // namespace

Outcome RunCellMix(const Options& options) {
  const int per_config =
      options.quick ? kQuickSeedsPerConfig : kSeedsPerConfig;

  std::vector<double> setup_s;
  std::vector<AuditedScenario> runs;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point start = Clock::now();
    runs = LoadAll(options.seed, per_config);
    setup_s.push_back(SecondsSince(start));
  }

  Outcome out;
  SpanLog untraced(false);
  const Pass pass = RunPass(runs, untraced, nullptr);
  out.hash = pass.hash.Hex();
  out.attempted = runs.size();
  out.failed = pass.failed;
  out.coverage = {
      {"cell_mix.switch", pass.switches >= 1},
      {"cell_mix.chirp",
       CounterValue(pass.counters, "whitefi.client.chirps") >= 1},
      {"cell_mix.fault_injected", pass.faults >= 1},
      {"cell_mix.geodb_recovered", pass.geodb_recovered >= 1},
  };
  if (!options.trace) {
    out.metrics["run_s"] = {pass.run_s, "s"};
    out.metrics["setup_s"] = {Median(setup_s), "s"};
    out.metrics["peak_rss_mb"] = {PeakRssMiB(), "MiB"};
    return out;
  }

  SpanLog spans(true);
  PhaseProfiler profiler;
  const Pass t = RunPass(runs, spans, &profiler);
  out.repeatable = t.hash.Hex() == out.hash;
  if (!options.spans_path.empty()) spans.Write(options.spans_path);

  const auto counter = [&t](const char* name) {
    return static_cast<double>(CounterValue(t.counters, name));
  };
  const double queries = static_cast<double>(t.geodb_queries);
  auto& m = out.metrics;
  m["sim.events"] = {static_cast<double>(t.events), "count"};
  m["sim.events_per_host_s"] = {t.events / pass.run_s, "1/s"};
  m["sim.arena_slots"] = {static_cast<double>(t.arena_slots), "count"};
  m["sim.medium_deliver_us_mean"] = {PhaseMeanUs(profiler, "medium.deliver"),
                                     "us"};
  m["core.mcham_evaluate_us_mean"] = {PhaseMeanUs(profiler, "mcham.evaluate"),
                                      "us"};
  m.merge(CounterMetrics(t.counters));
  m["geodb.queries"] = {queries, "count"};
  m["geodb.shed_share"] = {Share(static_cast<double>(t.geodb_shed), queries),
                           "ratio"};
  m["geodb.refresh_failure_share"] = {
      Share(counter("whitefi.geodb.refresh_failures"), queries), "ratio"};
  m["geodb.push_applied_share"] = {
      Share(counter("whitefi.geodb.push_applied"),
            counter("whitefi.geodb.pushes")),
      "ratio"};
  m["fault.injected"] = {static_cast<double>(t.faults), "count"};
  m["audit.violations"] = {static_cast<double>(t.violations), "count"};
  m["audit.cells_failed"] = {static_cast<double>(t.failed), "count"};
  m["scenario.load_ms"] = {1e3 * Median(setup_s), "ms"};
  m["obs.overhead_share"] = {t.run_s / pass.run_s - 1.0, "ratio"};
  return out;
}

}  // namespace perfbench
