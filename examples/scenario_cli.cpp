// scenario_cli — a small research tool: run one WhiteFi scenario and print
// what happened.
//
// Every run is a scenario description (the QualNet-style files of
// examples/configs/; see bench/scenario_file.h): the --config FILE, or an
// empty one.  Each scenario flag sets the key it names, overriding the
// file, before the description loads — so map, background and city draws
// follow --seed:
//
//   --seed N        seed                 --static W      network.static_width
//   --seconds S     seconds              --background N  background.pairs
//   --map NAME      map.name             --ipd MS        background.ipd_ms
//   --clients N     network.clients      --mic TV        mic.tv_channel
//                                        --mic-at S      mic.on_s
//
// A description with [city] keys runs on the sharded engine; any other is
// the standard cell of bench::RunScenario.
//
// The command line is parsed by bench/flags.h, as in the bench drivers:
// every flag takes `--flag VALUE` or `--flag=VALUE`, and a number is
// checked whole (no trailing garbage, finite, in range) before any run.
//
// Usage:
//   scenario_cli [--config FILE] [scenario flags] [--strict] [--audit]
//                [--audit-budget-ms M] [--verbose] [output flags]
//     --strict            unknown keys in the file are errors, not warnings
//     --audit             run under the invariant auditor
//     --audit-budget-ms M incumbent-safety budget override
//   scenario_cli --config CITY.conf [--shards N] ...
//                                     (min(N, tiles) worker threads;
//                                      output is byte-identical for every
//                                      N — the count is an execution
//                                      knob, never part of the science)
//   scenario_cli --replay BUNDLE [--minimize OUT]
//                                     (re-run a fuzz repro bundle and check
//                                      the violation reproduces exactly;
//                                      --minimize shrinks it first and
//                                      writes the result to OUT)
//
// Output flags (single-cell runs only):
//   --metrics           print the metrics snapshot (counters + histograms)
//   --metrics-csv FILE  write the snapshot as CSV
//   --metrics-json FILE write the snapshot as JSON
//   --trace             print the event trace after the run, one line per
//                       record; without --trace-only it records only
//                       channel_switch, chirp, incumbent_on and
//                       incumbent_off, in every trace output
//   --trace-json FILE   write a Chrome trace-event file (chrome://tracing)
//   --trace-jsonl FILE  write raw structured events, one JSON per line
//   --trace-only K,K    record only the named event kinds (e.g.
//                       span_begin,span_end,state_enter)
//   --timeline-csv FILE write per-node protocol-state intervals as CSV
//   --profile           print wall-clock cost per simulation phase
//
// Exit codes: 0 success (for --replay: the violation reproduced exactly;
// for --audit: no invariant violated), 1 runtime failure / violation found
// / replay divergence / a scenario that cannot be built (e.g. an unknown
// map.name, a negative seed, a non-positive seconds) / an output file
// (every FILE above, and --minimize OUT) that cannot be written, which is
// then not announced, 2 configuration error: a bad flag or value, or a
// flag the run cannot honour (a scenario flag whose key the loader never
// reads, an output flag on a city or a replay, --shards without a city,
// --minimize without --replay), each as `error: FLAG...`; a malformed
// file or an unknown key under --strict, as `config error: FILE line N:
// ...`.  A description value, from the file or a flag, keeps one rule
// (bench/scenario_file.h): text that is not a number exits 2, a number
// the key cannot take exits 1 naming the key.  Scripts rely on the 1-vs-2
// distinction to tell a broken scenario file from a simulation that
// failed.
//
// Examples:
//   scenario_cli --map building5 --clients 3 --mic 28 --mic-at 5 --trace
//   scenario_cli --map campus --background 12 --ipd 30 --static 20
//   scenario_cli --config ../examples/configs/busy_campus.conf --metrics
//   scenario_cli --config ../examples/configs/mic_outage.conf --seed 9
#include <algorithm>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/whitefi.h"
#include "flags.h"
#include "fuzz.h"
#include "scenario_file.h"

using namespace whitefi;

namespace {

/// What a run is.  Each flag works in a set of modes.
enum Mode : unsigned { kCell = 1, kCity = 2, kReplay = 4 };

/// A scenario flag as given: the description key it sets, and the value.
struct KeySetting {
  std::string_view flag;
  std::string key;
  std::string value;
};

struct Options {
  /// The run modes that honour each flag.
  std::map<std::string_view, unsigned> modes;
  /// The flags given, by name.
  std::set<std::string_view> given;
  /// The scenario flags given, in command-line order.
  std::vector<KeySetting> settings;
  bool help = false;
  bool verbose = false;
  std::string config_file;  ///< Empty: start from an empty description.
  /// Unknown keys (typos) reject the file instead of only printing a
  /// warning.
  bool strict = false;
  /// Run under the invariant auditor.
  bool audit = false;
  /// Incumbent-safety budget override in ms, set as audit.safety_budget_ms
  /// (0 = no override).
  int audit_budget_ms = 0;
  /// City runs: worker threads for the shard engine.  Purely an execution
  /// knob — results are byte-identical for any value.
  int shards = 1;
  std::string replay_bundle;  ///< Non-empty: replay mode.
  std::string minimize_out;   ///< Replay mode: minimize first, write here.

  // Observability outputs.
  bool metrics = false;
  std::string metrics_csv;
  std::string metrics_json;
  bool trace = false;       ///< Print the event trace after the run.
  std::string trace_json;   ///< Chrome trace-event format.
  std::string trace_jsonl;  ///< Raw JSONL records.
  /// Kind filter for the event trace (--trace-only a,b,c); empty = all.
  std::vector<TraceEventKind> trace_only;
  std::string timeline_csv;  ///< Protocol-state intervals as CSV.
  bool profile = false;
};

/// Parses argv into `o` through bench::ParseFlags, which exits 2 on a flag
/// or value it cannot use.  A scenario flag's value is checked here, so a
/// bad one names the flag, and set on the description in Run.
void ParseOptions(int argc, char** argv, Options& o) {
  const auto setting = [&o](std::string_view name, std::string key,
                            auto check) -> bench::Flag {
    return {name, [&o, name, key, check](const std::string& value) {
              check(name, value);
              o.settings.push_back({name, key, value});
            }};
  };
  const auto integer = [](std::string_view flag, std::string_view value) {
    bench::FlagValue<long long>(flag, value);
  };
  const auto real = [](std::string_view flag, std::string_view value) {
    bench::FlagValue<double>(flag, value);
  };
  const auto text = [](std::string_view, std::string_view) {};
  const bench::Flag trace_only{
      "--trace-only", [&o](const std::string& value) {
        std::istringstream list(value);
        for (std::string name; std::getline(list, name, ',');) {
          if (name.empty()) continue;
          const auto kind = ParseTraceEventKind(name);
          if (!kind) {
            throw std::invalid_argument("--trace-only: unknown event kind '" +
                                        name + "'");
          }
          o.trace_only.push_back(*kind);
        }
        if (o.trace_only.empty()) {
          throw std::invalid_argument("--trace-only: empty kind list");
        }
      }};
  const std::vector<std::pair<unsigned, std::vector<bench::Flag>>> table{
      {kCell | kCity,
       {setting("--seed", "seed", integer),
        setting("--seconds", "seconds", real),
        setting("--map", "map.name", text),
        setting("--clients", "network.clients", integer),
        setting("--static", "network.static_width", integer),
        setting("--background", "background.pairs", integer),
        setting("--ipd", "background.ipd_ms", integer),
        setting("--mic", "mic.tv_channel", integer),
        setting("--mic-at", "mic.on_s", real),
        bench::Text("--config", o.config_file),
        bench::Switch("--strict", o.strict),
        bench::Switch("--audit", o.audit),
        bench::Number("--audit-budget-ms", o.audit_budget_ms, 0)}},
      {kCity, {bench::Number("--shards", o.shards, 1)}},
      {kReplay,
       {bench::Text("--replay", o.replay_bundle),
        bench::Text("--minimize", o.minimize_out)}},
      {kCell | kCity | kReplay,
       {bench::Switch("--verbose", o.verbose),
        bench::Switch("--help", o.help), bench::Switch("-h", o.help)}},
      {kCell,
       {bench::Switch("--metrics", o.metrics),
        bench::Text("--metrics-csv", o.metrics_csv),
        bench::Text("--metrics-json", o.metrics_json),
        bench::Switch("--trace", o.trace),
        bench::Text("--trace-json", o.trace_json),
        bench::Text("--trace-jsonl", o.trace_jsonl), trace_only,
        bench::Text("--timeline-csv", o.timeline_csv),
        bench::Switch("--profile", o.profile)}},
  };
  std::vector<bench::Flag> flags;
  for (const auto& [modes, group] : table) {
    for (const bench::Flag& flag : group) {
      o.modes[flag.name] = modes;
      flags.push_back(flag);
    }
  }
  o.given = bench::ParseFlags(argc, argv, flags);
}

/// Owns the observability sinks for one CLI run and renders the outputs.
struct ObsSession {
  MetricsRegistry registry;
  EventTrace events;
  PhaseProfiler profiler;
  StateTimeline timeline;
  const Options& options;

  static EventTraceOptions TraceOptions(const Options& opts) {
    EventTraceOptions trace_options;
    trace_options.only = opts.trace_only;
    if (opts.trace && trace_options.only.empty()) {
      // The recovery story without the per-frame chatter.
      trace_options.only = {
          TraceEventKind::kChannelSwitch, TraceEventKind::kChirp,
          TraceEventKind::kIncumbentOn, TraceEventKind::kIncumbentOff};
    }
    return trace_options;
  }

  explicit ObsSession(const Options& opts)
      : events(TraceOptions(opts)), options(opts) {
    // Pre-register the cold-path metrics so every snapshot contains them
    // (a quiet run shows zeros instead of missing rows).  Hot-path metrics
    // (per-frame-type tx/rx/drop, MAC retries) register at wiring time.
    registry.GetCounter("whitefi.node.channel_switches");
    registry.GetCounter("whitefi.discovery.probes");
    registry.GetCounter("whitefi.scanner.dwells");
    registry.GetCounter("whitefi.sift.detections");
    registry.GetHistogram("whitefi.sift.detect_latency_us");
    registry.GetCounter("whitefi.client.disconnects");
    registry.GetCounter("whitefi.client.chirps");
    registry.GetCounter("whitefi.ap.chirps_heard");
    registry.GetCounter("whitefi.ap.switches");
    registry.GetCounter("whitefi.ap.voluntary_switches");
    registry.GetCounter("whitefi.ap.reverts");
  }

  bool Tracing() const {
    return options.trace || !options.trace_json.empty() ||
           !options.trace_jsonl.empty();
  }

  bool Wanted() const {
    return options.metrics || !options.metrics_csv.empty() ||
           !options.metrics_json.empty() || Tracing() ||
           !options.timeline_csv.empty() || options.profile;
  }

  Observability Sinks() {
    Observability obs;
    obs.metrics = &registry;
    if (Tracing()) obs.trace = &events;
    if (!options.timeline_csv.empty()) obs.timeline = &timeline;
    if (options.profile) obs.profiler = &profiler;
    return obs;
  }

  /// Writes `path`, when one was given, through bench::WriteOutput and
  /// announces it; false when it could not be written.
  static bool WriteFile(const std::string& what, const std::string& path,
                        const std::function<void(std::ostream&)>& write) {
    if (path.empty()) return true;
    if (!bench::WriteOutput(what, path, write)) return false;
    std::cout << what << " written to " << path << "\n";
    return true;
  }

  /// Prints and writes the requested outputs; false when a file could not
  /// be written (the rest are then skipped).
  bool WriteOutputs(double sim_seconds) {
    if (options.trace) {
      std::cout << "\ntrace:\n";
      for (const TraceEvent& e : events.events()) {
        std::cout << "t=" << FormatDouble(ToSeconds(e.at_us), 6) << "  "
                  << (e.node < 0 ? "world" : "node " + std::to_string(e.node))
                  << "  " << TraceEventKindName(e.kind) << "  " << e.detail
                  << "\n";
      }
    }
    if (options.metrics) {
      std::cout << "\nmetrics:\n" << registry.Snapshot().ToText();
    }
    if (!options.timeline_csv.empty()) {
      timeline.Close(static_cast<std::int64_t>(sim_seconds * kTicksPerSec));
    }
    const std::string num_events =
        " (" + std::to_string(events.events().size()) + " events)";
    const bool written =
        WriteFile("metrics csv", options.metrics_csv,
                  [&](std::ostream& os) {
                    os << registry.Snapshot().ToCsv();
                  }) &&
        WriteFile("metrics json", options.metrics_json,
                  [&](std::ostream& os) {
                    os << registry.Snapshot().ToJson() << "\n";
                  }) &&
        WriteFile("chrome trace" + num_events, options.trace_json,
                  [&](std::ostream& os) { events.WriteChromeTrace(os); }) &&
        WriteFile("event trace" + num_events, options.trace_jsonl,
                  [&](std::ostream& os) { events.WriteJsonl(os); }) &&
        WriteFile("state timeline (" +
                      std::to_string(timeline.intervals().size()) +
                      " intervals)",
                  options.timeline_csv, [&](std::ostream& os) {
                    os << "node,state,begin_us,end_us,duration_us\n";
                    for (const StateInterval& iv : timeline.intervals()) {
                      os << iv.node << "," << iv.state << "," << iv.begin_us
                         << "," << iv.end_us << "," << iv.DurationUs()
                         << "\n";
                    }
                  });
    if (!written) return false;
    if (options.profile) {
      std::cout << "\nphase profile:\n" << profiler.ToString(sim_seconds);
    }
    return true;
  }
};

/// Rejects, naming it, a flag given that `mode` cannot honour.
void CheckFlags(const Options& options, Mode mode) {
  for (std::string_view name : options.given) {
    if ((options.modes.at(name) & mode) != 0) continue;
    const char* what = mode == kCell   ? "a single-cell scenario"
                       : mode == kCity ? "a [city] scenario"
                                       : "--replay";
    bench::FlagError(std::string(name) + " cannot be used with " + what);
  }
}

/// A scenario flag whose key the loader never read is a configuration
/// error naming the flag.  The file's own unread keys (typos) warn by
/// default and reject the file under --strict.
void ReportUnusedKeys(const Options& options, const ConfigFile& config) {
  const std::vector<std::string> unknown = config.UnconsumedKeys();
  for (const KeySetting& setting : options.settings) {
    if (std::find(unknown.begin(), unknown.end(), setting.key) !=
        unknown.end()) {
      bench::FlagError(std::string(setting.flag) +
                       ": this scenario never reads " + setting.key);
    }
  }
  if (unknown.empty()) return;
  if (options.strict) {
    throw ConfigError("unknown key '" + unknown.front() + "'",
                      config.source(), config.LineOf(unknown.front()));
  }
  for (const std::string& key : unknown) {
    std::cerr << "warning: " << options.config_file << " line "
              << config.LineOf(key) << ": unknown key '" << key
              << "' (ignored)\n";
  }
}

/// City-scale run ([city] keys): run the sharded federation and print its
/// deterministic summary.  The summary is byte-identical for every
/// --shards value — CI diffs it across counts.
int RunCity(const Options& options, const ConfigFile& config) {
  CheckFlags(options, kCity);
  bench::CityScenario scenario = bench::LoadCityScenario(config);
  scenario.engine.shards = options.shards;
  if (options.audit) scenario.engine.audit = true;
  ReportUnusedKeys(options, config);
  shard::ShardEngine engine(scenario.city, scenario.engine);
  // Shard count goes to stderr: stdout must be byte-identical across
  // --shards values so scripts can diff it directly.
  std::cout << "city scenario " << options.config_file << ": "
            << engine.NumTiles() << " tiles, "
            << engine.layout().cells.size() << " cells\n";
  std::cerr << "shards: " << engine.workers() << " worker thread(s)\n";
  engine.Run(scenario.seconds);
  std::cout << engine.SummaryText();
  if (scenario.engine.audit) {
    if (engine.audit_ok()) {
      std::cout << "audit: all invariants held\n";
    } else {
      std::cout << "audit: " << engine.audit_violations()
                << " violation(s)\n";
      return 1;
    }
  }
  return 0;
}

/// Single-cell run: the standard cell of bench::RunScenario.
int RunCell(const Options& options, const ConfigFile& config) {
  CheckFlags(options, kCell);
  bench::ScenarioConfig scenario = bench::LoadScenario(config);
  // The auditor knobs are part of the scenario vocabulary whether or not
  // --audit is on (a repro bundle run under plain --config must not warn
  // about its own audit.* keys).
  const AuditConfig audit_config = bench::LoadAuditConfig(config);
  (void)bench::BundleExpectation(config);  // expect.* is vocabulary too.
  // Surface keys no loader consumed: silently-ignored typos waste whole
  // experiment runs.
  ReportUnusedKeys(options, config);
  std::cout << "scenario "
            << (options.config_file.empty() ? "from flags"
                                             : options.config_file)
            << ": map " << scenario.base_map.ToString() << ", "
            << scenario.num_clients << " clients, "
            << scenario.background.size() << " background pairs, "
            << scenario.mics.size() << " mic(s)\n";
  ObsSession obs(options);
  if (obs.Wanted()) scenario.obs = obs.Sinks();
  InvariantAuditor auditor(audit_config);
  if (options.audit) scenario.auditor = &auditor;
  const bench::RunResult result = bench::RunScenario(scenario);
  std::cout << "per-client throughput: "
            << FormatDouble(result.per_client_mbps, 2) << " Mbps\n"
            << "switches: " << result.switches
            << ", disconnect events: " << result.disconnects;
  if (result.max_outage_s > 0.0) {
    std::cout << ", worst outage " << FormatDouble(result.max_outage_s, 2)
              << " s";
  }
  if (result.faults_injected > 0) {
    std::cout << ", faults injected " << result.faults_injected;
  }
  std::cout << "\nfinal channel: " << result.final_channel.ToString() << "\n";
  if (scenario.geodb.enabled) {
    std::cout << "geodb: " << result.geodb_queries << " queries ("
              << result.geodb_shed << " shed), " << result.geodb_pushes
              << " pushes, " << result.geodb_degraded << " degraded / "
              << result.geodb_recovered << " recovered transitions\n";
  }
  if (obs.Wanted() &&
      !obs.WriteOutputs(scenario.warmup_s + scenario.measure_s)) {
    return 1;
  }
  if (options.audit) {
    if (auditor.ok()) {
      std::cout << "audit: all invariants held (safety budget "
                << auditor.safety_budget() / kTicksPerMs << " ms)\n";
    } else {
      std::cout << "audit: " << auditor.violation_count()
                << " violation(s); first: "
                << auditor.first_violation()->ToString() << "\n";
      return 1;
    }
  }
  return 0;
}

/// Builds the description — the file or an empty one, then the scenario
/// flags' keys — and runs it as a city or a single cell.
int Run(const Options& options) {
  ConfigFile config;
  if (!options.config_file.empty()) {
    config = ConfigFile::Load(options.config_file);
  }
  for (const KeySetting& setting : options.settings) {
    config.Set(setting.key, setting.value);
  }
  // A budget of 0 keeps the description's own.
  if (options.audit_budget_ms > 0) {
    config.Set("audit.safety_budget_ms",
               std::to_string(options.audit_budget_ms));
  }
  return bench::IsCityScenario(config) ? RunCity(options, config)
                                       : RunCell(options, config);
}

/// --replay: re-run a repro bundle and verify the recorded violation
/// reproduces field-for-field.  With --minimize, shrink the bundle first
/// and replay the minimized version.
int RunReplay(const Options& options) {
  CheckFlags(options, kReplay);
  std::ifstream in(options.replay_bundle);
  if (!in.good()) {
    throw ConfigError("cannot read bundle", options.replay_bundle, 0);
  }
  std::string bundle((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
  if (!options.minimize_out.empty()) {
    int steps = 0;
    bundle = bench::MinimizeBundle(bundle, &steps);
    if (!bench::WriteOutput("minimized bundle", options.minimize_out,
                            [&](std::ostream& os) { os << bundle; })) {
      return 1;
    }
    std::cout << "minimized bundle (" << steps << " reductions accepted) -> "
              << options.minimize_out << "\n";
  }
  const bench::ReplayOutcome outcome = bench::ReplayBundleText(bundle);
  std::cout << "replay " << options.replay_bundle << ": " << outcome.message
            << "\n";
  return outcome.reproduced ? 0 : 1;
}

}  // namespace

// Exit codes: 0 success, 1 runtime failure, 2 configuration error (bad
// config file or bad flags) — so scripts can tell a broken scenario file
// from a simulation that failed.
constexpr int kExitRuntimeError = 1;
constexpr int kExitConfigError = 2;

int main(int argc, char** argv) {
  Options options;
  ParseOptions(argc, argv, options);
  if (options.help) {
    std::cout << "usage: scenario_cli [--config FILE] [--seed N] "
                 "[--seconds S] [--map NAME] [--clients N] "
                 "[--static 5|10|20] [--background N] [--ipd MS] "
                 "[--mic TV] [--mic-at S] [--strict] [--audit] "
                 "[--audit-budget-ms M] [--shards N] [--verbose] "
                 "[--metrics] [--metrics-csv FILE] [--metrics-json FILE] "
                 "[--trace] [--trace-json FILE] [--trace-jsonl FILE] "
                 "[--trace-only K,K,...] [--timeline-csv FILE] "
                 "[--profile]\n"
                 "       scenario_cli --replay BUNDLE [--minimize OUT]\n"
                 "every flag takes its value as --flag VALUE or "
                 "--flag=VALUE; scenario flags set the description key "
                 "they name; a flag the run cannot honour exits 2\n"
                 "exit codes: 0 success / reproduced / invariants held, "
                 "1 runtime failure / violation / divergence / unwritable "
                 "output, 2 configuration error\n";
    return 0;
  }
  try {
    if (options.verbose) SetLogLevel(LogLevel::kInfo);
    return options.replay_bundle.empty() ? Run(options) : RunReplay(options);
  } catch (const ConfigError& e) {
    // Carries file and line, e.g. "scenario.conf line 12: unknown key".
    std::cerr << "config error: " << e.what() << "\n";
    return kExitConfigError;
  } catch (const std::invalid_argument& e) {
    // The city generator refuses a layout it cannot build.
    std::cerr << "config error: " << e.what() << "\n";
    return kExitConfigError;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitRuntimeError;
  }
}
