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
// map.name), 2 configuration error: bad flags, a malformed file, an
// unknown key under --strict, or a flag the run cannot honour (a scenario
// flag whose key the loader never reads, an output flag on a city or a
// replay, --shards without a city, --minimize without --replay).  Scripts
// rely on the 1-vs-2 distinction to tell a broken scenario file from a
// simulation that failed.
//
// Examples:
//   scenario_cli --map building5 --clients 3 --mic 28 --mic-at 5 --trace
//   scenario_cli --map campus --background 12 --ipd 30 --static 20
//   scenario_cli --config ../examples/configs/busy_campus.conf --metrics
//   scenario_cli --config ../examples/configs/mic_outage.conf --seed 9
#include <algorithm>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "core/whitefi.h"
#include "fuzz.h"
#include "scenario_file.h"

using namespace whitefi;

namespace {

/// What a run is.  Each flag works in a set of modes.
enum Mode : unsigned { kCell = 1, kCity = 2, kReplay = 4 };

/// A command-line flag: the run modes that honour it, the value it takes
/// (numbers are checked at parse time, so a bad one names the flag) and,
/// for a scenario flag, the description key it sets.
struct Flag {
  const char* name;
  unsigned modes;
  enum { kNone, kInt, kReal, kText } type;
  const char* key;
};

constexpr Flag kFlags[] = {
    {"--seed", kCell | kCity, Flag::kInt, "seed"},
    {"--seconds", kCell | kCity, Flag::kReal, "seconds"},
    {"--map", kCell | kCity, Flag::kText, "map.name"},
    {"--clients", kCell | kCity, Flag::kInt, "network.clients"},
    {"--static", kCell | kCity, Flag::kInt, "network.static_width"},
    {"--background", kCell | kCity, Flag::kInt, "background.pairs"},
    {"--ipd", kCell | kCity, Flag::kInt, "background.ipd_ms"},
    {"--mic", kCell | kCity, Flag::kInt, "mic.tv_channel"},
    {"--mic-at", kCell | kCity, Flag::kReal, "mic.on_s"},
    {"--config", kCell | kCity, Flag::kText, nullptr},
    {"--strict", kCell | kCity, Flag::kNone, nullptr},
    {"--audit", kCell | kCity, Flag::kNone, nullptr},
    {"--audit-budget-ms", kCell | kCity, Flag::kInt, nullptr},
    {"--shards", kCity, Flag::kInt, nullptr},
    {"--replay", kReplay, Flag::kText, nullptr},
    {"--minimize", kReplay, Flag::kText, nullptr},
    {"--verbose", kCell | kCity | kReplay, Flag::kNone, nullptr},
    {"--metrics", kCell, Flag::kNone, nullptr},
    {"--metrics-csv", kCell, Flag::kText, nullptr},
    {"--metrics-json", kCell, Flag::kText, nullptr},
    {"--trace", kCell, Flag::kNone, nullptr},
    {"--trace-json", kCell, Flag::kText, nullptr},
    {"--trace-jsonl", kCell, Flag::kText, nullptr},
    {"--trace-only", kCell, Flag::kText, nullptr},
    {"--timeline-csv", kCell, Flag::kText, nullptr},
    {"--profile", kCell, Flag::kNone, nullptr},
};

const Flag* FindFlag(const std::string& name) {
  for (const Flag& flag : kFlags) {
    if (name == flag.name) return &flag;
  }
  return nullptr;
}

/// A flag as given on the command line.
struct GivenFlag {
  const Flag* flag;
  std::string value;  ///< Empty for a flag that takes none.
};

struct Options {
  std::vector<GivenFlag> given;  ///< Every flag, in command-line order.
  bool verbose = false;
  std::string config_file;  ///< Empty: start from an empty description.
  /// Unknown keys (typos) reject the file instead of only printing a
  /// warning.
  bool strict = false;
  /// Run under the invariant auditor.
  bool audit = false;
  /// Incumbent-safety budget override in ms (0 = auditor default).
  long long audit_budget_ms = 0;
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

  static void ReportFile(const std::ofstream& out, const std::string& what,
                         const std::string& path) {
    if (out.good()) {
      std::cout << what << " written to " << path << "\n";
    } else {
      std::cerr << "error: cannot write " << what << " to " << path << "\n";
    }
  }

  void WriteOutputs(double sim_seconds) {
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
    if (!options.metrics_csv.empty()) {
      std::ofstream out(options.metrics_csv);
      out << registry.Snapshot().ToCsv();
      ReportFile(out, "metrics csv", options.metrics_csv);
    }
    if (!options.metrics_json.empty()) {
      std::ofstream out(options.metrics_json);
      out << registry.Snapshot().ToJson() << "\n";
      ReportFile(out, "metrics json", options.metrics_json);
    }
    if (!options.trace_json.empty()) {
      std::ofstream out(options.trace_json);
      events.WriteChromeTrace(out);
      ReportFile(out,
                 "chrome trace (" + std::to_string(events.events().size()) +
                     " events)",
                 options.trace_json);
    }
    if (!options.trace_jsonl.empty()) {
      std::ofstream out(options.trace_jsonl);
      events.WriteJsonl(out);
      ReportFile(out,
                 "event trace (" + std::to_string(events.events().size()) +
                     " events)",
                 options.trace_jsonl);
    }
    if (!options.timeline_csv.empty()) {
      timeline.Close(static_cast<std::int64_t>(sim_seconds * kTicksPerSec));
      std::ofstream out(options.timeline_csv);
      out << "node,state,begin_us,end_us,duration_us\n";
      for (const StateInterval& iv : timeline.intervals()) {
        out << iv.node << "," << iv.state << "," << iv.begin_us << ","
            << iv.end_us << "," << iv.DurationUs() << "\n";
      }
      ReportFile(out,
                 "state timeline (" +
                     std::to_string(timeline.intervals().size()) +
                     " intervals)",
                 options.timeline_csv);
    }
    if (options.profile) {
      std::cout << "\nphase profile:\n" << profiler.ToString(sim_seconds);
    }
  }
};

bool ParseOptions(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") return false;
    const Flag* spec = FindFlag(flag);
    if (spec == nullptr) throw std::invalid_argument("unknown flag: " + flag);
    std::string value;
    if (spec->type != Flag::kNone) {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      value = argv[++i];
    }
    options.given.push_back({spec, value});
    // stoll/stod raise bare "stoll"-style messages, and out-of-range
    // values raise std::out_of_range, which the top-level handler would
    // misfile as a runtime error (exit 1).  Rewrap both so every bad flag
    // value is a configuration error naming the flag, and reject trailing
    // garbage ("3x") that the bare conversions silently accept.
    long long number = 0;
    try {
      std::size_t used = value.size();
      if (spec->type == Flag::kInt) number = std::stoll(value, &used);
      if (spec->type == Flag::kReal) std::stod(value, &used);
      if (used != value.size()) throw std::invalid_argument(value);
    } catch (const std::exception&) {
      throw std::invalid_argument(flag + ": expected a number, got '" +
                                  value + "'");
    }
    if (spec->key != nullptr) continue;  // Set on the description in Run.
    if (flag == "--verbose") options.verbose = true;
    else if (flag == "--trace") options.trace = true;
    else if (flag == "--config") options.config_file = value;
    else if (flag == "--strict") options.strict = true;
    else if (flag == "--audit") options.audit = true;
    else if (flag == "--audit-budget-ms") options.audit_budget_ms = number;
    else if (flag == "--shards") {
      if (number < 1) {
        throw std::invalid_argument("--shards: expected a count >= 1, got " +
                                    std::to_string(number));
      }
      options.shards = static_cast<int>(number);
    }
    else if (flag == "--replay") options.replay_bundle = value;
    else if (flag == "--minimize") options.minimize_out = value;
    else if (flag == "--metrics") options.metrics = true;
    else if (flag == "--metrics-csv") options.metrics_csv = value;
    else if (flag == "--metrics-json") options.metrics_json = value;
    else if (flag == "--trace-json") options.trace_json = value;
    else if (flag == "--trace-jsonl") options.trace_jsonl = value;
    else if (flag == "--trace-only") {
      std::size_t start = 0;
      while (start <= value.size()) {
        const std::size_t comma = value.find(',', start);
        const std::string name =
            value.substr(start, comma == std::string::npos ? std::string::npos
                                                           : comma - start);
        if (!name.empty()) {
          const auto kind = ParseTraceEventKind(name);
          if (!kind) {
            throw std::invalid_argument("--trace-only: unknown event kind '" +
                                        name + "'");
          }
          options.trace_only.push_back(*kind);
        }
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
      if (options.trace_only.empty()) {
        throw std::invalid_argument("--trace-only: empty kind list");
      }
    }
    else if (flag == "--timeline-csv") options.timeline_csv = value;
    else if (flag == "--profile") options.profile = true;
  }
  return true;
}

/// Rejects, naming it, the first flag given that `mode` cannot honour.
void CheckFlags(const Options& options, Mode mode) {
  for (const GivenFlag& given : options.given) {
    if ((given.flag->modes & mode) != 0) continue;
    const char* what = mode == kCell   ? "a single-cell scenario"
                       : mode == kCity ? "a [city] scenario"
                                       : "--replay";
    throw std::invalid_argument(std::string(given.flag->name) +
                                " cannot be used with " + what);
  }
}

/// A scenario flag whose key the loader never read is a configuration
/// error naming the flag.  The file's own unread keys (typos) warn by
/// default and reject the file under --strict.
void ReportUnusedKeys(const Options& options, const ConfigFile& config) {
  const std::vector<std::string> unknown = config.UnconsumedKeys();
  for (const GivenFlag& given : options.given) {
    const char* key = given.flag->key;
    if (key != nullptr &&
        std::find(unknown.begin(), unknown.end(), key) != unknown.end()) {
      throw std::invalid_argument(std::string(given.flag->name) +
                                  ": this scenario never reads " + key);
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
  // audit.* is scenario vocabulary here too, consumed whether or not the
  // auditor is on.
  scenario.engine.audit_config = bench::LoadAuditConfig(config);
  if (options.audit_budget_ms > 0) {
    scenario.engine.audit_config.safety_budget =
        options.audit_budget_ms * kTicksPerMs;
  }
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
  AuditConfig audit_config = bench::LoadAuditConfig(config);
  if (options.audit_budget_ms > 0) {
    audit_config.safety_budget = options.audit_budget_ms * kTicksPerMs;
  }
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
  if (obs.Wanted()) {
    obs.WriteOutputs(scenario.warmup_s + scenario.measure_s);
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
  for (const GivenFlag& given : options.given) {
    if (given.flag->key != nullptr) config.Set(given.flag->key, given.value);
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
    std::ofstream out(options.minimize_out);
    out << bundle;
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
  try {
    if (!ParseOptions(argc, argv, options)) {
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
                   "scenario flags set the description key they name; a "
                   "flag the run cannot honour exits 2\n"
                   "exit codes: 0 success / reproduced / invariants held, "
                   "1 runtime failure / violation / divergence, "
                   "2 configuration error\n";
      return 0;
    }
    if (options.verbose) SetLogLevel(LogLevel::kInfo);
    return options.replay_bundle.empty() ? Run(options) : RunReplay(options);
  } catch (const ConfigError& e) {
    // Carries file and line, e.g. "scenario.conf line 12: unknown key".
    std::cerr << "config error: " << e.what() << "\n";
    return kExitConfigError;
  } catch (const std::invalid_argument& e) {
    // Flag-parsing problems are configuration errors too.
    std::cerr << "config error: " << e.what() << "\n";
    return kExitConfigError;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitRuntimeError;
  }
}
