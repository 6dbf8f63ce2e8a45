// scenario_cli — a small research tool: run one WhiteFi scenario from the
// command line and print what happened.
//
// Usage:
//   scenario_cli [--seed N] [--clients N] [--background N] [--ipd MS]
//                [--mic TVCHANNEL] [--mic-at SECONDS] [--static W]
//                [--map campus|building5|rural|urban|suburban]
//                [--seconds S] [--verbose]
//                [--metrics] [--metrics-csv FILE] [--metrics-json FILE]
//                [--trace-json FILE] [--trace-jsonl FILE] [--profile]
//   scenario_cli --config FILE.conf   (QualNet-style scenario file; see
//                                      examples/configs/)
//   scenario_cli --config CITY.conf --shards N
//                                     (city-scale [city] scenario on the
//                                      sharded engine; N worker threads.
//                                      Output is byte-identical for every
//                                      N — the count is an execution knob,
//                                      never part of the science)
//   scenario_cli --config FILE.conf --audit [--audit-budget-ms M]
//                                     (run under the invariant auditor)
//   scenario_cli --replay BUNDLE      (re-run a fuzz repro bundle and check
//                                      the violation reproduces exactly)
//   scenario_cli --replay BUNDLE --minimize OUT
//                                     (shrink the bundle first, write the
//                                      minimized bundle to OUT, replay that)
//
// Exit codes: 0 success (for --replay: the violation reproduced exactly;
// for --audit: no invariant violated), 1 runtime failure / violation found
// / replay divergence, 2 configuration error (bad flags, malformed or
// unknown-key scenario file under --strict).  Scripts rely on the 1-vs-2
// distinction to tell a broken scenario file from a simulation that failed.
//
// Observability flags (work in both modes):
//   --metrics           print the metrics snapshot (counters + histograms)
//   --metrics-csv FILE  write the snapshot as CSV
//   --metrics-json FILE write the snapshot as JSON
//   --trace-json FILE   write a Chrome trace-event file (chrome://tracing)
//   --trace-jsonl FILE  write raw structured events, one JSON per line
//   --trace-only K,K    record only the named event kinds (e.g.
//                       span_begin,span_end,state_enter); unknown names
//                       are a configuration error (exit 2)
//   --timeline-csv FILE write per-node protocol-state intervals as CSV
//   --profile           print wall-clock cost per simulation phase
//
// Examples:
//   scenario_cli --map building5 --clients 3 --mic 28 --mic-at 5
//   scenario_cli --map campus --background 12 --ipd 30 --static 20
//   scenario_cli --config ../examples/configs/busy_campus.conf --metrics
//   scenario_cli --config ../examples/configs/mic_outage.conf --profile
#include <cstring>
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

struct Options {
  std::uint64_t seed = 1;
  int clients = 2;
  int background = 0;
  int ipd_ms = 30;
  int mic_tv = 0;       // 0 = no mic.
  double mic_at = 5.0;  // Seconds.
  int static_width = 0; // 0 = adaptive.
  std::string map_name = "campus";
  double seconds = 15.0;
  bool verbose = false;
  bool trace = false;  ///< Print every control frame as it airs.
  std::string config_file;  ///< Non-empty: config-file mode.
  /// Config-file mode: unknown keys (typos) reject the file instead of
  /// only printing a warning.
  bool strict = false;
  /// Config-file mode: run under the invariant auditor.
  bool audit = false;
  /// Incumbent-safety budget override in ms (0 = auditor default).
  long long audit_budget_ms = 0;
  /// City-scale config-file mode: worker threads for the shard engine.
  /// Purely an execution knob — results are byte-identical for any value.
  int shards = 1;
  std::string replay_bundle;  ///< Non-empty: replay mode.
  std::string minimize_out;   ///< Replay mode: minimize first, write here.

  // Observability outputs.
  bool metrics = false;
  std::string metrics_csv;
  std::string metrics_json;
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

  bool Wanted() const {
    return options.metrics || !options.metrics_csv.empty() ||
           !options.metrics_json.empty() || !options.trace_json.empty() ||
           !options.trace_jsonl.empty() || !options.timeline_csv.empty() ||
           options.profile;
  }

  Observability Sinks() {
    Observability obs;
    obs.metrics = &registry;
    if (!options.trace_json.empty() || !options.trace_jsonl.empty()) {
      obs.trace = &events;
    }
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

SpectrumMap ResolveMap(const std::string& name, Rng& rng) {
  if (name == "campus") return CampusSimulationMap();
  if (name == "building5") return Building5Map();
  if (name == "rural") return GenerateLocaleMap(LocaleClass::kRural, rng);
  if (name == "urban") return GenerateLocaleMap(LocaleClass::kUrban, rng);
  if (name == "suburban") {
    return GenerateLocaleMap(LocaleClass::kSuburban, rng);
  }
  throw std::invalid_argument("unknown map: " + name);
}

bool ParseOptions(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    // stoll/stod raise bare "stoll"-style messages, and out-of-range
    // values raise std::out_of_range, which the top-level handler would
    // misfile as a runtime error (exit 1).  Rewrap both so every bad flag
    // value is a configuration error naming the flag, and reject trailing
    // garbage ("3x") that the bare conversions silently accept.
    auto as_ll = [&]() -> long long {
      const std::string value = next();
      try {
        std::size_t used = 0;
        const long long parsed = std::stoll(value, &used);
        if (used != value.size()) throw std::invalid_argument(value);
        return parsed;
      } catch (const std::exception&) {
        throw std::invalid_argument(flag + ": expected a number, got '" +
                                    value + "'");
      }
    };
    auto as_d = [&]() -> double {
      const std::string value = next();
      try {
        std::size_t used = 0;
        const double parsed = std::stod(value, &used);
        if (used != value.size()) throw std::invalid_argument(value);
        return parsed;
      } catch (const std::exception&) {
        throw std::invalid_argument(flag + ": expected a number, got '" +
                                    value + "'");
      }
    };
    if (flag == "--seed") {
      options.seed = static_cast<std::uint64_t>(as_ll());
    }
    else if (flag == "--clients") options.clients = static_cast<int>(as_ll());
    else if (flag == "--background") {
      options.background = static_cast<int>(as_ll());
    }
    else if (flag == "--ipd") options.ipd_ms = static_cast<int>(as_ll());
    else if (flag == "--mic") options.mic_tv = static_cast<int>(as_ll());
    else if (flag == "--mic-at") options.mic_at = as_d();
    else if (flag == "--static") {
      options.static_width = static_cast<int>(as_ll());
    }
    else if (flag == "--map") options.map_name = next();
    else if (flag == "--seconds") options.seconds = as_d();
    else if (flag == "--verbose") options.verbose = true;
    else if (flag == "--trace") options.trace = true;
    else if (flag == "--config") options.config_file = next();
    else if (flag == "--strict") options.strict = true;
    else if (flag == "--audit") options.audit = true;
    else if (flag == "--audit-budget-ms") options.audit_budget_ms = as_ll();
    else if (flag == "--shards") {
      const long long shards = as_ll();
      if (shards < 1) {
        throw std::invalid_argument("--shards: expected a count >= 1, got " +
                                    std::to_string(shards));
      }
      options.shards = static_cast<int>(shards);
    }
    else if (flag == "--replay") options.replay_bundle = next();
    else if (flag == "--minimize") options.minimize_out = next();
    else if (flag == "--metrics") options.metrics = true;
    else if (flag == "--metrics-csv") options.metrics_csv = next();
    else if (flag == "--metrics-json") options.metrics_json = next();
    else if (flag == "--trace-json") options.trace_json = next();
    else if (flag == "--trace-jsonl") options.trace_jsonl = next();
    else if (flag == "--trace-only") {
      const std::string list = next();
      std::size_t start = 0;
      while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        const std::string name =
            list.substr(start, comma == std::string::npos ? std::string::npos
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
    else if (flag == "--timeline-csv") options.timeline_csv = next();
    else if (flag == "--detector") {
      // SIFT kernel selection for every detector the scenario constructs
      // ("block" = automatic dispatch).  Forcing simd on a host without
      // AVX2 throws here, i.e. exits 2 like any other bad flag value.
      const std::string value = next();
      if (value == "block") SetSiftKernelOverride(SiftKernelChoice::kAuto);
      else if (value == "simd") SetSiftKernelOverride(SiftKernelChoice::kSimd);
      else if (value == "scalar") {
        SetSiftKernelOverride(SiftKernelChoice::kScalar);
      }
      else if (value == "avx2") SetSiftKernelOverride(SiftKernelChoice::kAvx2);
      else if (value == "avx512") {
        SetSiftKernelOverride(SiftKernelChoice::kAvx512);
      }
      else {
        throw std::invalid_argument(
            "--detector: unknown value '" + value +
            "' (expected block, simd, scalar, avx2, or avx512)");
      }
      SiftDetector probe{SiftParams{}};
      (void)probe;
    }
    else if (flag == "--profile") options.profile = true;
    else if (flag == "--help" || flag == "-h") return false;
    else throw std::invalid_argument("unknown flag: " + flag);
  }
  return true;
}

/// Shared unknown-key policy for both config-file paths: typos warn by
/// default and reject the file under --strict.
void ReportUnknownKeys(const Options& options, const ConfigFile& config) {
  const std::vector<std::string> unknown = bench::UnknownScenarioKeys(config);
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

/// City-scale config-file mode ([city] section): run the sharded
/// federation and print its deterministic summary.  The summary is
/// byte-identical for every --shards value — CI diffs it across counts.
int RunCityFromConfigFile(const Options& options, const ConfigFile& config) {
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
  ReportUnknownKeys(options, config);
  shard::ShardEngine engine(scenario.city, scenario.engine);
  // Shard count goes to stderr: stdout must be byte-identical across
  // --shards values so scripts can diff it directly.
  std::cout << "city scenario " << options.config_file << ": "
            << engine.NumTiles() << " tiles, "
            << engine.layout().cells.size() << " cells\n";
  std::cerr << "shards: " << options.shards << " worker thread(s)\n";
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

int RunFromConfigFile(const Options& options) {
  if (options.verbose) SetLogLevel(LogLevel::kInfo);
  const ConfigFile config = ConfigFile::Load(options.config_file);
  if (bench::IsCityScenario(config)) {
    return RunCityFromConfigFile(options, config);
  }
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
  // experiment runs.  A warning by default; fatal under --strict.
  ReportUnknownKeys(options, config);
  std::cout << "scenario " << options.config_file << ": map "
            << scenario.base_map.ToString() << ", " << scenario.num_clients
            << " clients, " << scenario.background.size()
            << " background pairs, " << scenario.mics.size() << " mic(s)\n";
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

/// --replay: re-run a repro bundle and verify the recorded violation
/// reproduces field-for-field.  With --minimize, shrink the bundle first
/// and replay the minimized version.
int RunReplay(const Options& options) {
  if (options.verbose) SetLogLevel(LogLevel::kInfo);
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
      std::cout << "usage: scenario_cli [--seed N] [--clients N] "
                   "[--background N] [--ipd MS] [--mic TV] [--mic-at S] "
                   "[--static 5|10|20] [--map NAME] [--seconds S] "
                   "[--verbose] [--metrics] [--metrics-csv FILE] "
                   "[--metrics-json FILE] [--trace-json FILE] "
                   "[--trace-jsonl FILE] [--trace-only K,K,...] "
                   "[--timeline-csv FILE] [--profile] "
                   "[--detector block|simd|scalar|avx2|avx512] [--config FILE] "
                   "[--strict] [--audit] [--audit-budget-ms M] "
                   "[--shards N] [--replay BUNDLE [--minimize OUT]]\n"
                   "exit codes: 0 success / reproduced / invariants held, "
                   "1 runtime failure / violation / divergence, "
                   "2 configuration error\n";
      return 0;
    }
    if (!options.replay_bundle.empty()) return RunReplay(options);
    if (!options.config_file.empty()) return RunFromConfigFile(options);
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
  if (options.verbose) SetLogLevel(LogLevel::kInfo);

  Rng map_rng(DeriveSeed(options.seed, "cli.map"));
  const SpectrumMap map = ResolveMap(options.map_name, map_rng);
  std::cout << "map " << options.map_name << ": " << map.ToString() << " ("
            << map.NumFree() << " free)\n";

  // Boot assignment.
  AssignmentInputs boot;
  boot.ap_map = map;
  boot.ap_observation = EmptyBandObservation();
  for (UhfIndex c = 0; c < kNumUhfChannels; ++c) {
    boot.ap_observation[static_cast<std::size_t>(c)].incumbent =
        map.Occupied(c);
  }
  SpectrumAssigner assigner;
  auto initial = assigner.SelectInitial(boot).channel;
  if (options.static_width != 0) {
    initial.reset();
    for (const Channel& c : map.UsableChannels()) {
      if (static_cast<int>(WidthMHz(c.width)) == options.static_width) {
        initial = c;
        break;
      }
    }
  }
  if (!initial.has_value()) {
    std::cerr << "no usable channel for this configuration\n";
    return 1;
  }
  const Channel backup = assigner.SelectBackup(boot, *initial).value_or(*initial);
  std::cout << "start: main " << initial->ToString() << ", backup "
            << backup.ToString()
            << (options.static_width != 0 ? " (static)" : " (adaptive)")
            << "\n";

  ObsSession obs(options);
  WorldConfig world_config;
  world_config.seed = options.seed;
  if (obs.Wanted()) world_config.obs = obs.Sinks();
  World world(world_config);
  Rng rng = world.NewRng();

  DeviceConfig node;
  node.ssid = 1;
  node.tv_map = map;
  ApParams ap_params;
  ap_params.adaptive = options.static_width == 0;
  ApNode& ap = world.Create<ApNode>(node, ap_params, *initial, backup);
  std::vector<int> ids;
  std::vector<ClientNode*> clients;
  for (int i = 0; i < options.clients; ++i) {
    node.position = {rng.Uniform(-250.0, 250.0), rng.Uniform(-250.0, 250.0)};
    clients.push_back(&world.Create<ClientNode>(node, ClientParams{}, *initial,
                                                backup, ap.NodeId()));
    ids.push_back(clients.back()->NodeId());
  }
  SaturatedSource downlink(ap, ids, 1000);

  std::vector<std::unique_ptr<CbrSource>> background;
  for (int i = 0; i < options.background; ++i) {
    DeviceConfig bg;
    bg.ssid = 100 + i;
    bg.is_ap = true;
    bg.tv_map = map;
    bg.initial_channel = Channel{rng.Pick(map.FreeIndices()), ChannelWidth::kW5};
    const double r = rng.Uniform(150.0, 500.0);
    const double theta = rng.Uniform(0.0, 2.0 * M_PI);
    bg.position = {r * std::cos(theta), r * std::sin(theta)};
    Device& tx = world.Create<Device>(bg);
    bg.is_ap = false;
    bg.position.x += 25.0;
    Device& rx = world.Create<Device>(bg);
    background.push_back(std::make_unique<CbrSource>(
        tx, rx.NodeId(), 1000, options.ipd_ms * kTicksPerMs));
    background.back()->Start();
  }

  if (options.mic_tv != 0) {
    world.AddMic(MicActivation{IndexOfTvChannel(options.mic_tv),
                               options.mic_at * kSecond, 3600.0 * kSecond});
    std::cout << "mic on TV ch" << options.mic_tv << " at t="
              << FormatDouble(options.mic_at, 1) << " s\n";
  }

  // Optional live control-plane trace (beacons excluded: too chatty).
  std::unique_ptr<Tracer> tracer;
  if (options.trace) {
    TracerOptions trace_options;
    trace_options.only = {FrameType::kChannelSwitch, FrameType::kChirp,
                          FrameType::kReport};
    trace_options.live = &std::cout;
    tracer = std::make_unique<Tracer>(world, trace_options);
  }

  world.StartAll();
  downlink.Start();
  world.RunFor(options.seconds);

  std::cout << "\nafter " << FormatDouble(options.seconds, 1) << " s:\n";
  std::cout << "  AP on " << ap.main_channel().ToString() << " (backup "
            << ap.backup_channel().ToString() << "), switches "
            << ap.num_switches() << "\n";
  int connected = 0;
  double worst_outage = 0.0;
  for (const ClientNode* c : clients) {
    connected += c->connected() ? 1 : 0;
    for (SimTime o : c->outages()) {
      worst_outage = std::max(worst_outage, ToSeconds(o));
    }
  }
  std::cout << "  clients connected: " << connected << "/" << options.clients;
  if (worst_outage > 0.0) {
    std::cout << " (worst outage " << FormatDouble(worst_outage, 2) << " s)";
  }
  std::cout << "\n  aggregate throughput: "
            << FormatDouble(
                   8.0 * world.AppBytesInSsid(1) / options.seconds / 1e6, 2)
            << " Mbps\n";
  if (obs.Wanted()) obs.WriteOutputs(options.seconds);
  return 0;
}
