#include "fuzz.h"

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "scenario_file.h"
#include "spectrum/campus.h"
#include "spectrum/uhf.h"
#include "util/rng.h"

namespace whitefi::bench {
namespace {

/// Fixed-notation double that round-trips through the INI parser without
/// locale or precision surprises.
std::string Num(double v) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << v;
  return os.str();
}

/// Replaces the value of `key` on its own "key = value" line; appends the
/// line when the key is absent.  The generator and minimizer only ever
/// touch flat dotted keys, one per line, so line surgery is exact.
std::string ReplaceKeyLine(const std::string& text, const std::string& key,
                           const std::string& value) {
  std::istringstream in(text);
  std::ostringstream out;
  std::string line;
  bool replaced = false;
  while (std::getline(in, line)) {
    const auto eq = line.find('=');
    if (!replaced && eq != std::string::npos) {
      std::string name = line.substr(0, eq);
      while (!name.empty() && (name.back() == ' ' || name.back() == '\t')) {
        name.pop_back();
      }
      if (name == key) {
        out << key << " = " << value << "\n";
        replaced = true;
        continue;
      }
    }
    out << line << "\n";
  }
  if (!replaced) out << key << " = " << value << "\n";
  return out.str();
}

/// Drops every "expect.*" line.
std::string StripExpectBlock(const std::string& text) {
  std::istringstream in(text);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    std::string_view v(line);
    while (!v.empty() && (v.front() == ' ' || v.front() == '\t')) {
      v.remove_prefix(1);
    }
    if (v.rfind("expect.", 0) == 0) continue;
    if (v.rfind("# --- repro expectation", 0) == 0) continue;
    out << line << "\n";
  }
  return out.str();
}

/// True iff the run still exhibits a violation of `invariant`.
bool StillFires(const std::string& scenario_text,
                const std::string& invariant) {
  const AuditedRun run = RunAuditedScenarioText(scenario_text);
  for (const Violation& v : run.violations) {
    if (v.invariant == invariant) return true;
  }
  return false;
}

}  // namespace

std::string GenerateFuzzScenario(const FuzzOptions& options,
                                 std::uint64_t index) {
  // Named substream per trial: the generator never reuses the root seed
  // raw, and trial k's scenario is independent of how many trials ran
  // before it.
  Rng rng(DeriveSeed(options.root_seed,
                     "fuzz.trial." + std::to_string(index)));
  std::ostringstream os;
  os << "# fuzz trial " << index << " (root seed " << options.root_seed
     << ")\n";
  os << "seed = " << rng.UniformInt(1, 1 << 30) << "\n";
  const bool building = rng.Bernoulli(0.4);
  const SpectrumMap map = building ? Building5Map() : CampusSimulationMap();
  os << "map.name = " << (building ? "building5" : "campus") << "\n";
  os << "seconds = " << rng.UniformInt(4, 7) << "\n";
  os << "warmup = 1\n";
  os << "network.clients = " << rng.UniformInt(1, 4) << "\n";
  os << "background.pairs = " << rng.UniformInt(0, 4) << "\n";
  os << "background.ipd_ms = " << rng.UniformInt(20, 40) << "\n";

  // A mic over one of the map's free channels most trials: incumbent
  // churn over spectrum the network actually wants is what exercises the
  // vacation discipline.
  if (rng.Bernoulli(0.7)) {
    const auto free = map.FreeIndices();
    const UhfIndex mic = free[rng.Index(free.size())];
    const double on_s = rng.Uniform(1.5, 3.5);
    os << "mic.tv_channel = " << TvChannelNumber(mic) << "\n";
    os << "mic.on_s = " << Num(on_s) << "\n";
    os << "mic.off_s = " << Num(on_s + rng.Uniform(1.0, 3.0)) << "\n";
  }

  // Protocol hardenings, randomly toggled (both halves of each feature
  // matrix must hold the invariants).
  if (rng.Bernoulli(0.5)) {
    os << "client.chirp_backoff = true\n";
    os << "client.chirp_interval_max_ms = " << rng.UniformInt(1000, 3000)
       << "\n";
  }
  if (rng.Bernoulli(0.5)) {
    os << "client.reconnect_escalation = true\n";
    os << "client.reconnect_stage_timeout_ms = " << rng.UniformInt(2000, 5000)
       << "\n";
  }

  // Moderate fault pressure.  Every knob here degrades protocol progress
  // without licensing an invariant breach: the fast incumbent-detection
  // path is not gated by any of them.
  if (rng.Bernoulli(0.5)) {
    os << "fault.beacon_drop_p = " << Num(rng.Uniform(0.05, 0.3)) << "\n";
  }
  if (rng.Bernoulli(0.4)) {
    os << "fault.chirp_drop_p = " << Num(rng.Uniform(0.05, 0.3)) << "\n";
  }
  if (rng.Bernoulli(0.3)) {
    os << "fault.control_corrupt_p = " << Num(rng.Uniform(0.02, 0.1)) << "\n";
  }
  if (rng.Bernoulli(0.3)) {
    os << "fault.ge_p_enter_bad = " << Num(rng.Uniform(0.01, 0.05)) << "\n";
    os << "fault.ge_p_exit_bad = " << Num(rng.Uniform(0.2, 0.5)) << "\n";
    os << "fault.ge_loss_good = 0.000\n";
    os << "fault.ge_loss_bad = " << Num(rng.Uniform(0.3, 0.8)) << "\n";
  }
  if (rng.Bernoulli(0.3)) {
    os << "fault.false_incumbent_p = " << Num(rng.Uniform(0.001, 0.01))
       << "\n";
  }
  if (rng.Bernoulli(0.5)) {
    os << "fault.storm_start_s = " << Num(rng.Uniform(1.0, 3.0)) << "\n";
    os << "fault.storm_duration_s = " << Num(rng.Uniform(2.0, 4.0)) << "\n";
    os << "fault.storm_mics = " << rng.UniformInt(1, 2) << "\n";
    os << "fault.storm_mean_on_s = " << Num(rng.Uniform(1.0, 2.0)) << "\n";
    os << "fault.storm_mean_off_s = " << Num(rng.Uniform(1.0, 3.0)) << "\n";
  }

  if (options.safety_budget_ms > 0) {
    os << "audit.safety_budget_ms = " << options.safety_budget_ms << "\n";
  }
  return os.str();
}

std::string GenerateGeoDbFuzzScenario(const FuzzOptions& options,
                                      std::uint64_t index) {
  Rng rng(DeriveSeed(options.root_seed,
                     "fuzz.geodb.trial." + std::to_string(index)));
  std::ostringstream os;
  os << "# geodb fuzz trial " << index << " (root seed " << options.root_seed
     << ")\n";
  os << "seed = " << rng.UniformInt(1, 1 << 30) << "\n";
  const bool building = rng.Bernoulli(0.3);
  const SpectrumMap map = building ? Building5Map() : CampusSimulationMap();
  os << "map.name = " << (building ? "building5" : "campus") << "\n";
  const long long seconds = rng.UniformInt(5, 8);
  os << "seconds = " << seconds << "\n";
  os << "warmup = 1\n";
  os << "network.clients = " << rng.UniformInt(1, 3) << "\n";
  os << "background.pairs = " << rng.UniformInt(0, 2) << "\n";

  // The geo-db service is always on: this generator's whole point is the
  // recovery protocol under churn, so every trial gets venue activations
  // (often backed by real mics — those arm the audible fast path on top
  // of the geo ground truth) and tight session timings so full
  // degrade -> breaker -> recover cycles fit inside a short run.
  os << "geodb.enabled = true\n";
  os << "geodb.stations = " << rng.UniformInt(10, 24) << "\n";
  os << "geodb.venues = " << rng.UniformInt(1, 3) << "\n";
  os << "geodb.venue_radius_km = " << Num(rng.Uniform(0.5, 2.0)) << "\n";
  os << "geodb.venue_spread_km = " << Num(rng.Uniform(0.2, 1.0)) << "\n";
  const double start_min = rng.Uniform(0.5, 1.5);
  os << "geodb.venue_start_min_s = " << Num(start_min) << "\n";
  os << "geodb.venue_start_max_s = " << Num(start_min + rng.Uniform(1.0, 3.0))
     << "\n";
  const double on_min = rng.Uniform(0.8, 1.5);
  os << "geodb.venue_on_min_s = " << Num(on_min) << "\n";
  os << "geodb.venue_on_max_s = " << Num(on_min + rng.Uniform(0.5, 2.0))
     << "\n";
  os << "geodb.venue_mics = " << (rng.Bernoulli(0.5) ? "true" : "false")
     << "\n";

  // Service behavior: latency, queueing, overload shedding, push fan-out.
  os << "geodb.query_latency_ms = " << rng.UniformInt(20, 80) << "\n";
  os << "geodb.per_pending_ms = " << rng.UniformInt(5, 30) << "\n";
  os << "geodb.latency_jitter = " << Num(rng.Uniform(0.0, 0.4)) << "\n";
  os << "geodb.queue = " << rng.UniformInt(2, 8) << "\n";
  os << "geodb.push_latency_min_ms = 10\n";
  os << "geodb.push_latency_max_ms = " << rng.UniformInt(50, 150) << "\n";

  // Session recovery protocol, tightened to the run length.
  os << "geodb.refresh_s = " << Num(rng.Uniform(0.5, 1.2)) << "\n";
  os << "geodb.refresh_timeout_ms = " << rng.UniformInt(100, 250) << "\n";
  os << "geodb.backoff_ms = " << rng.UniformInt(80, 200) << "\n";
  os << "geodb.backoff_max_ms = " << rng.UniformInt(400, 800) << "\n";
  os << "geodb.breaker_failures = " << rng.UniformInt(2, 3) << "\n";
  os << "geodb.breaker_cooldown_ms = " << rng.UniformInt(300, 800) << "\n";
  os << "geodb.stale_after_s = " << Num(rng.Uniform(4.0, 10.0)) << "\n";

  // Mobility most trials: movement is what makes the position-aware
  // ground-truth check different from the audible-mic one.
  if (rng.Bernoulli(0.7)) {
    os << "mobility.enabled = true\n";
    os << "mobility.range_m = " << Num(rng.Uniform(100.0, 400.0)) << "\n";
    os << "mobility.speed_min_mps = 1.000\n";
    os << "mobility.speed_max_mps = " << Num(rng.Uniform(5.0, 15.0)) << "\n";
    os << "mobility.tick_ms = " << rng.UniformInt(50, 150) << "\n";
  }

  // Geo-db fault pressure.  An outage window mid-run forces the timeout /
  // backoff / breaker path; staleness makes even successful refreshes
  // serve old data; a push storm floods the subscription fan-out with
  // short-lived protected venues.
  if (rng.Bernoulli(0.8)) {
    const double from = rng.Uniform(1.5, 3.0);
    os << "fault.geodb_outages = " << Num(from) << "-"
       << Num(from + rng.Uniform(1.0, 2.5)) << "\n";
  }
  if (rng.Bernoulli(0.3)) {
    os << "fault.geodb_staleness_s = " << Num(rng.Uniform(0.5, 2.0)) << "\n";
  }
  if (rng.Bernoulli(0.4)) {
    os << "fault.push_storm_start_s = " << Num(rng.Uniform(1.5, 3.0)) << "\n";
    os << "fault.push_storm_duration_s = " << Num(rng.Uniform(2.0, 3.0))
       << "\n";
    os << "fault.push_storm_venues = " << rng.UniformInt(2, 4) << "\n";
    os << "fault.push_storm_mean_on_s = " << Num(rng.Uniform(0.5, 1.5))
       << "\n";
    os << "fault.push_storm_mean_off_s = " << Num(rng.Uniform(0.5, 1.5))
       << "\n";
    os << "fault.push_storm_radius_km = " << Num(rng.Uniform(0.8, 1.5))
       << "\n";
    os << "fault.push_storm_spread_km = " << Num(rng.Uniform(1.0, 3.0))
       << "\n";
  }

  // A plain audible mic and light protocol fault pressure some trials:
  // the geo-db path must compose with, not replace, the audio one.
  if (rng.Bernoulli(0.4)) {
    const auto free = map.FreeIndices();
    const UhfIndex mic = free[rng.Index(free.size())];
    const double on_s = rng.Uniform(1.5, 3.0);
    os << "mic.tv_channel = " << TvChannelNumber(mic) << "\n";
    os << "mic.on_s = " << Num(on_s) << "\n";
    os << "mic.off_s = " << Num(on_s + rng.Uniform(1.0, 2.0)) << "\n";
  }
  if (rng.Bernoulli(0.4)) {
    os << "fault.beacon_drop_p = " << Num(rng.Uniform(0.05, 0.2)) << "\n";
  }

  if (options.safety_budget_ms > 0) {
    os << "audit.safety_budget_ms = " << options.safety_budget_ms << "\n";
  }
  if (options.geo_budget_ms > 0) {
    os << "audit.geo_budget_ms = " << options.geo_budget_ms << "\n";
  }
  return os.str();
}

AuditConfig LoadAuditConfig(const ConfigFile& config) {
  // Each audit.*_ms key: whole ms in [0, INT_MAX] ([1, INT_MAX] for the
  // sweep), as ticks; an absent key keeps the auditor's default.
  AuditConfig audit;
  for (auto [key, field, min_ms] :
       {std::tuple{"audit.safety_budget_ms", &audit.safety_budget, 0},
        {"audit.geo_budget_ms", &audit.geo_budget, 0},
        {"audit.vacate_slack_ms", &audit.safety_vacate_slack, 0},
        {"audit.sweep_ms", &audit.sweep_interval, 1}}) {
    *field = config.Get<SimTime>(key, *field / kTicksPerMs, min_ms,
                                 std::numeric_limits<int>::max()) *
             kTicksPerMs;
  }
  audit.check_books = config.GetBool("audit.check_books", true);
  return audit;
}

AuditedRun RunAuditedScenarioText(const std::string& text) {
  ConfigFile config = ConfigFile::ParseString(text);
  const AuditConfig audit_config = LoadAuditConfig(config);
  (void)BundleExpectation(config);  // Consume expect.* (bundles re-run).
  ScenarioConfig scenario = LoadScenario(config);
  InvariantAuditor auditor(audit_config);
  scenario.auditor = &auditor;
  AuditedRun run;
  run.result = RunScenario(scenario);
  run.safety_budget = auditor.safety_budget();
  run.violations = auditor.violations();
  run.violation_count = auditor.violation_count();
  return run;
}

std::string MakeReproBundle(const std::string& scenario_text,
                            const Violation& v) {
  std::ostringstream os;
  os << StripExpectBlock(scenario_text);
  os << "# --- repro expectation (first violation of the recorded run) ---\n";
  os << "expect.invariant = " << v.invariant << "\n";
  os << "expect.at_us = " << v.at << "\n";
  os << "expect.node = " << v.node << "\n";
  os << "expect.channel = " << v.channel << "\n";
  os << "expect.detail = " << v.detail << "\n";
  return os.str();
}

std::optional<Violation> BundleExpectation(const ConfigFile& config) {
  if (!config.Has("expect.invariant")) return std::nullopt;
  Violation v;
  v.invariant = config.Get("expect.invariant");
  v.at = config.Get<SimTime>("expect.at_us", 0);
  v.node = config.Get<int>("expect.node", -1);
  v.channel = config.Get<int>("expect.channel", -1);
  v.detail = config.Get("expect.detail");
  return v;
}

ReplayOutcome ReplayBundleText(const std::string& text) {
  ReplayOutcome outcome;
  const auto expected =
      BundleExpectation(ConfigFile::ParseString(text));
  if (!expected.has_value()) {
    outcome.message = "bundle has no expect block (not a repro bundle?)";
    return outcome;
  }
  outcome.expected = *expected;
  const AuditedRun run = RunAuditedScenarioText(text);
  if (run.violations.empty()) {
    outcome.message = "replay ran clean: expected violation did not fire";
    return outcome;
  }
  const Violation& got = run.violations.front();
  outcome.got = got;
  if (got.invariant == expected->invariant && got.at == expected->at &&
      got.node == expected->node && got.channel == expected->channel &&
      got.detail == expected->detail) {
    outcome.reproduced = true;
    outcome.message = "reproduced: " + got.ToString();
  } else {
    outcome.message = "diverged: expected " + expected->ToString() +
                      " but got " + got.ToString();
  }
  return outcome;
}

std::string MinimizeBundle(const std::string& bundle_text, int* steps) {
  int accepted = 0;
  const ConfigFile original = ConfigFile::ParseString(bundle_text);
  const auto expected = BundleExpectation(original);
  std::string text = StripExpectBlock(bundle_text);
  // Minimize against the invariant CLASS, not the exact violation: every
  // reduction reshuffles node ids and event timing, so the precise record
  // changes while the bug class persists.
  std::string invariant =
      expected.has_value() ? expected->invariant : std::string();
  if (invariant.empty()) {
    const AuditedRun run = RunAuditedScenarioText(text);
    if (run.violations.empty()) return bundle_text;  // Nothing to chase.
    invariant = run.violations.front().invariant;
  }

  // 1. Duration, in whole seconds below the recorded run's ceiling: first
  //    try the tightest horizon the recorded violation suggests, then keep
  //    bisecting down.
  long long seconds = static_cast<long long>(std::ceil(
      original.Get<double>("seconds", 10.0, kPositive, kMaxDurationS)));
  const double warmup =
      original.Get<double>("warmup", 1.0, 0.0, kMaxDurationS);
  if (expected.has_value() && expected->at > 0) {
    const long long needed = static_cast<long long>(
        std::ceil(static_cast<double>(expected->at) / kTicksPerSec - warmup)) +
        1;
    if (needed >= 1 && needed < seconds &&
        StillFires(ReplaceKeyLine(text, "seconds", std::to_string(needed)),
                   invariant)) {
      seconds = needed;
      text = ReplaceKeyLine(text, "seconds", std::to_string(seconds));
      ++accepted;
    }
  }
  while (seconds > 1) {
    const long long half = seconds / 2;
    if (!StillFires(ReplaceKeyLine(text, "seconds", std::to_string(half)),
                    invariant)) {
      break;
    }
    seconds = half;
    text = ReplaceKeyLine(text, "seconds", std::to_string(seconds));
    ++accepted;
  }

  // 2. Node count: drop clients, then background pairs, while it fires.
  int clients = original.Get<int>("network.clients", 2);
  while (clients > 1) {
    const std::string candidate = ReplaceKeyLine(
        text, "network.clients", std::to_string(clients - 1));
    if (!StillFires(candidate, invariant)) break;
    --clients;
    text = candidate;
    ++accepted;
  }
  int pairs = original.Get<int>("background.pairs", 0);
  while (pairs > 0) {
    const std::string candidate =
        ReplaceKeyLine(text, "background.pairs", std::to_string(pairs - 1));
    if (!StillFires(candidate, invariant)) break;
    --pairs;
    text = candidate;
    ++accepted;
  }

  if (steps != nullptr) *steps = accepted;
  // Refresh the expectation from the minimized scenario so the bundle
  // replays byte-for-byte as-is.
  const AuditedRun final_run = RunAuditedScenarioText(text);
  if (final_run.violations.empty()) {
    // Should not happen (every accepted step still fired) — fall back to
    // the original bundle rather than emit a non-reproducing one.
    return bundle_text;
  }
  return MakeReproBundle(text, final_run.violations.front());
}

}  // namespace whitefi::bench
