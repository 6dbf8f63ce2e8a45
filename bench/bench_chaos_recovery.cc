// Chaos soak: reconnect-time percentiles under injected faults, with and
// without each graceful-degradation hardening.
//
// The paper's Section 4.3 claim — WhiteFi reassembles quickly after an
// incumbent forces a channel vacation — is measured here under adversarial
// conditions rather than the happy path: every trial drops a wireless mic
// onto the operating channel audible ONLY to the clients (a simultaneous
// multi-client disconnect storm the AP cannot sense), while the fault
// injector supplies SIFT chirp-detection misses, beacon loss, and a
// scanner outage right when the chirp watch is needed most.
//
// Arms (cumulative hardenings):
//   fixed        chirps at a fixed interval, no jitter (outage retry off)
//   +jitter      the default randomized chirp period
//   +backoff     jittered exponential backoff (de-synchronizes chirpers)
//   +escalation  backup -> secondary backup -> full-sweep state machine
//   +scan-retry  AP probes through scanner outages at a short cadence
//
// Acceptance (ISSUE 2): with >= 3 clients disconnected simultaneously,
// hardened chirp backoff strictly improves p95 reconnect time over
// fixed-interval chirping, reproducibly from the pinned default seed.
//
// Flags (each value flag also takes the `--flag=value` form): --trials N
// (N >= 1, default 10), --seed S (unsigned, default 1), --clients N (N >= 1,
// default 4), --trace PREFIX (dump trial 0 of each arm as JSONL), --jobs N
// (parallel trials per arm; any N is byte-identical to 1) — CI runs a
// reduced soak under sanitizers — plus --geodb and --json PATH below.
// Exit status: 0 iff the acceptance holds (--geodb: every degraded session
// recovered), 1 when it fails or a file cannot be written, 2 bad flags.
//
// --geodb additionally runs every trial with the simulated geo-db
// service, mobile clients, and a DB outage spanning the disconnect storm:
// the sessions lose their refresh path exactly when the mic strands the
// clients, so recovery has to ride the breaker -> conservative-map path.
// --json PATH writes a google-benchmark-compatible report whose
// "throughputs" are deterministic simulation outputs (1/p95 reconnect,
// rescued fraction, geo-db recovery ratio) — the committed baseline
// (BENCH_chaos_geodb.json) is gated by bench/compare_bench.py, turning a
// recovery-latency regression into a red build.
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "flags.h"
#include "obs/event_trace.h"
#include "scenario.h"
#include "spectrum/campus.h"
#include "util/histogram.h"
#include "util/parallel.h"
#include "util/report.h"
#include "util/rng.h"

namespace whitefi::bench {
namespace {

constexpr int kWhiteFiSsid = 1;
constexpr double kRunEndS = 40.0;  ///< warmup + measure; outage censor cap.

struct Arm {
  std::string label;
  double chirp_jitter = 0.0;
  bool chirp_backoff = false;
  bool reconnect_escalation = false;
  bool outage_retry = false;
};

struct ArmResult {
  ExpHistogram outages;
  int disconnects = 0;
  int unrecovered = 0;  ///< Clients still down when the run ended.
  std::uint64_t faults = 0;
  // Geo-db session statistics (zero without --geodb).
  long long geodb_degraded = 0;
  long long geodb_recovered = 0;
  std::uint64_t geodb_queries = 0;
  std::uint64_t geodb_pushes = 0;
  std::shared_ptr<EventTrace> trace;  ///< Trial 0's, with --trace.
};

ScenarioConfig MakeConfig(const Arm& arm, std::uint64_t seed, int clients,
                          double storm_at_s, bool geodb) {
  ScenarioConfig config;
  config.seed = seed;
  config.base_map = CampusSimulationMap();
  config.num_clients = clients;
  config.warmup_s = 3.0;
  config.measure_s = kRunEndS - config.warmup_s;

  ApParams ap;
  ap.assignment_interval = 3 * kTicksPerSec;
  ap.first_assignment_delay = 1 * kTicksPerSec;
  ap.scanner.dwell = 100 * kTicksPerMs;
  // Chirp watch: 400 ms on the backup channel out of every 2 s.  The
  // watch is a comb filter — a chirper is heard only if a chirp lands
  // inside a dwell — so its duty cycle and period, against the clients'
  // chirp period, decide who gets caught and who phase-locks out.
  ap.scanner.chirp_scan_interval = 2 * kTicksPerSec;
  ap.scanner.chirp_scan_dwell = 400 * kTicksPerMs;
  ap.scanner.outage_retry = arm.outage_retry;
  // The escalation state machine is a two-ended hardening: clients fall
  // back to the deterministic secondary backup, and the AP alternates its
  // chirp watch onto that same channel.
  ap.watch_secondary_backup = arm.reconnect_escalation;
  config.ap_params = ap;

  ClientParams client;
  // A battery-conscious chirp cadence (1 s rather than the prototype's
  // 150 ms firehose).  The period exceeds the AP's 400 ms chirp-watch
  // dwell and divides its 2 s visit interval — precisely the regime where
  // a deterministic chirp cycle can phase-lock against the scanner and
  // systematically miss every rescue window.  The storm disconnects all
  // clients on the same tick, so without jitter their phases are also
  // mutually locked: the whole herd misses together.
  client.chirp_interval = 1 * kTicksPerSec;
  client.chirp_jitter = arm.chirp_jitter;
  client.chirp_backoff = arm.chirp_backoff;
  // Bounded backoff: the cap is the designed worst-case rescue latency —
  // backing off further than 1.5x the dwell period would starve the
  // AP's comb of chirps entirely.
  client.chirp_interval_max = 1500 * kTicksPerMs;
  client.reconnect_escalation = arm.reconnect_escalation;
  // Long enough that escalation is a last resort for truly stuck clients,
  // not a premature hop away from the channel the AP is about to rescue.
  client.reconnect_stage_timeout = 8 * kTicksPerSec;
  client.scanner.outage_retry = arm.outage_retry;
  config.client_params = client;

  // The fault storm.  Chirps are heard through the scanner tap, so chirp
  // loss at the AP is a SIFT detection miss, not a medium drop; the
  // scanner outage opens exactly when the disconnected clients start
  // chirping, deafening an unhardened chirp watch for two visits.
  config.faults.miss_chirp_p = 0.25;
  config.faults.beacon_drop_p = 0.05;
  FaultWindow outage;
  outage.from = static_cast<SimTime>((storm_at_s + 0.2) * kTicksPerSec);
  outage.until = static_cast<SimTime>((storm_at_s + 4.2) * kTicksPerSec);
  config.faults.scanner_outages.push_back(outage);

  // --geodb: mobile clients under the dynamic geo-db service, with the
  // DB itself down for the whole rescue window — the sessions' scheduled
  // refresh times out exactly when the mic strands the clients, so the
  // breaker must trip to the conservative map while the reconnect
  // machinery does its job.  Tight session timings fit full
  // degrade -> recover cycles inside the run.
  if (geodb) {
    config.geodb.enabled = true;
    config.geodb.venues = 2;
    config.geodb.mobility = true;
    config.geodb.session.refresh_interval = 1 * kTicksPerSec;
    config.geodb.session.refresh_timeout = 200 * kTicksPerMs;
    config.geodb.session.backoff_base = 200 * kTicksPerMs;
    config.geodb.session.backoff_max = 800 * kTicksPerMs;
    config.geodb.session.breaker_failures = 2;
    config.geodb.session.breaker_cooldown = 500 * kTicksPerMs;
    FaultWindow db_outage;
    db_outage.from = static_cast<SimTime>(storm_at_s * kTicksPerSec);
    db_outage.until =
        static_cast<SimTime>((storm_at_s + 6.0) * kTicksPerSec);
    config.faults.geodb_outages.push_back(db_outage);
  }

  // Storm: one wireless mic keys up in the middle of the operating
  // channel, audible only to the clients — they all vacate at once while
  // the AP (out of the mic's range) keeps transmitting, unaware.
  config.customize = [storm_at_s](World& world) {
    const auto storm_tick =
        static_cast<SimTime>(storm_at_s * kTicksPerSec);
    World* wp = &world;
    world.sim().Schedule(storm_tick, [wp] {
      Device* ap = wp->FindDevice(1);
      if (ap == nullptr) return;
      std::vector<int> client_ids;
      for (int id : wp->NodesInSsid(kWhiteFiSsid)) {
        if (id != ap->NodeId()) client_ids.push_back(id);
      }
      MicActivation mic;
      mic.channel = ap->TunedChannel().center;
      mic.on_time = ToUs(wp->sim().Now() + kTicksPerMs);
      mic.off_time = ToUs(wp->sim().Now() + 60 * kTicksPerSec);
      wp->AddMic(mic, client_ids);
    });
  };
  return config;
}

/// One trial's raw outcome, collected by index and folded serially.
struct TrialOutcome {
  RunResult run;
  double storm_at_s = 0.0;
  std::shared_ptr<EventTrace> trace;  ///< Trial 0 only, when tracing.
};

ArmResult RunArm(const Arm& arm, std::uint64_t seed0, int trials,
                 int clients, bool trace, int jobs, bool geodb) {
  ArmResult out;
  // The storm's arrival phase relative to the chirp/scan cycles decides
  // whether a deterministic chirper is caught or stranded, so it must be
  // swept, not pinned: real incumbents key up at arbitrary phase.  Same
  // seed -> same per-trial onsets for every arm (paired comparison).
  // Onsets are drawn serially BEFORE dispatch so the storm schedule never
  // depends on the job count.
  Rng storm_rng(seed0 ^ 0x57A2B0ULL);
  std::vector<double> storm_onsets;
  storm_onsets.reserve(static_cast<std::size_t>(trials));
  for (int t = 0; t < trials; ++t) {
    storm_onsets.push_back(storm_rng.Uniform(5.0, 6.0));
  }

  const std::vector<TrialOutcome> outcomes = ParallelMap(
      jobs, static_cast<std::size_t>(trials), [&](std::size_t t) {
        TrialOutcome outcome;
        outcome.storm_at_s = storm_onsets[t];
        ScenarioConfig config =
            MakeConfig(arm, seed0 + static_cast<std::uint64_t>(t), clients,
                       outcome.storm_at_s, geodb);
        // --trace: dump trial 0's protocol-level story (chirps, switches,
        // faults) as JSONL for post-mortem of a pathological arm.
        if (trace && t == 0) {
          EventTraceOptions trace_options;
          trace_options.only = {
              TraceEventKind::kChirp,        TraceEventKind::kChannelSwitch,
              TraceEventKind::kIncumbentOn,  TraceEventKind::kIncumbentOff,
              TraceEventKind::kFaultInjected, TraceEventKind::kFaultCleared,
              TraceEventKind::kNote};
          outcome.trace = std::make_shared<EventTrace>(trace_options);
          config.obs.trace = outcome.trace.get();
        }
        outcome.run = RunScenario(config);
        return outcome;
      });

  // Serial fold in trial order: histogram insertion order is part of the
  // byte-identity contract.
  for (const TrialOutcome& outcome : outcomes) {
    if (outcome.trace != nullptr) out.trace = outcome.trace;
    const RunResult& run = outcome.run;
    for (double outage_s : run.outages_s) out.outages.Add(outage_s);
    out.disconnects += run.disconnects;
    // Clients still disconnected at run end are censored, not invisible:
    // they enter the histogram at their observed lower bound (run end
    // minus storm onset), otherwise an arm that strands clients would
    // show BETTER percentiles than one that rescues them slowly.
    const int stuck = run.disconnects - static_cast<int>(run.outages_s.size());
    for (int s = 0; s < stuck; ++s) {
      out.outages.Add(kRunEndS - outcome.storm_at_s);
    }
    out.unrecovered += stuck;
    out.faults += run.faults_injected;
    out.geodb_degraded += run.geodb_degraded;
    out.geodb_recovered += run.geodb_recovered;
    out.geodb_queries += run.geodb_queries;
    out.geodb_pushes += run.geodb_pushes;
  }
  return out;
}

/// The --json report's entries.  Every "throughput" here is a
/// deterministic function of the simulation (same seed = same bytes), so
/// bench/compare_bench.py can gate it against a committed baseline with a
/// tight threshold: a drop in 1/p95 IS a recovery-latency regression, not
/// machine noise.
std::vector<std::pair<std::string, double>> JsonEntries(
    const std::vector<Arm>& arms, const std::vector<ArmResult>& results,
    bool geodb) {
  std::vector<std::pair<std::string, double>> entries;
  for (std::size_t a = 0; a < arms.size(); ++a) {
    const ArmResult& r = results[a];
    const std::string prefix = "chaos/" + arms[a].label + "/";
    const double p95 = r.outages.Percentile(95);
    entries.emplace_back(prefix + "recovery_p95_inv",
                         p95 > 0.0 ? 1.0 / p95 : 0.0);
    const double samples = static_cast<double>(r.outages.Count());
    entries.emplace_back(
        prefix + "rescued_frac",
        samples > 0.0 ? (samples - r.unrecovered) / samples : 0.0);
    if (geodb) {
      entries.emplace_back(prefix + "geodb_recovered_per_degraded",
                           r.geodb_degraded > 0
                               ? static_cast<double>(r.geodb_recovered) /
                                     static_cast<double>(r.geodb_degraded)
                               : 0.0);
    }
  }
  return entries;
}

int Main(int argc, char** argv) {
  int trials = 10;
  int clients = 4;
  int jobs = 1;
  std::uint64_t seed = 1;
  std::string trace_prefix;
  std::string json_path;
  bool geodb = false;
  ParseFlags(argc, argv,
             {Number("--trials", trials, 1), Number("--seed", seed),
              Number("--clients", clients, 1), Text("--trace", trace_prefix),
              Jobs(jobs), Switch("--geodb", geodb), Text("--json", json_path)});

  std::cout << "Chaos soak: reconnect time under a " << clients
            << "-client disconnect storm + fault injection\n"
            << "(" << trials << " trials per arm, seed " << seed
            << "; mic audible to clients only, 25% chirp-detection miss,\n"
            << " 5% beacon loss, 4 s scanner outage at storm onset;\n"
            << " clients still down at run end are censored at the cap)\n";
  if (geodb) {
    std::cout << "geo-db arm: mobile clients, dynamic geo-db sessions, "
                 "6 s DB outage at storm onset\n";
  }
  std::cout << "\n";

  const std::vector<Arm> arms{
      {"fixed", 0.0, false, false, false},
      {"+jitter", 0.2, false, false, false},
      {"+backoff", 0.2, true, false, false},
      {"+escalation", 0.2, true, true, false},
      {"+scan-retry", 0.2, true, true, true},
  };

  Table table({"arm", "samples", "p50 s", "p90 s", "p95 s", "max s",
               "stuck", "faults"});
  std::vector<ArmResult> results;
  for (const Arm& arm : arms) {
    results.push_back(
        RunArm(arm, seed, trials, clients, !trace_prefix.empty(), jobs, geodb));
    const ArmResult& r = results.back();
    if (r.trace != nullptr) {
      const std::string path = trace_prefix + arm.label + ".jsonl";
      if (!WriteOutput("trace", path,
                       [&](std::ostream& os) { r.trace->WriteJsonl(os); })) {
        return 1;
      }
      std::cerr << "trace: " << path << " (" << r.trace->events().size()
                << " events)\n";
    }
    table.AddRow({arm.label, std::to_string(r.outages.Count()),
                  FormatDouble(r.outages.Percentile(50), 2),
                  FormatDouble(r.outages.Percentile(90), 2),
                  FormatDouble(r.outages.Percentile(95), 2),
                  FormatDouble(r.outages.Max(), 2),
                  std::to_string(r.unrecovered),
                  std::to_string(r.faults)});
  }
  table.Print(std::cout);

  const double fixed_p95 = results[0].outages.Percentile(95);
  const double backoff_p95 = results[2].outages.Percentile(95);
  std::cout << "\nchirp backoff p95: " << FormatDouble(backoff_p95, 2)
            << " s vs fixed-interval " << FormatDouble(fixed_p95, 2)
            << " s  ->  "
            << (backoff_p95 < fixed_p95 ? "IMPROVED" : "NOT IMPROVED")
            << "\n";
  // Stuck clients are unbounded outages: an arm that strands fewer
  // clients wins even before comparing percentiles.
  std::cout << "stranded clients: fixed " << results[0].unrecovered
            << ", fully hardened " << results.back().unrecovered << "\n";
  long long degraded = 0, recovered = 0;
  if (geodb) {
    std::uint64_t queries = 0, pushes = 0;
    for (const ArmResult& r : results) {
      degraded += r.geodb_degraded;
      recovered += r.geodb_recovered;
      queries += r.geodb_queries;
      pushes += r.geodb_pushes;
    }
    std::cout << "geodb: " << queries << " queries, " << pushes
              << " pushes, " << degraded << " degraded / " << recovered
              << " recovered transitions\n";
  }
  if (!json_path.empty()) {
    const std::vector<std::pair<std::string, std::string>> context{
        {"executable", "\"bench_chaos_recovery\""},
        {"whitefi_trials", std::to_string(trials)},
        {"whitefi_clients", std::to_string(clients)},
        {"whitefi_seed", std::to_string(seed)},
        {"whitefi_geodb", geodb ? "true" : "false"}};
    if (!WriteOutput("json report", json_path, [&](std::ostream& os) {
          WriteBenchReport(os, context, JsonEntries(arms, results, geodb));
        })) {
      return 1;
    }
    std::cout << "json report: " << json_path << "\n";
  }
  // Acceptance.  Default: the backoff hardening beats fixed-interval
  // chirping on p95 reconnect.  --geodb: the outage churn, not chirp
  // phasing, dominates the percentiles, so the criterion is the recovery
  // protocol's own — every session that degraded came back fresh (the
  // per-arm latency profile is gated separately via --json +
  // compare_bench.py against the committed baseline).
  if (geodb) {
    const bool healthy = degraded > 0 && recovered == degraded;
    std::cout << "geodb recovery: "
              << (healthy ? "ALL SESSIONS RECOVERED" : "INCOMPLETE") << "\n";
    return healthy ? 0 : 1;
  }
  return backoff_p95 < fixed_p95 ? 0 : 1;
}

}  // namespace
}  // namespace whitefi::bench

int main(int argc, char** argv) {
  return whitefi::bench::Main(argc, argv);
}
