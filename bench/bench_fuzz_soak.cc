// Seed-fuzz soak: randomized scenarios under the invariant auditor.
//
// Each trial generates a scenario (maps, clients, background pairs, mic
// schedules, protocol hardenings, fault plans) from a named substream of
// the root seed and runs it with every cross-layer invariant armed:
// incumbent safety, chirp liveness, view convergence, medium book
// conservation, clock monotonicity, MAC timing.  A clean soak exits 0.
//
// --geodb soaks GenerateGeoDbFuzzScenario (fuzz.h) instead: the geo-db
// service, session recovery, venue churn, mobility and geo-db faults, with
// the auditor checking every transmission against the geometric ground
// truth at the node's CURRENT position.  A clean geo-db soak in which no
// session ever degraded fails: it never exercised the recovery protocol.
//
// On a violation the soak fails CLOSED with an artifact, not a log line:
// the lowest-index violating trial's scenario text plus its first
// violation become a repro bundle (minimized by default), written to
// --out, and `scenario_cli --replay <bundle>` reproduces the identical
// violation byte-for-byte.
//
// Flags (each value flag also takes the `--flag=value` form):
//   --seeds N              trials to run, N >= 0 (default 20)
//   --jobs N               parallel trials; byte-identical to --jobs 1
//   --root-seed S          substream root, unsigned (default 1)
//   --safety-budget-ms M   override the incumbent-safety budget — a
//                          deliberately weakened budget (e.g. 1) is the
//                          self-test that the pipeline detects, bundles,
//                          and replays a violation
//   --geodb                run the geo-db chaos generator
//   --geo-budget-ms M      the same for the geometric-safety budget;
//                          needs --geodb
//   --out PATH             bundle path (default fuzz_repro.bundle, or
//                          geodb_repro.bundle with --geodb)
//   --no-minimize          write the raw failing bundle unminimized
//
// Exit status: 0 all trials clean; 1 a violation (bundle written), a
// geo-db soak that never degraded, or an unwritable bundle; 2 bad flags.
#include <iostream>
#include <string>
#include <vector>

#include "flags.h"
#include "fuzz.h"
#include "util/parallel.h"

namespace whitefi::bench {
namespace {

int Main(int argc, char** argv) {
  int seeds = 20;
  int jobs = 1;
  FuzzOptions options;
  int safety_budget_ms = 0;
  int geo_budget_ms = 0;
  bool geodb = false;
  std::string out_path;
  bool minimize = true;
  const auto given = ParseFlags(
      argc, argv,
      {Number("--seeds", seeds, 0), Jobs(jobs),
       Number("--root-seed", options.root_seed),
       Number("--safety-budget-ms", safety_budget_ms, 0),
       Switch("--geodb", geodb),
       Number("--geo-budget-ms", geo_budget_ms, 0),
       Text("--out", out_path), Switch("--no-minimize", minimize, false)});
  if (!geodb && given.contains("--geo-budget-ms")) {
    FlagError("--geo-budget-ms needs --geodb");
  }
  if (!given.contains("--out")) {
    out_path = geodb ? "geodb_repro.bundle" : "fuzz_repro.bundle";
  }
  options.safety_budget_ms = safety_budget_ms;
  options.geo_budget_ms = geo_budget_ms;

  std::cout << (geodb ? "Geo-db chaos soak: " : "Fuzz soak: ") << seeds
            << (geodb ? " randomized geo-db scenarios, position-aware "
                        "incumbent safety armed"
                      : " randomized scenarios under the invariant auditor")
            << " (root seed " << options.root_seed;
  if (safety_budget_ms > 0) {
    std::cout << ", safety budget " << safety_budget_ms << " ms";
  }
  if (geo_budget_ms > 0) {
    std::cout << ", geo budget " << geo_budget_ms << " ms";
  }
  std::cout << ")\n";

  // Scenario text depends only on (root seed, index) — never on
  // scheduling — so any --jobs N collects the same runs in the same index
  // order, and the failing trial's text can be generated again.
  auto scenario = [&](std::size_t t) {
    const auto index = static_cast<std::uint64_t>(t);
    return geodb ? GenerateGeoDbFuzzScenario(options, index)
                 : GenerateFuzzScenario(options, index);
  };
  const std::vector<AuditedRun> runs =
      ParallelMap(jobs, static_cast<std::size_t>(seeds), [&](std::size_t t) {
        return RunAuditedScenarioText(scenario(t));
      });

  std::uint64_t total_faults = 0, queries = 0, shed = 0, pushes = 0;
  long long degraded = 0, recovered = 0;
  double total_mbps = 0.0;
  int failing = -1;
  for (int t = 0; t < seeds; ++t) {
    const AuditedRun& run = runs[static_cast<std::size_t>(t)];
    total_faults += run.result.faults_injected;
    total_mbps += run.result.aggregate_mbps;
    queries += run.result.geodb_queries;
    shed += run.result.geodb_shed;
    pushes += run.result.geodb_pushes;
    degraded += run.result.geodb_degraded;
    recovered += run.result.geodb_recovered;
    if (!run.ok() && failing < 0) failing = t;
  }
  std::cout << "ran " << seeds << " trials, " << total_faults
            << " faults injected, mean "
            << (seeds > 0 ? total_mbps / seeds : 0.0) << " Mbps aggregate\n";
  if (geodb) {
    std::cout << "geodb: " << queries << " queries (" << shed << " shed), "
              << pushes << " pushes, " << degraded << " degraded / "
              << recovered << " recovered transitions\n";
    // A soak where no session ever degraded did not exercise the recovery
    // protocol at all — that is a generator bug, not a clean pass.
    if (failing < 0 && degraded == 0 && seeds > 0) {
      std::cout << "NO DEGRADED TRANSITIONS: the soak never stressed the "
                   "recovery path\n";
      return 1;
    }
  }

  if (failing < 0) {
    std::cout << "all invariants held\n";
    return 0;
  }

  const auto bad = static_cast<std::size_t>(failing);
  const Violation& first = runs[bad].violations.front();
  std::cout << "VIOLATION in trial " << failing << " ("
            << runs[bad].violation_count << " total): " << first.ToString()
            << "\n";
  std::string bundle = MakeReproBundle(scenario(bad), first);
  if (minimize) {
    int steps = 0;
    bundle = MinimizeBundle(bundle, &steps);
    std::cout << "minimizer accepted " << steps << " reductions\n";
  }
  if (!WriteOutput("repro bundle", out_path,
                   [&](std::ostream& os) { os << bundle; })) {
    return 1;
  }
  std::cout << "repro bundle: " << out_path << "\n"
            << "replay with: scenario_cli --replay " << out_path << "\n";
  return 1;
}

}  // namespace
}  // namespace whitefi::bench

int main(int argc, char** argv) {
  return whitefi::bench::Main(argc, argv);
}
