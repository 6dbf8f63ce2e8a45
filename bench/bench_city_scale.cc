// bench_city_scale — the sharded-federation throughput driver.
//
// Runs one city description (bench/scenario_file.h) through
// shard::ShardEngine at one or more shard counts and reports simulation
// throughput.  Output is split by determinism:
//
//   stdout  the engine's deterministic run summary — integers only,
//           byte-identical for every shard count (CI diffs shards 1
//           against shards 8 directly) — plus the json-report path.
//   stderr  wall-clock timing and the scaling table (events/s, speedup
//           vs the first count) — machine-dependent, never diffed.
//
// Flags (each value flag also takes the `--flag=value` form): --config
// FILE (the description, e.g. the CI city bench/city_scale.conf; without
// it, an empty one: the default city for 5 s at seed 1), --shards N
// (single count), --sweep 1,2,4,8 (several counts in one process; the
// driver additionally asserts the summaries match byte-for-byte), each
// count >= 1; --audit (as shards.audit = true); --json PATH.
//
// Exit status: 0 success, 1 a summary or audit mismatch or an unwritable
// --json file, 2 a bad flag or a description it cannot run (malformed, a
// key it does not read, a bad value or city), refused before any run.
//
// --json PATH writes a google-benchmark-compatible report with two kinds
// of entries:
//   city/<metric>           deterministic simulation outputs (events,
//                           app_bytes, ghosts, messages per simulated
//                           second) — gated against the committed
//                           BENCH_city_scale.json at --threshold 0.01,
//                           so a behavior change in the sharded engine
//                           is a red build, not a silent drift.
//   city/shards_N/wall      wall-clock events/s at each swept count —
//                           machine-dependent, absent from the committed
//                           baseline (compare_bench reports them as new
//                           and does not gate them); CI instead pins the
//                           scaling floor intra-report via --speedup
//                           city/shards_1/wall:city/shards_4/wall:R,
//                           which cancels runner speed out.
#include <chrono>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "flags.h"
#include "scenario_file.h"
#include "util/report.h"

namespace whitefi::bench {
namespace {

struct RunOutput {
  std::string summary;
  int shards = 1;
  double wall_s = 0.0;
  std::uint64_t events = 0;
  bool audit_ok = true;
  std::uint64_t app_bytes = 0;
  std::uint64_t transmissions = 0;
  std::uint64_t ghosts = 0;
  std::uint64_t messages = 0;
};

/// The description at `path` (an empty one when `path` is empty), with
/// every key read; anything the driver cannot run exits 2.
CityScenario LoadDescription(const std::string& path) try {
  const ConfigFile config =
      path.empty() ? ConfigFile() : ConfigFile::Load(path);
  CityScenario scenario = LoadCityScenario(config);
  const std::vector<std::string> unknown = config.UnconsumedKeys();
  if (!unknown.empty()) {
    throw ConfigError("unknown key '" + unknown.front() + "'",
                      config.source(), config.LineOf(unknown.front()));
  }
  return scenario;
} catch (const std::exception& error) {
  FlagError(error.what());
}

RunOutput RunOnce(const CityScenario& scenario, int shards) {
  shard::ShardEngineConfig config = scenario.engine;
  config.shards = shards;
  shard::ShardEngine engine(scenario.city, config);
  const auto t0 = std::chrono::steady_clock::now();
  engine.Run(scenario.seconds);
  const auto t1 = std::chrono::steady_clock::now();
  RunOutput out;
  out.summary = engine.SummaryText();
  out.shards = shards;
  out.wall_s = std::chrono::duration<double>(t1 - t0).count();
  out.events = engine.EventsProcessed();
  out.audit_ok = !config.audit || engine.audit_ok();
  out.app_bytes = engine.AppBytesTotal();
  out.transmissions = engine.Transmissions();
  out.ghosts = engine.ghosts_injected();
  out.messages = engine.messages_shipped();
  return out;
}

/// Google-benchmark-compatible report.  The city/<metric> entries are
/// deterministic per-simulated-second rates (same scenario = same bytes);
/// the city/shards_N/wall entries carry real wall-clock throughput.
void WriteJsonReport(std::ostream& os, const shard::CityParams& city,
                     double seconds, const std::vector<RunOutput>& runs) {
  // WHITEFI_BUILD_TYPE comes from bench/CMakeLists.txt.
  const std::vector<std::pair<std::string, std::string>> context{
      {"executable", "\"bench_city_scale\""},
      {"whitefi_build_type", "\"" WHITEFI_BUILD_TYPE "\""},
      {"whitefi_aps", std::to_string(city.num_aps)},
      {"whitefi_clients_per_ap", std::to_string(city.clients_per_ap)},
      {"whitefi_roams", std::to_string(city.num_roams)},
      {"whitefi_mics", std::to_string(city.num_mics)},
      {"whitefi_seconds", FormatDouble(seconds, 6)},
      {"whitefi_seed", std::to_string(city.seed)}};
  // Deterministic per-simulated-second rates: the committed baseline.
  const RunOutput& base = runs[0];
  std::vector<std::pair<std::string, double>> entries{
      {"city/events", static_cast<double>(base.events) / seconds},
      {"city/app_bytes", static_cast<double>(base.app_bytes) / seconds},
      {"city/transmissions",
       static_cast<double>(base.transmissions) / seconds},
      {"city/ghosts", static_cast<double>(base.ghosts) / seconds},
      {"city/messages", static_cast<double>(base.messages) / seconds}};
  // Machine-dependent wall-clock throughput per swept shard count: never
  // committed, gated only intra-report (--speedup) so runner speed
  // cancels out.
  for (const RunOutput& r : runs) {
    // Underscore, not a colon: the name must survive compare_bench's
    // colon-separated --speedup BASE:VARIANT:MINRATIO specs.
    entries.emplace_back(
        "city/shards_" + std::to_string(r.shards) + "/wall",
        r.wall_s > 0.0 ? static_cast<double>(r.events) / r.wall_s : 0.0);
  }
  WriteBenchReport(os, context, entries);
}

int Main(int argc, char** argv) {
  std::string config_path;
  bool audit = false;
  std::string json_path;
  std::vector<int> counts{1};
  ParseFlags(argc, argv,
             {{"--shards",
               [&](const std::string& value) {
                 counts.assign(1, FlagValue<int>("--shards", value, 1));
               }},
              List("--sweep", counts, 1), Text("--config", config_path),
              Switch("--audit", audit), Text("--json", json_path)});
  CityScenario scenario = LoadDescription(config_path);
  if (audit) scenario.engine.audit = true;
  const shard::CityParams& city = scenario.city;
  const double seconds = scenario.seconds;

  std::cerr << "city: " << city.num_aps << " APs x " << city.clients_per_ap
            << " clients, " << seconds << " s simulated, seed " << city.seed
            << (scenario.engine.audit ? ", audited" : "") << "\n";

  std::vector<RunOutput> runs;
  for (int c : counts) {
    runs.push_back(RunOnce(scenario, c));
    const RunOutput& r = runs.back();
    std::cerr << "shards " << c << ": wall "
              << FormatDouble(r.wall_s, 3) << " s, "
              << FormatDouble(static_cast<double>(r.events) / r.wall_s, 0)
              << " events/s\n";
  }

  // Every count must produce the same science, byte for byte — the core
  // determinism claim of the sharded engine, asserted here on every run,
  // not only in CI.
  for (std::size_t i = 1; i < runs.size(); ++i) {
    if (runs[i].summary != runs[0].summary) {
      std::cerr << "FAIL: summary at shards " << counts[i]
                << " differs from shards " << counts[0] << "\n";
      return 1;
    }
  }
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (!runs[i].audit_ok) {
      std::cerr << "FAIL: invariant violation at shards " << counts[i]
                << "\n";
      return 1;
    }
  }

  std::cout << runs[0].summary;

  if (runs.size() > 1) {
    const double base_wall = runs[0].wall_s;
    std::cerr << "\nscaling (vs shards " << counts[0] << "):\n";
    for (const RunOutput& r : runs) {
      std::cerr << "  shards " << r.shards << ": speedup "
                << FormatDouble(base_wall / r.wall_s, 2) << "x\n";
    }
  }

  if (!json_path.empty()) {
    if (!WriteOutput("json report", json_path, [&](std::ostream& os) {
          WriteJsonReport(os, city, seconds, runs);
        })) {
      return 1;
    }
    std::cout << "json report: " << json_path << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace whitefi::bench

int main(int argc, char** argv) try {
  return whitefi::bench::Main(argc, argv);
} catch (const std::invalid_argument& error) {
  // A city the engine cannot build (a tile below the cutoff).
  whitefi::bench::FlagError(error.what());
}
