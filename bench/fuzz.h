// Seed-fuzz harness: randomized scenario generation under the invariant
// auditor, with deterministic repro bundles.
//
// The generator emits scenario CONFIG TEXT (the LoadScenario key set, flat
// dotted keys) rather than a ScenarioConfig struct: a repro bundle is that
// exact text plus an [expect] block describing the violation, and replay
// re-parses the identical bytes through the identical loader — so a
// reproduction is byte-identical by construction, not by a serializer
// staying faithful.
//
// Bundle format (INI, parseable by ConfigFile):
//   <generated scenario keys>        seed/map/network/background/mic/
//                                    client/fault — see LoadScenario
//   audit.safety_budget_ms = ...     auditor knobs (optional)
//   expect.invariant = ...           first violation of the recorded run
//   expect.at_us / node / channel / detail
//
// `whitefi --replay bundle` (examples/scenario_cli) and the soak driver
// (bench/bench_fuzz_soak.cc) both go through RunAuditedScenarioText /
// ReplayBundleText below.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "audit/audit.h"
#include "scenario.h"
#include "util/config.h"

namespace whitefi::bench {

/// Generator knobs shared by the soak driver and tests.
struct FuzzOptions {
  std::uint64_t root_seed = 1;
  /// Incumbent-safety budget override in ms (0 = auditor default).  Wired
  /// into the generated text so a repro bundle carries it.
  long long safety_budget_ms = 0;
  /// Geometric-safety budget override in ms (0 = the budget the geodb
  /// runtime derives from its own timing).  A deliberately weakened value
  /// is the geodb soak's fail-closed self-test.
  long long geo_budget_ms = 0;
};

/// Deterministically generates the scenario text for fuzz trial `index`.
/// All randomness derives from the root seed via the named
/// "fuzz.trial.<index>" substream; same (options, index) = same bytes.
std::string GenerateFuzzScenario(const FuzzOptions& options,
                                 std::uint64_t index);

/// Geo-db flavored trial: every scenario enables the simulated geo-db
/// service with randomized service latency / queue / staleness, tight
/// session (refresh / backoff / breaker) timings, venue churn (often
/// backed by real mics), client mobility, and geodb fault pressure (DB
/// outage windows, served-data staleness, push-update storms).  Runs are
/// audited with the position-aware incumbent-safety check armed via the
/// runtime's ground truth.  Substream: "fuzz.geodb.trial.<index>".
std::string GenerateGeoDbFuzzScenario(const FuzzOptions& options,
                                      std::uint64_t index);

/// One audited run.
struct AuditedRun {
  RunResult result;
  std::vector<Violation> violations;   ///< Retained (capped) violations.
  std::uint64_t violation_count = 0;   ///< Exact count.
  SimTime safety_budget = 0;           ///< Budget the auditor resolved.

  bool ok() const { return violation_count == 0; }
};

/// Reads the auditor knobs (audit.*) from a parsed config.  Exposed so
/// the CLI's --audit path shares the key set with replay.  Throws
/// std::runtime_error on an audit.*_ms value outside [0, INT_MAX] or an
/// audit.sweep_ms of 0.
AuditConfig LoadAuditConfig(const ConfigFile& config);

/// Parses scenario text (audit.* keys honored, expect.* ignored) and runs
/// it under a fresh InvariantAuditor.
AuditedRun RunAuditedScenarioText(const std::string& text);

/// Appends the [expect] block for `v` to scenario text, producing a repro
/// bundle.  Any previous expect block is dropped first.
std::string MakeReproBundle(const std::string& scenario_text,
                            const Violation& v);

/// The expect block of a bundle; nullopt when absent.
std::optional<Violation> BundleExpectation(const ConfigFile& config);

/// Replay outcome: did the re-run produce the identical first violation?
struct ReplayOutcome {
  bool reproduced = false;
  Violation expected;
  std::optional<Violation> got;  ///< First violation of the re-run, if any.
  std::string message;           ///< Human-readable verdict.
};

/// Re-runs a bundle and compares its first violation field-for-field
/// (invariant, sim-time, node, channel, detail) against the expect block.
ReplayOutcome ReplayBundleText(const std::string& text);

/// Bisecting minimizer: shrinks the run duration (in whole seconds, from
/// the ceiling of a fractional one) and drops clients / background pairs
/// while a violation of the same invariant still fires,
/// then refreshes the expect block from the minimized run.  Returns the
/// minimized bundle (the input itself when nothing could be removed).
/// `steps`, when non-null, receives the number of accepted reductions.
std::string MinimizeBundle(const std::string& bundle_text,
                           int* steps = nullptr);

}  // namespace whitefi::bench
