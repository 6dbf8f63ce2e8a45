// Shared scenario runner for the paper's simulation experiments
// (Figures 10-14 and Section 5.3).
//
// Builds the paper's canonical setup: one WhiteFi AP with N associated
// clients (all backlogged, up- and downstream), plus background AP/client
// pairs transmitting CBR (or Markov-modulated CBR) on 5 MHz channels.
// The WhiteFi network either adapts (the real spectrum-assignment
// algorithm) or is pinned to a static channel (the OPT-w baselines: the
// paper's omniscient static algorithms, realized by exhaustively
// simulating every candidate channel and keeping the best).
#pragma once

#include <array>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "core/ap.h"
#include "core/client.h"
#include "fault/fault.h"
#include "geodb/runtime.h"
#include "sim/traffic.h"
#include "spectrum/spectrum_map.h"

namespace whitefi::bench {

/// Background-pair placement and traffic.
struct BackgroundSpec {
  UhfIndex channel = 0;            ///< 5 MHz home channel.
  SimTime cbr_interval = 30 * kTicksPerMs;
  int payload_bytes = 1000;
  /// When set, the pair is Markov on/off modulated (Figure 13).
  std::optional<MarkovOnOffSource::Params> markov;
  /// Activate at this time (and the deactivation below) — used by the
  /// Figure 14 script.  Defaults: always on.
  SimTime on_at = 0;
  SimTime off_at = -1;  ///< -1 = never.
};

/// One full scenario.
struct ScenarioConfig {
  std::uint64_t seed = 1;
  SpectrumMap base_map;          ///< TV incumbents (campus map etc.).
  int num_clients = 4;
  double client_map_flip_p = 0.0;  ///< Spatial variation (Figure 12).
  std::vector<BackgroundSpec> background;
  std::vector<MicActivation> mics;
  double warmup_s = 2.0;
  double measure_s = 5.0;
  int payload_bytes = 1000;
  /// nullopt = adaptive WhiteFi; otherwise a pinned static channel.
  std::optional<Channel> static_channel;
  ApParams ap_params;
  ClientParams client_params;
  /// Invoked after StartAll with access to the world (scripted events).
  std::function<void(World&)> customize;
  /// Optional observability sinks, copied into the WorldConfig (non-owning;
  /// must outlive the run).  Leave null for zero instrumentation cost.
  Observability obs;
  /// Fault schedule (see src/fault).  An Empty() plan — the default —
  /// creates no injector at all, so the run is byte-identical to one
  /// predating the fault subsystem.
  FaultPlan faults;
  /// Seed for the injector's own random stream.  Deliberately separate
  /// from `seed`: the injector must never perturb the simulation's fork
  /// sequence.  0 = derive from `seed` via the named "scenario.faults"
  /// substream (see DeriveSeed in util/rng.h).
  std::uint64_t fault_seed = 0;
  /// Optional runtime invariant auditor (non-owning; must outlive the
  /// run).  RunScenario threads it through the Observability bundle,
  /// attaches it to the world, and registers the AP and every client.
  /// Null — the default — costs nothing and keeps the run byte-identical.
  InvariantAuditor* auditor = nullptr;
  /// Dynamic geo-db service + per-device resilient sessions + client
  /// mobility (see src/geodb).  Disabled — the default — creates nothing
  /// and keeps the run byte-identical to a geodb-free build: every geodb
  /// random stream is a named substream of `seed`, never a world fork.
  /// When enabled and `auditor` is set, RunScenario also arms the
  /// position-aware incumbent-safety check against the runtime's ground
  /// truth.
  GeoDbRuntimeParams geodb;
};

/// The seed the fault injector will actually run with: `fault_seed` when
/// pinned, otherwise the named substream derived from `seed`.  Exposed so
/// tests can assert the substream discipline (never the raw root seed).
std::uint64_t ScenarioFaultSeed(const ScenarioConfig& config);

/// Result of one run.
struct RunResult {
  double per_client_mbps = 0.0;  ///< Aggregate / clients / measure window.
  double aggregate_mbps = 0.0;
  int switches = 0;
  int disconnects = 0;
  double max_outage_s = 0.0;
  /// Every completed outage across all clients, in seconds.
  std::vector<double> outages_s;
  /// Faults injected during the run (0 without a fault plan).
  std::uint64_t faults_injected = 0;
  Channel final_channel{0, ChannelWidth::kW5};
  // Geo-db session statistics (all zero when config.geodb is disabled).
  int geodb_degraded = 0;        ///< fresh -> degraded/blackout edges.
  int geodb_recovered = 0;       ///< -> fresh recovery edges.
  std::uint64_t geodb_queries = 0;
  std::uint64_t geodb_shed = 0;  ///< Overload rejections served.
  std::uint64_t geodb_pushes = 0;
};

/// Runs one scenario.
RunResult RunScenario(const ScenarioConfig& config);

/// Best static channel of width `w` (exhaustive over channels usable under
/// the base map), as per-client throughput.  Returns 0 when no candidate
/// exists.  `reduced_measure_s` trims the per-candidate simulation time.
/// `jobs` spreads the independent per-candidate simulations over a thread
/// pool; every candidate run is self-seeded from the config, so the result
/// is byte-identical at any job count (jobs <= 1 = the serial loop).
double OptStaticThroughput(const ScenarioConfig& config, ChannelWidth w,
                           double reduced_measure_s = 0.0, int jobs = 1);

/// OptStaticThroughput at each width, in kW5, kW10, kW20 order; OPT is
/// the largest of the three.
std::array<double, 3> OptThroughputPerWidth(const ScenarioConfig& config,
                                            double reduced_measure_s = 0.0,
                                            int jobs = 1);

/// Channels usable under the map AND free at every client map realization
/// implied by the config (used to restrict OPT candidates under spatial
/// variation; with flip_p == 0 this is just the base map's usable set).
std::vector<Channel> StaticCandidates(const ScenarioConfig& config,
                                      ChannelWidth w);

}  // namespace whitefi::bench
