// Deterministic fault injection for the WhiteFi simulator.
//
// Real TVWS deployments degrade in dimensions the happy-path simulator
// never exercises: bursty frame loss on the control plane, scanner
// hardware outages and stale sweep results, SIFT false alarms and missed
// detections, unreachable or stale geo-location databases, and storms of
// incumbent churn.  `FaultPlan` declares those faults (directly or from a
// scenario config file's [fault] section); `FaultInjector` is the seeded
// runtime oracle the medium, scanners, and geo-db clients query at their
// injection points.
//
// Design rules:
//  * Null-by-default: a World without an injector (or with an Empty() plan)
//    takes exactly the same branches and draws exactly the same random
//    numbers as before this subsystem existed — bench outputs stay
//    byte-identical.
//  * Deterministic: the injector owns its own seeded Rng (never forked
//    from the World's stream), so enabling a fault cannot perturb the
//    random draws of unrelated components.
//  * Observable: every injection is counted in the metrics registry and
//    (for windowed faults) bracketed by kFaultInjected / kFaultCleared
//    EventTrace records, which round-trip through the JSONL export.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "sim/frame.h"
#include "sim/time.h"
#include "spectrum/incumbents.h"
#include "util/rng.h"

namespace whitefi {

class ConfigFile;

/// A half-open activity window [from, until) in simulation ticks.
struct FaultWindow {
  SimTime from = 0;
  SimTime until = 0;

  bool Covers(SimTime t) const { return t >= from && t < until; }
};

/// Gilbert–Elliott two-state burst-loss channel, evaluated per receiver:
/// each frame considered at a receiver first advances that receiver's
/// good/bad state, then draws a loss with the state's probability.
struct GilbertElliottParams {
  double p_enter_bad = 0.0;  ///< Per-frame good -> bad transition.
  double p_exit_bad = 0.1;   ///< Per-frame bad -> good transition.
  double loss_good = 0.0;    ///< Drop probability in the good state.
  double loss_bad = 1.0;     ///< Drop probability in the bad state.
};

/// A storm of short-lived wireless-mic activations: `mics` mics toggling
/// on/off across the free channels for `duration`, starting at `start`.
struct ChurnStorm {
  SimTime start = 0;
  SimTime duration = 0;
  int mics = 0;
  SimTime mean_on = 2 * kTicksPerSec;   ///< Mean mic on-duration.
  SimTime mean_off = 3 * kTicksPerSec;  ///< Mean gap between activations.
};

/// A storm of geo-db push updates: `venues` protected-venue registrations
/// toggling on/off near the cell for `duration`, each activation and
/// deactivation fanning out as a push notification to every subscribed
/// geo-db session (and loading the service's request queue, since pushed
/// sessions re-query).  The geometric counterpart of ChurnStorm.
struct PushStorm {
  SimTime start = 0;
  SimTime duration = 0;
  int venues = 0;
  SimTime mean_on = 2 * kTicksPerSec;   ///< Mean protection window.
  SimTime mean_off = 3 * kTicksPerSec;  ///< Mean gap between windows.
  double radius_km = 1.0;               ///< Venue protection radius.
  double spread_km = 2.0;               ///< Venues scatter within this of
                                        ///< the cell origin.
};

/// One expanded push-storm venue: where, which channel, and when it is
/// protected.  The runtime registers these in the ground-truth database,
/// so the audited geometry and the pushes sessions receive always agree.
struct StormVenue {
  UhfIndex channel = 0;
  double x_km = 0.0;
  double y_km = 0.0;
  double radius_km = 1.0;
  Us from = 0.0;
  Us until = 0.0;
};

/// The declarative fault schedule.  Default-constructed = no faults.
struct FaultPlan {
  // -- Medium: frame loss ---------------------------------------------------
  /// Burst loss applied to frames that passed the SINR decode check.
  std::optional<GilbertElliottParams> frame_loss;
  /// When non-empty, burst loss only applies inside these windows.
  std::vector<FaultWindow> frame_loss_windows;
  /// Targeted control-plane faults: independent per-frame drop draws.
  double beacon_drop_p = 0.0;
  double chirp_drop_p = 0.0;
  /// Corruption of any control frame (beacon, chirp, switch, report): the
  /// frame airs but the payload is unusable, so the receiver discards it.
  double control_corrupt_p = 0.0;

  // -- Scanner --------------------------------------------------------------
  /// Scanner hardware down: dwells measure nothing, the chirp watch is
  /// deaf.  Applies to every scanner in the world.
  std::vector<FaultWindow> scanner_outages;
  /// Probability a completed dwell silently serves stale (previous) data.
  double stale_scan_p = 0.0;

  // -- SIFT detection -------------------------------------------------------
  /// Probability an audible chirp fails to register at the scanner.
  double miss_chirp_p = 0.0;
  /// Per-dwell probability of flagging a phantom incumbent.
  double false_incumbent_p = 0.0;
  /// Per-dwell probability of overlooking a real incumbent.
  double miss_incumbent_p = 0.0;

  // -- Geo-location database ------------------------------------------------
  /// Refresh attempts inside these windows fail (database unreachable).
  std::vector<FaultWindow> geodb_outages;
  /// The database serves data this far behind the query time.
  Us geodb_staleness = 0.0;

  // -- Incumbent churn ------------------------------------------------------
  std::vector<ChurnStorm> storms;
  /// Geo-db venue churn: each storm becomes a burst of venue
  /// activation/deactivation push updates (see src/geodb).
  std::vector<PushStorm> push_storms;

  /// True iff every field still holds its default (no fault configured).
  bool Empty() const;
};

/// Parses a FaultPlan from a config file's `fault.*` keys.  Window lists
/// are comma-separated `from-until` ranges in seconds, e.g.
/// `fault.scanner_outages = 3-8, 12.5-20`.  Returns an empty plan when no
/// fault key is present.  Throws as ConfigFile::Get does (a malformed
/// window is a ConfigError, one ending before it starts a runtime error).
FaultPlan ParseFaultPlan(const ConfigFile& config);

/// The runtime fault oracle.  One per World; thread it via
/// WorldConfig::faults (non-owning, like the Observability sinks).
class FaultInjector {
 public:
  /// `seed` drives an Rng independent from every simulation stream.
  FaultInjector(const FaultPlan& plan, std::uint64_t seed);

  const FaultPlan& plan() const { return plan_; }

  /// Attaches metrics / trace sinks (pointers may be null).
  void SetObservability(const Observability& obs);

  // -- Medium injection point ----------------------------------------------
  /// Consulted for every frame that passed the SINR decode check at a
  /// receiver.  Returns a reason string ("beacon_drop", "ge_loss", ...)
  /// when the frame must be dropped, nullptr to deliver normally.
  const char* FrameFault(SimTime now, FrameType type, int rx_node);

  // -- Scanner injection points --------------------------------------------
  /// True while the scanner hardware is down (outage window).
  bool ScannerDown(SimTime now) const;
  /// Draw: this dwell's measurement is silently discarded as stale.
  bool StaleScan(SimTime now);
  /// Draw: an audible chirp is not registered.
  bool MissChirp(SimTime now);
  /// Draw: a dwell reports a phantom incumbent.
  bool FalseIncumbent(SimTime now);
  /// Draw: a dwell overlooks a real incumbent.
  bool MissIncumbent(SimTime now);

  // -- Geo-db injection points ---------------------------------------------
  /// False while a refresh attempt at `now` would fail.
  bool GeoDbAvailable(Us now) const;
  /// The effective data timestamp a query at `now` is served from.
  Us GeoDbServedTime(Us now) const;

  /// Expands the plan's churn storms into a deterministic mic schedule
  /// over `channels` (typically the scenario map's free channels).
  std::vector<MicActivation> ExpandStorms(const std::vector<UhfIndex>& channels);

  /// Expands the plan's push storms into deterministic timed venues over
  /// `channels`.  Like ExpandStorms, draws come from the injector's own
  /// stream, so the expansion never perturbs simulation randomness.
  std::vector<StormVenue> ExpandPushStorms(
      const std::vector<UhfIndex>& channels);

  /// One windowed fault boundary, for trace emission by the World.
  struct WindowEvent {
    SimTime at = 0;
    bool inject = true;  ///< true = window opens, false = it closes.
    std::string what;    ///< e.g. "scanner_outage".
  };

  /// Every windowed fault's open/close boundary, sorted by time.
  std::vector<WindowEvent> WindowEvents() const;

  /// Total faults injected so far (all kinds).
  std::uint64_t InjectedCount() const { return injected_; }

 private:
  /// Counts an injection and appends a kFaultInjected trace record.
  const char* Note(SimTime now, const char* what, int node);
  bool InFrameLossWindow(SimTime now) const;

  FaultPlan plan_;
  Rng rng_;
  Observability obs_;
  std::uint64_t injected_ = 0;
  /// Gilbert–Elliott state per receiver node id (true = bad).
  std::map<int, bool> ge_bad_;
};

}  // namespace whitefi
