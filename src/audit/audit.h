// InvariantAuditor — runtime cross-layer invariant checking.
//
// WhiteFi's promise is *safe* Wi-Fi-like operation: never transmit over an
// active incumbent beyond the detection+vacation budget, and always chirp
// back to a connected state after a vacation (paper §4.3, §5.3).  The
// auditor enforces that promise — plus engine-level sanity — while a
// scenario runs, by listening on the AuditHooks seams (sim/audit_hooks.h)
// threaded through the Observability bundle:
//
//   incumbent-safety   No audited node's transmission overlaps an active
//                      audible mic for longer than the safety budget
//                      (detect latency + vacation slack), measured from
//                      the later of mic-on and the node's arrival on the
//                      channel.  Exactly AT the budget passes; one tick
//                      past it trips.  When a GeoTruth oracle is armed
//                      (SetGeoTruth), the same invariant also checks every
//                      transmission against the geometric ground truth at
//                      the node's current position, under its own budget
//                      covering the geo-db notification path.
//   chirp-liveness     A disconnected audited client keeps chirping: the
//                      gap since its last chirp (or the disconnect) never
//                      exceeds the chirp/backoff bound derived from its
//                      ClientParams.
//   convergence        A *connected* audited client's tuned channel
//                      matches its AP's within the convergence budget
//                      after every switch.
//   book-conservation  The medium's per-channel union busy books equal an
//                      independently maintained interval-union reference
//                      (exact, in integer microsecond ticks).
//   monotonicity       Hook timestamps and the simulator clock never run
//                      backwards.
//   mac-timing         Every MAC timing update is internally consistent
//                      (DIFS = SIFS + 2 slots) and matches the width the
//                      radio is actually tuned to.
//
// The auditor is OFF by default (a null Observability::auditor pointer);
// attaching one adds only its own sweep events, which read but never
// mutate simulation state, so an auditor-free run is byte-identical to a
// run predating the subsystem.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "audit/geo_truth.h"
#include "core/client.h"
#include "sim/audit_hooks.h"
#include "sim/world.h"

namespace whitefi {

/// Auditor tuning.  Durations are simulated-time ticks (microseconds).
struct AuditConfig {
  /// Incumbent-safety budget: how long an audited node may keep
  /// transmitting over an audible active mic.  0 = derive at Attach() as
  /// the world's incumbent_detect_latency + safety_vacate_slack.
  SimTime safety_budget = 0;
  /// Vacation slack added to the detect latency when deriving the budget:
  /// time for the detecting node to abort its MAC and retune.  The default
  /// covers the AP's legitimate worst case — detection while an announce
  /// is pending defers the vacate by a 200 ms re-check (core/ap.cc), which
  /// can chain once more under churn — with margin; a vacation that never
  /// happens still blows through it within a second.
  SimTime safety_vacate_slack = 500 * kTicksPerMs;
  /// Chirp-liveness slack added to the per-client chirp/backoff bound.
  SimTime liveness_slack = 100 * kTicksPerMs;
  /// AP/client channel-view convergence budget.  0 = derive per client as
  /// contact_timeout + 2 * contact_check_interval + 1 s.
  SimTime convergence_budget = 0;
  /// Periodic sweep interval (liveness / convergence / books checks).
  SimTime sweep_interval = 250 * kTicksPerMs;
  /// Verify medium book conservation during sweeps.
  bool check_books = true;
  /// Budget for the position-aware (geometric) incumbent-safety check:
  /// how long an audited node may keep transmitting on a channel the
  /// ground-truth geo database protects at its current position.  Must
  /// cover the full notification path — push fan-out latency, or (during
  /// an outage) the scheduled-refresh interval plus the circuit-breaker
  /// trip to the conservative map — plus the vacate itself.  0 = use the
  /// budget suggested by the caller of SetGeoTruth (the geodb runtime
  /// derives it from its own timing parameters).
  SimTime geo_budget = 0;
  /// Violations retained verbatim (the count is always exact).
  std::size_t max_recorded = 64;
};

/// One invariant violation.
struct Violation {
  SimTime at = 0;          ///< Simulated time the check tripped.
  std::string invariant;   ///< "incumbent-safety", "chirp-liveness", ...
  int node = -1;           ///< Offending node id (-1: the world/engine).
  int channel = -1;        ///< UHF channel index involved (-1: none).
  std::string detail;      ///< Human-readable context.

  std::string ToString() const;
};

/// The world-level half of an audit: the hook clock, each UHF channel's
/// busy-time union and each node's last tune.  A world has one book.  An
/// auditor keeps its own unless it is handed a shared one: the auditors of
/// a city tile's cells share their tile's (shard::AuditFanout), so a
/// transmission updates one union however many cells the world holds.
class AuditBook {
 public:
  /// A node's last OnNodeTuned.
  struct Tune {
    Channel channel;
    SimTime at = 0;
  };

  /// Moves the hook clock to `now`.  False iff `now` is earlier than the
  /// last hook (the clock then stays put).
  bool Advance(SimTime now);

  /// The latest hook time seen.
  SimTime clock() const { return clock_; }

  /// Adds a transmission's air time to the union of every spanned channel.
  void AddTransmission(SimTime start, const Channel& channel,
                       SimTime duration);

  /// Union busy ticks of UHF channel `c` up to `now`.
  SimTime BusyAt(UhfIndex c, SimTime now) const;

  /// Records that `node` tuned to `channel` at `now`.
  void SetTune(SimTime now, int node, const Channel& channel);

  /// The node's last tune, or null before its first.
  const Tune* TuneOf(int node) const;

 private:
  /// Running interval union of transmissions on one UHF channel.  Starts
  /// arrive in nondecreasing time order (sim time is monotone), so the
  /// union is a closed prefix plus one open segment — O(1) per transmit.
  struct ChannelUnion {
    SimTime closed = 0;     ///< Ticks of busy time before the open segment.
    SimTime seg_start = 0;
    SimTime seg_end = 0;
    bool open = false;

    void Add(SimTime start, SimTime end);
    SimTime BusyAt(SimTime now) const;
  };

  SimTime clock_ = 0;
  std::array<ChannelUnion, static_cast<std::size_t>(kNumUhfChannels)> unions_;
  std::map<int, Tune> tunes_;
};

/// The runtime auditor.  Attach to a World through the Observability
/// bundle BEFORE constructing the World (the medium captures the bundle in
/// the World constructor), then call Attach() and register the WhiteFi
/// nodes to audit.  Unregistered nodes (background traffic) are exempt
/// from the protocol invariants but still feed the engine-sanity checks.
class InvariantAuditor : public AuditHooks {
 public:
  /// `book` is the world's shared book, which must outlive the auditor,
  /// or null for an auditor that keeps its own.
  explicit InvariantAuditor(const AuditConfig& config = {},
                            AuditBook* book = nullptr);

  InvariantAuditor(const InvariantAuditor&) = delete;
  InvariantAuditor& operator=(const InvariantAuditor&) = delete;

  /// Binds the auditor to a world: resolves the safety budget and starts
  /// the periodic sweep.  Call once, after World construction and before
  /// the run.  The auditor must outlive the world's run.
  void Attach(World& world);

  /// Marks `node` as the audited WhiteFi AP (convergence reference).
  void RegisterAp(int node);

  /// Marks `node` as an audited WhiteFi client; the chirp-liveness and
  /// convergence bounds derive from its params.
  void RegisterClient(int node, const ClientParams& params);

  /// Resolved incumbent-safety budget (valid after Attach).
  SimTime safety_budget() const { return safety_budget_; }

  /// Arms the position-aware incumbent-safety check against a geometric
  /// ground-truth oracle.  `suggested_budget` is the reaction allowance
  /// derived by the caller (typically GeoDbRuntime::SuggestedGeoBudget);
  /// a non-zero AuditConfig::geo_budget overrides it.  The oracle must
  /// outlive the run.  Pass nullptr to disarm.
  void SetGeoTruth(const GeoTruth* truth, SimTime suggested_budget);

  /// Resolved geometric-safety budget (0 until SetGeoTruth).
  SimTime geo_budget() const { return geo_budget_; }

  /// All retained violations, in detection order (capped at
  /// config.max_recorded; `violation_count()` is exact regardless).
  const std::vector<Violation>& violations() const { return violations_; }
  std::uint64_t violation_count() const { return violation_count_; }
  bool ok() const { return violation_count_ == 0; }

  /// The first violation, or nullptr when clean.
  const Violation* first_violation() const {
    return violations_.empty() ? nullptr : &violations_.front();
  }

  // -- AuditHooks ---------------------------------------------------------
  // Each hook updates the book, then runs this cell's checks below.
  void OnTransmitStart(SimTime now, const RadioPort& tx,
                       const Channel& channel, SimTime duration) override;
  void OnMacTiming(const RadioPort& radio, const PhyTiming& timing) override;
  void OnNodeTuned(SimTime now, int node, const Channel& channel) override;
  void OnClientDisconnected(SimTime now, int node) override;
  void OnClientReconnected(SimTime now, int node) override;
  void OnChirp(SimTime now, int node) override;

  // -- Cell checks ---------------------------------------------------------
  // The per-node halves of the hooks: they read the book but never write
  // it, and ignore a node this auditor does not audit.  The owner of a
  // shared book updates it once per hook and calls these on the one cell
  // that audits the node.
  void CheckTransmission(SimTime now, int node, const Channel& channel);
  void NoteDisconnected(SimTime now, int node);
  void NoteReconnected(int node);
  void NoteChirp(SimTime now, int node);
  /// Records a hook at `now` that ran the world's clock back from `last`.
  void ReportClockBackwards(SimTime now, SimTime last, const char* where);

 private:
  struct ClientState {
    bool connected = true;
    SimTime disconnected_at = 0;
    SimTime last_chirp = 0;
    SimTime chirp_bound = 0;        ///< Max legal gap between chirps.
    SimTime convergence_budget = 0;
    SimTime mismatch_since = -1;    ///< -1: views currently agree.
  };

  void Report(SimTime at, const char* invariant, int node, int channel,
              std::string detail);
  void CheckMonotonic(SimTime now, const char* where);
  void Sweep();
  void CheckLiveness(SimTime now);
  void CheckConvergence(SimTime now);
  void CheckBooks(SimTime now);
  /// Updates the per-(node, channel) geometric-protection clock for one
  /// audited node on one channel and returns the exposure so far (0 when
  /// the channel is not geo-protected at the node's position).
  SimTime GeoExposure(SimTime now, int node, UhfIndex channel);
  /// Sweeps the geo clocks over every audited node's tuned channel, so a
  /// protection contour arriving between transmissions (mobility, venue
  /// activation) starts its clock with sweep granularity at worst.
  void SweepGeoClocks(SimTime now);

  /// True iff `node` is this cell's AP or one of its clients.
  bool Audits(int node) const;

  AuditConfig config_;
  World* world_ = nullptr;
  SimTime safety_budget_ = 0;
  AuditBook own_book_;
  AuditBook* book_;

  int ap_node_ = -1;
  std::map<int, ClientState> clients_;

  /// Geometric ground truth (null = check disarmed).
  const GeoTruth* geo_truth_ = nullptr;
  SimTime geo_budget_ = 0;
  /// When the ground truth was first observed protecting (node, channel);
  /// erased when observed unprotected again, reset on report so one long
  /// exposure trips once per budget.  Keyed (node, uhf index).
  std::map<std::pair<int, int>, SimTime> geo_since_;

  std::vector<Violation> violations_;
  std::uint64_t violation_count_ = 0;
};

}  // namespace whitefi
