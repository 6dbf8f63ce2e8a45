// The WhiteFi client (paper Sections 4.1 and 4.3).
//
// A client tracks its AP through beacons, periodically reports its local
// spectrum map and airtime observations (the inputs to client-aware
// spectrum assignment), follows ChannelSwitch announcements, and — when it
// detects an incumbent on the operating channel or simply stops hearing
// the AP — vacates to the advertised backup channel and chirps until the
// network is reassembled.  If the backup channel itself hosts an
// incumbent, the client falls back to a deterministic secondary backup
// (the lowest incumbent-free UHF channel it observes) where the AP's
// sweeping scanner will eventually find its chirps.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/scanner.h"
#include "sim/world.h"

namespace whitefi {

/// Client protocol parameters.
struct ClientParams {
  /// Declare disconnection after this long without hearing the AP.
  SimTime contact_timeout = 1 * kTicksPerSec;
  SimTime contact_check_interval = 250 * kTicksPerMs;
  SimTime chirp_interval = 150 * kTicksPerMs;
  SimTime report_interval = 2 * kTicksPerSec;
  /// Chirp frame size; its air time carries the SSID length-code.
  int chirp_bytes = 60;
  /// Chirp period jitter: the next chirp fires after
  /// chirp_interval * Uniform(1 - j, 1 + j).  Must lie in [0, 1).
  double chirp_jitter = 0.2;
  /// Hardening: grow the chirp period by `chirp_backoff_factor` per chirp
  /// up to `chirp_interval_max` (reset on every disconnect).  Off by
  /// default; fixed-interval chirping from several clients disconnected by
  /// the same incumbent contends in lockstep forever.
  bool chirp_backoff = false;
  double chirp_backoff_factor = 1.6;
  SimTime chirp_interval_max = 2 * kTicksPerSec;
  /// Hardening: when a disconnect outlives `reconnect_stage_timeout`,
  /// escalate the rendezvous point — backup, then secondary backup, then a
  /// full sweep cycling the observed free channels — instead of chirping
  /// on a possibly-dead backup channel forever.  Off by default.
  bool reconnect_escalation = false;
  SimTime reconnect_stage_timeout = 4 * kTicksPerSec;
  ScannerParams scanner;
};

/// Throws std::invalid_argument when any ClientParams field is out of
/// range (non-positive intervals/sizes, jitter outside [0, 1), backoff
/// factor <= 1, chirp_interval_max below chirp_interval).
void ValidateClientParams(const ClientParams& params);

/// A WhiteFi client.
class ClientNode : public Device {
 public:
  ClientNode(World& world, int id, const DeviceConfig& device_config,
             const ClientParams& params, Channel initial_main,
             Channel initial_backup, int ap_id);

  void Start() override;
  void OnIncumbentDetected(UhfIndex channel) override;

  /// True while the client believes it is connected.
  bool connected() const { return connected_; }

  /// Completed outage durations (disconnect -> reconnect), in ticks.
  const std::vector<SimTime>& outages() const { return outages_; }

  /// Number of disconnection events so far.
  int disconnect_events() const { return disconnects_; }

  Scanner& scanner() { return scanner_; }

 protected:
  void OnFrameReceived(const Frame& frame, Dbm rx_power) override;

 private:
  void CheckContact();
  void Chirp();
  void SendReport();
  /// `cause` labels the recovery span ("lost_contact" / "incumbent");
  /// `cause_flow` continues the triggering event's causal flow (e.g. the
  /// mic's) so the flight recorder can join recovery to root cause.
  void Disconnect(const char* cause = "lost_contact",
                  std::int64_t cause_flow = 0);
  void Reconnect();
  void SelectSecondaryBackup();
  void ScheduleEscalation();
  void EscalateReconnect();
  /// Closes the open recovery phase span (if any) and opens `name` as a
  /// child of the recovery span.
  void BeginRecoveryPhase(std::string_view name);

  ClientParams params_;
  Scanner scanner_;
  Rng rng_;
  Channel backup_;
  int ap_id_;
  bool connected_ = true;
  SimTime last_contact_ = 0;
  SimTime disconnected_at_ = 0;
  int disconnects_ = 0;
  std::vector<SimTime> outages_;
  /// Current chirp period (== chirp_interval unless backoff grew it).
  SimTime chirp_period_ = 0;
  int reconnect_stage_ = 0;
  /// Bumped on every connect/disconnect edge; stale escalation timers
  /// compare their captured epoch and die silently.
  std::uint64_t reconnect_epoch_ = 0;
  // Flight-recorder state for the in-progress recovery (0 = none).
  std::int64_t recovery_span_ = 0;
  std::int64_t recovery_flow_ = 0;
  std::string recovery_name_;
  std::int64_t phase_span_ = 0;
  std::string phase_name_;
};

}  // namespace whitefi
