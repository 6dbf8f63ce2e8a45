// The WhiteFi access point (paper Sections 4.1 and 4.3).
//
// Responsibilities:
//  * beacon every 100 ms, advertising the operating and backup channels;
//  * run the scanner sweep and collect client Report frames to maintain
//    AssignmentInputs; periodically re-evaluate the channel with the
//    MCham-based assigner (voluntary switches, with hysteresis and a
//    revert check if the measured throughput drops after the switch);
//  * on incumbent detection on the operating channel, vacate to the
//    backup channel, collect availability for T_c, reassign, announce,
//    and move the network;
//  * watch the backup channel for chirps with the secondary radio (every
//    3 s) and run the same collect/reassign flow when a disconnected
//    client signals an incumbent — or re-announce the current channels
//    ("rescue") when the chirper simply lost the network.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "core/assignment.h"
#include "sim/scanner.h"
#include "sim/world.h"

namespace whitefi {

/// AP protocol parameters.
struct ApParams {
  SimTime beacon_interval = 100 * kTicksPerMs;
  SimTime assignment_interval = 5 * kTicksPerSec;
  SimTime first_assignment_delay = 3 * kTicksPerSec;
  /// T_c: chirp/availability collection window after vacating (paper 4.3).
  SimTime collect_window = 500 * kTicksPerMs;
  SimTime switch_announce_gap = 15 * kTicksPerMs;
  int switch_announces = 5;
  /// A channel switch is applied as soon as every announce frame has been
  /// transmitted, or after this cap (heavily contended channels can delay
  /// broadcasts; switching earlier would destroy the queued announces).
  SimTime switch_announce_max_wait = 800 * kTicksPerMs;
  /// Voluntary-switch revert: re-check after this delay...
  SimTime revert_check_delay = 3 * kTicksPerSec;
  /// ...and revert if throughput fell below this fraction of the pre-switch
  /// rate.
  double revert_tolerance = 0.85;
  /// When false the AP never changes channels (static OPT baselines).
  bool adaptive = true;
  /// Hardening: alternate the chirp watch between the backup channel and
  /// the deterministic secondary backup (LowestFreeChannel of the AP's
  /// map).  Escalated clients chirping on their secondary backup are then
  /// heard by the watch instead of relying on the slow band sweep.  Off
  /// by default: the plain watch is the paper's protocol.
  bool watch_secondary_backup = false;
  /// Forget clients not heard from for this long.
  SimTime client_expiry = 20 * kTicksPerSec;
  AssignmentParams assignment;
  ScannerParams scanner;
};

/// A WhiteFi access point.
class ApNode : public Device {
 public:
  ApNode(World& world, int id, const DeviceConfig& device_config,
         const ApParams& params, Channel initial_main, Channel initial_backup);

  void Start() override;
  void OnIncumbentDetected(UhfIndex channel) override;

  const Channel& main_channel() const { return main_; }
  const Channel& backup_channel() const { return backup_; }
  int NumKnownClients() const { return static_cast<int>(clients_.size()); }
  int num_switches() const { return switches_; }
  int num_voluntary_switches() const { return voluntary_switches_; }
  Scanner& scanner() { return scanner_; }
  const SpectrumAssigner& assigner() const { return assigner_; }

  /// Latest decision metric of the operating channel (diagnostics).
  double last_metric() const { return last_metric_; }

 protected:
  void OnFrameReceived(const Frame& frame, Dbm rx_power) override;
  void OnSendComplete(const Frame& frame, bool success) override;
  void OnChannelSwitched(const Channel& channel) override;

 private:
  enum class State { kOperating, kCollecting, kRescuing };

  struct ClientInfo {
    SpectrumMap map;
    BandObservation observation;
    SimTime last_seen = 0;
  };

  void SendBeacon();
  void SampleRate();
  void EvaluateAssignment();
  AssignmentInputs BuildInputs();
  void ExpireClients();
  void AnnounceAndSwitch(const Channel& next_main, const Channel& next_backup,
                         bool voluntary);
  void ApplyPendingSwitch();
  /// `why` labels the vacate episode span ("incumbent" / "chirp");
  /// `flow` continues the trigger's causal flow (mic or chirper).
  void BeginCollect(const char* why, std::int64_t flow);
  void FinishCollect();
  void OnChirpHeard(const ChirpInfo& info, const Channel& heard_on);
  void RescueAnnounce(const Channel& where, std::int64_t flow);
  /// Flight recorder: opens/closes the AP's episode span (one vacate,
  /// assignment, or rescue); a fresh Begin closes any stale episode.
  void BeginEpisode(std::string name, std::int64_t flow);
  void EndEpisode();
  void UpdateSecondaryWatch();
  void ScheduleMicCheck(const Channel& channel);
  double RecentThroughputBps(SimTime window) const;

  ApParams params_;
  SpectrumAssigner assigner_;
  Scanner scanner_;
  Channel main_;
  Channel backup_;
  State state_ = State::kOperating;
  std::map<int, ClientInfo> clients_;
  int switches_ = 0;
  int voluntary_switches_ = 0;
  double last_metric_ = 0.0;

  // In-flight switch announcement.
  bool announce_pending_ = false;
  int announces_outstanding_ = 0;
  Channel pending_main_;
  Channel pending_backup_;
  bool pending_voluntary_ = false;
  EventId announce_timer_ = kInvalidEventId;

  // Throughput history for the revert check: (time, ssid bytes) samples.
  std::vector<std::pair<SimTime, std::uint64_t>> rate_samples_;

  // Revert bookkeeping.
  Channel revert_channel_;
  Channel revert_backup_;
  double pre_switch_rate_bps_ = 0.0;
  bool revert_armed_ = false;

  // Flight-recorder state: the current episode span (vacate/assignment/
  // rescue) and the announce child span inside it (0 = none).
  std::int64_t episode_span_ = 0;
  std::int64_t episode_flow_ = 0;
  std::string episode_name_;
  std::int64_t announce_span_ = 0;
};

}  // namespace whitefi
