// The secondary scanning radio.
//
// Every KNOWS device carries, besides its transceiver, a scanner (USRP)
// that sweeps the UHF band to (a) detect incumbents and (b) measure, per
// UHF channel, the busy airtime A_c and the number of foreign APs B_c —
// the inputs to the MCham metric.  The paper's prototype dwells 1 s per
// channel; the dwell is configurable here.
//
// The scanner also provides the background chirp watch of Section 4.3: it
// visits the AP's backup channel every `chirp_scan_interval` and reports
// any chirp frames that end during the dwell, identified by their SIFT
// length-code, without touching the main radio.
#pragma once

#include <functional>
#include <optional>

#include "sift/airtime.h"
#include "sim/node.h"

namespace whitefi {

/// Scanner configuration.
struct ScannerParams {
  /// Dwell per UHF channel during the sweep.  The paper's prototype uses
  /// 1 s; simulations use a shorter dwell so the metric converges faster.
  SimTime dwell = 250 * kTicksPerMs;
  /// Gaussian noise added to airtime measurements.
  double airtime_noise_stddev = 0.01;
  /// How often the chirp watch visits the backup channel (paper: 3 s).
  SimTime chirp_scan_interval = 3 * kTicksPerSec;
  /// How long the chirp watch stays on the backup channel per visit.
  SimTime chirp_scan_dwell = 300 * kTicksPerMs;
  /// Hardening: when a chirp-watch visit falls inside a scanner outage,
  /// probe again every `outage_retry_interval` until the hardware is back
  /// (then dwell immediately) instead of leaving chirpers unheard until
  /// the next regular visit.  Only ever active when a fault injector is
  /// attached, so the default costs nothing in clean runs.
  bool outage_retry = true;
  SimTime outage_retry_interval = 500 * kTicksPerMs;
};

/// Throws std::invalid_argument when any ScannerParams field is out of
/// range (non-positive dwell/intervals, negative noise).
void ValidateScannerParams(const ScannerParams& params);

/// The secondary radio of one device.
class Scanner {
 public:
  Scanner(Device& device, const ScannerParams& params);

  /// Starts the round-robin band sweep.
  void StartSweep();

  /// Latest per-channel observations (airtime, AP count, incumbent flag).
  const BandObservation& Observation() const { return observation_; }

  /// Number of completed full sweeps of the band.
  int SweepsCompleted() const { return sweeps_; }

  // -- Chirp watch ---------------------------------------------------------

  /// Callback for heard chirps: payload plus the channel it was heard on.
  using ChirpCallback = std::function<void(const ChirpInfo&, const Channel&)>;

  /// Begins watching `backup` for chirps of SSID `ssid`; `on_chirp` fires
  /// with the chirp payload and the channel it arrived on.  Chirps are
  /// also picked up opportunistically whenever the regular band sweep is
  /// dwelling on the chirp's channel — this implements the paper's
  /// "periodically scans all channels in an attempt to reconnect with
  /// 'lost' nodes" (a client chirping on a stale or secondary backup).
  void StartChirpWatch(Channel backup, int ssid, ChirpCallback on_chirp);

  /// Changes the watched backup channel.
  void SetChirpChannel(Channel backup) { chirp_channel_ = backup; }

  /// Hardening: also watch a secondary rendezvous channel (the
  /// deterministic secondary backup escalated chirpers fall back to).
  /// When set, chirp-watch visits alternate between the primary backup
  /// and this channel; nullopt (the default) restores the plain
  /// single-channel watch.
  void SetSecondaryChirpChannel(std::optional<Channel> secondary) {
    secondary_chirp_channel_ = secondary;
  }

  /// Medium-side hook: the world's chirp tap calls this for every chirp
  /// frame transmitted anywhere; the scanner filters by channel/ssid and
  /// by whether it is currently dwelling on the backup channel.
  void OfferChirp(const Channel& channel, const ChirpInfo& info);

 private:
  void BeginDwell();
  void EndDwell();
  void ChirpVisit();
  void ChirpRetryVisit();

  Device& device_;
  ScannerParams params_;
  Rng rng_;
  BandObservation observation_;
  UhfIndex cursor_ = 0;
  int sweeps_ = 0;
  bool sweeping_ = false;
  /// Books of the dwelt channel at dwell start — a dwell only ever reads
  /// the channel it sits on, so one ChannelBooks is the whole "before"
  /// state.
  ChannelBooks dwell_start_books_;

  bool chirp_watch_ = false;
  bool chirp_dwelling_ = false;
  bool retry_pending_ = false;
  Channel chirp_channel_{0, ChannelWidth::kW5};
  std::optional<Channel> secondary_chirp_channel_;
  /// True while the current dwell is on the secondary rendezvous channel
  /// (snapshotted in secondary_watch_); primary dwells keep following
  /// chirp_channel_ live, exactly as before the secondary watch existed.
  bool secondary_dwell_ = false;
  bool next_visit_secondary_ = false;
  Channel secondary_watch_{0, ChannelWidth::kW5};
  int chirp_ssid_ = 0;
  ChirpCallback on_chirp_;
};

}  // namespace whitefi
