// Discovery driven by the full simulator.
//
// `SimulatedScanEnvironment` implements the ScanEnvironment interface on
// top of a live World: a SIFT scan advances simulation time by one dwell
// while watching the medium's airtime books for the target network's AP
// (SIFT needs no decoding, so any transmission energy on the scanned UHF
// channel suffices and the width is read exactly — SIFT's width inference
// is exact, see the PipelineWidthSweep tests); a beacon-decode attempt
// retunes the searching device and counts beacons actually received
// through the normal MAC/medium path.
//
// This binds L-SIFT / J-SIFT / the baseline to real beacon schedules,
// contention and tuning delays instead of the analytic model.
#pragma once

#include <optional>

#include "core/discovery.h"
#include "sim/world.h"

namespace whitefi {

/// ScanEnvironment over a running World.
class SimulatedScanEnvironment : public ScanEnvironment {
 public:
  /// `searcher` is the (not yet associated) device doing the scanning;
  /// `target_ssid` identifies the network being sought.  Dwells should
  /// cover at least one beacon interval (100 ms).
  SimulatedScanEnvironment(World& world, Device& searcher, int target_ssid,
                           SimTime sift_dwell = 120 * kTicksPerMs,
                           SimTime listen_dwell = 130 * kTicksPerMs);

  std::optional<SiftDetection> SiftScan(UhfIndex c) override;
  bool TryDecodeBeacon(const Channel& channel) override;

  /// Simulation time consumed by scans so far.
  SimTime TimeSpent() const { return spent_; }

 private:
  World& world_;
  Device& searcher_;
  int target_ssid_;
  SimTime sift_dwell_;
  SimTime listen_dwell_;
  SimTime spent_ = 0;
  int beacons_heard_ = 0;
};

}  // namespace whitefi
