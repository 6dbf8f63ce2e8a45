// Batched multi-channel SIFT — N lanes, one detector each.
//
// A wideband dwell (or a simulated multi-channel sweep) produces one
// amplitude trace per channel.  `SiftBatch` holds one `SiftDetector` per
// lane, all built from one configuration (so one kernel resolution), and
// addresses them by lane index: a sweep keeps one batch alive and restarts
// only the lane of the channel it dwells on.
//
// Lanes are independent streams: a batch over N lanes is byte-identical
// to N independent `SiftDetector`s fed the same per-lane blocks in any
// chunking (sift_simd_property_test pins this).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "obs/obs.h"
#include "sift/detector.h"

namespace whitefi {

/// N SIFT lanes sharing one configuration.
class SiftBatch {
 public:
  /// All lanes share one configuration (window, threshold, kernel choice).
  /// Throws std::invalid_argument for zero lanes or a configuration
  /// SiftDetector rejects.
  SiftBatch(const SiftParams& params, std::size_t lanes);

  std::size_t lanes() const { return lanes_.size(); }

  /// The shared configuration.
  const SiftParams& params() const { return lanes_.front().params(); }

  /// Processes one block of amplitude samples on one lane.
  void ProcessBlock(std::size_t lane, std::span<const double> samples) {
    lanes_.at(lane).ProcessBlock(samples);
  }

  /// Flushes one lane's in-progress burst (treats its stream as ended).
  void Flush(std::size_t lane) { lanes_.at(lane).Flush(); }

  /// Flushes every lane.
  void FlushAll();

  /// Returns and clears the bursts completed so far on one lane.
  std::vector<DetectedBurst> TakeBursts(std::size_t lane) {
    return lanes_.at(lane).TakeBursts();
  }

  /// One-shot: feeds traces[i] to lane i, then flushes and takes each
  /// lane in order.  Lanes beyond traces.size() are left untouched.
  std::vector<std::vector<DetectedBurst>> DetectAll(
      std::span<const std::span<const double>> traces);

  /// Resets every lane to the start-of-stream state (see
  /// SiftDetector::Reset).
  void Reset();

  /// Resets one lane to the start-of-stream state, leaving the other lanes'
  /// streams untouched — the persistent-batch idiom for sweeps where each
  /// dwell restarts only the lane of the channel it sits on.
  void ResetLane(std::size_t lane) { lanes_.at(lane).Reset(); }

  /// Name of the kernel the lanes resolved to (see
  /// SiftDetector::kernel_name).
  const char* kernel_name() const { return lanes_.front().kernel_name(); }

  /// Attaches metrics/profiler sinks to every lane (see
  /// SiftDetector::SetObservability).
  void SetObservability(const Observability& obs);

 private:
  std::vector<SiftDetector> lanes_;
};

}  // namespace whitefi
