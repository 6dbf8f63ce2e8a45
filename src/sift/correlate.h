// Correlation-based chirp start detection (ablation of paper Section 4.3).
//
// SIFT's OOK path finds a chirp by edge-detecting the amplitude envelope:
// the chirp is "the burst", and its start is wherever the moving average
// crossed the threshold.  That is cheap but its timing error grows with
// the ramp artifact and with noise near the threshold.  The classical
// alternative is matched-filter correlation: slide a rectangular on/off
// template (guard zeros, then the on-region, then guard zeros) across the
// trace and take the position with the best match score.
//
// Two correlation scores are implemented, both O(n) via sliding sums:
//
//  * Normalized cross-correlation (NCC) — the zero-mean template against
//    the zero-mean window, normalized by both energies; amplitude-scale
//    invariant, score in [-1, 1], accepted above `ncc_threshold`.
//  * Plain dot product — the template is 0/1 so the score is just the
//    on-region sum; cheapest possible, but amplitude-dependent, so
//    acceptance uses a mean-amplitude threshold on the on-region.
//
// bench_ablation_chirp_offset sweeps SNR and reports the detection-offset
// distribution (detected minus actual start, in samples) of the OOK
// decoder versus both correlators.
#pragma once

#include <cstddef>
#include <optional>
#include <span>

namespace whitefi {

/// Template geometry and acceptance thresholds for the correlators.
struct ChirpCorrelatorParams {
  /// On-region length in samples (chirp duration / sample period).
  std::size_t chirp_samples = 391;  // 400 us at 1.024 us/sample.
  /// Zero guard on each side of the on-region; penalizes candidate
  /// positions whose surroundings are not quiet.  0 (the default) scales
  /// the guard automatically to max(32, chirp_samples / 4): a guard that
  /// stays a fixed *fraction* of the template keeps the NCC contrast
  /// independent of chirp length (a tiny fixed guard on a long chirp
  /// makes the zero-mean template almost constant, and the score
  /// collapses into the envelope's own variance).
  std::size_t guard_samples = 0;
  /// Minimum NCC score to accept a detection.  Note the ceiling: the
  /// OFDM envelope is Rayleigh, so its within-burst variance caps the
  /// correlation against a flat 0/1 template near ~0.6 even at high SNR,
  /// while a noise-only trace's best-of-scan score stays below ~0.2.
  double ncc_threshold = 0.3;
  /// Minimum mean on-region amplitude to accept a dot-product detection
  /// (same scale as SiftParams::threshold).
  double amplitude_threshold = 6.0;
};

/// An accepted chirp detection.
struct ChirpDetection {
  std::size_t position = 0;  ///< Estimated chirp start (sample index).
  double score = 0.0;        ///< Winning correlation score.
};

/// Sliding-window chirp-start estimator over amplitude traces.
class ChirpCorrelator {
 public:
  explicit ChirpCorrelator(const ChirpCorrelatorParams& params = {});

  /// Best NCC match, or nullopt when no position clears ncc_threshold.
  std::optional<ChirpDetection> DetectNcc(
      std::span<const double> samples) const;

  /// Best dot-product match, or nullopt when the winning on-region's mean
  /// amplitude is below amplitude_threshold.
  std::optional<ChirpDetection> DetectDot(
      std::span<const double> samples) const;

  const ChirpCorrelatorParams& params() const { return params_; }

 private:
  ChirpCorrelatorParams params_;
};

}  // namespace whitefi
