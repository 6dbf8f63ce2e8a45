// Shared helpers for the SIFT signal-level experiments
// (Table 1, Figures 5-7): iperf-style packet schedules, synthesis, and
// per-packet detection matching.
#pragma once

#include <span>
#include <vector>

#include "phy/signal.h"
#include "sift/detector.h"

namespace whitefi::bench {

/// The per-sample reference synthesizer: sizes `samples` to
/// `ceil(total_duration / params.sample_period)`, draws the noise floor
/// and every in-burst amplitude one `Rng::Rayleigh` call at a time, in
/// sample order, and merges bursts by the max envelope.
/// `SignalSynthesizer::SynthesizeInto` must be byte-equal to it for the
/// same params, bursts and Rng (tests/phy_test.cc), and the micro bench
/// times the block path against it.
void ReferenceSynthesizeInto(const SignalParams& params, Rng& rng,
                             std::span<const Burst> bursts,
                             Us total_duration, std::vector<double>& samples);

/// One transmitted data packet's ground truth.
struct SentPacket {
  Us start = 0.0;
  Us duration = 0.0;
};

/// Ground truth + samples for one experiment run.
struct SignalRun {
  std::vector<SentPacket> packets;
  std::vector<double> samples;
  Us total_duration = 0.0;
};

/// Builds the paper's Section 5.1 methodology: `count` data-ACK exchanges
/// of `payload_bytes`-byte frames at the given width, spaced `interval_us`
/// apart, synthesized with `params`.
SignalRun MakeIperfRun(ChannelWidth width, int count, Us interval_us,
                       int payload_bytes, const SignalParams& params,
                       Rng rng);

/// Scratch-reusing variant: rebuilds `run` in place, reusing its existing
/// packet/sample capacity.  Trial loops that synthesize many multi-
/// megasample traces (Table 1's grid, the micro benches) call this to
/// avoid reallocating the trace every run.  Draw-for-draw identical to
/// MakeIperfRun with the same Rng.
void MakeIperfRunInto(ChannelWidth width, int count, Us interval_us,
                      int payload_bytes, const SignalParams& params, Rng rng,
                      SignalRun& run);

/// Counts how many sent packets SIFT detected.  A packet counts as
/// detected when a burst overlaps its air interval; when
/// `require_duration_match` is set the burst's measured length must also
/// be within `duration_tolerance_us` of the truth (the stricter criterion
/// behind Table 1, which the 5 MHz ramp artifact occasionally fails).
int CountDetected(const std::vector<SentPacket>& packets,
                  const std::vector<DetectedBurst>& bursts,
                  bool require_duration_match,
                  Us duration_tolerance_us = 100.0);

/// Coverage-based detection (the Figure 7 criterion): a packet counts as
/// detected when the detected bursts cover at least `min_coverage` of its
/// true air interval.  Near the sensitivity limit the envelope hovers
/// around SIFT's threshold and bursts fragment; requiring real coverage —
/// rather than any overlapping blip — is what produces the sharp cliff
/// once the mean envelope crosses the threshold.
int CountDetectedByCoverage(const std::vector<SentPacket>& packets,
                            const std::vector<DetectedBurst>& bursts,
                            double min_coverage = 0.3);

/// One experiment cell through the batched scanner: synthesizes `runs`
/// iperf runs (forking `rng` once per run, in run order — draw-for-draw
/// identical to the serial synthesize/detect loop) and classifies them
/// through `SiftBatch` lanes, flushing whenever the pending traces exceed
/// `sample_budget` samples so a low-rate cell's multi-megasample runs
/// don't all sit in memory at once.  Returns each run's CountDetected
/// result, in run order.  Byte-identical to the serial loop by the batch
/// kernel's identity contract.
std::vector<int> BatchedDetectionCounts(ChannelWidth width, int runs,
                                        int count, Us interval_us,
                                        int payload_bytes,
                                        const SignalParams& params, Rng& rng,
                                        bool require_duration_match,
                                        Us duration_tolerance_us = 100.0,
                                        std::size_t sample_budget = 32000000);

}  // namespace whitefi::bench
