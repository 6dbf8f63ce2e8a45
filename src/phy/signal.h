// Raw-signal synthesis: the KNOWS/USRP scanner substitute.
//
// The paper's scanner is a USRP that samples 1 MHz of spectrum at
// 1 MSample/s and hands (I,Q) pairs to the PC; SIFT consumes only the
// amplitude envelope sqrt(I^2 + Q^2) (Figure 5).  This module synthesizes
// exactly that envelope:
//
//  * in-burst samples are Rayleigh distributed (the magnitude of a complex
//    Gaussian — the statistics of an OFDM signal envelope), which also
//    reproduces the deep mid-packet amplitude dips visible in Figure 5
//    that motivate SIFT's moving-average window;
//  * the noise floor is Rayleigh as well (complex Gaussian noise);
//  * 5 MHz packets optionally begin with a low-amplitude ramp — the
//    hardware artifact the paper blames for SIFT's slightly lower
//    detection rate at 5 MHz (Table 1 discussion);
//  * attenuation scales the signal (not the noise) amplitude.
#pragma once

#include <span>
#include <vector>

#include "obs/phase_timer.h"
#include "phy/timing.h"
#include "util/rng.h"
#include "util/units.h"

namespace whitefi {

/// Synthesis parameters; the defaults are calibrated so that the SIFT
/// detection cliff lands near 96 dB attenuation as in Figure 7.
struct SignalParams {
  /// USRP sample period (1 MSample/s => 1.024 us per paper Section 4.2.1).
  Us sample_period = 1.024;

  /// Rayleigh scale of the noise floor (ADC-like units).
  double noise_sigma = 1.2;

  /// Rayleigh scale of the signal envelope before attenuation.  With the
  /// default 50 dB reference attenuation this puts envelopes near the
  /// ~600-1000 unit amplitudes of Figure 5.
  double signal_sigma = 300000.0;

  /// Attenuation (dB) applied to the signal path (cable + RF attenuator).
  double attenuation_db = 50.0;

  /// 5 MHz ramp artifact: probability that a packet's initial portion is
  /// transmitted so low that it falls below SIFT's threshold.
  double deep_ramp_probability = 0.05;

  /// 5 MHz ramp artifact: ramp duration bounds (us).
  Us ramp_min_duration = 40.0;
  Us ramp_max_duration = 180.0;

  /// Amplitude factor of a "shallow" ramp (still detectable).
  double shallow_ramp_factor = 0.4;

  /// Amplitude factor of a "deep" ramp (below SIFT's threshold).
  double deep_ramp_factor = 0.004;
};

/// One on-air burst to synthesize.
struct Burst {
  Us start = 0.0;     ///< Burst start time (us).
  Us duration = 0.0;  ///< Burst length (us).
  /// When true the burst begins with the 5 MHz low-amplitude ramp artifact.
  bool ramp_artifact = false;
  /// Extra amplitude scale for this burst (1.0 = nominal).
  double amplitude_scale = 1.0;
};

/// Synthesizes amplitude-sample traces from burst schedules.
class SignalSynthesizer {
 public:
  SignalSynthesizer(const SignalParams& params, Rng rng);

  /// Produces `ceil(total_duration / sample_period)` amplitude samples for
  /// the given bursts (bursts may overlap; powers add approximately by
  /// taking the max envelope).
  std::vector<double> Synthesize(std::span<const Burst> bursts,
                                 Us total_duration);

  /// Like Synthesize, but writes into `samples` (resized to fit) so dwell
  /// and trial loops can reuse one scratch buffer instead of reallocating a
  /// multi-megasample trace per call.  Draw-for-draw identical to
  /// Synthesize: the same synthesizer state produces the same trace
  /// through either entry point.
  void SynthesizeInto(std::span<const Burst> bursts, Us total_duration,
                      std::vector<double>& samples);

  /// The configured parameters.
  const SignalParams& params() const { return params_; }

  /// Effective in-burst Rayleigh scale after attenuation.
  double AttenuatedSignalSigma() const;

  /// Attaches a profiler (may be null): synthesis runs under the
  /// "phy.synthesize" phase so dwell-loop cost shows up in --profile.
  void SetProfiler(PhaseProfiler* profiler) { profiler_ = profiler; }

 private:
  SignalParams params_;
  Rng rng_;
  PhaseProfiler* profiler_ = nullptr;
};

/// Builds the data-burst + SIFS-gap + ACK-burst pair for one unicast
/// exchange of `frame_bytes` at the given width, starting at `start`.
/// The 5 MHz ramp artifact is applied to the data burst when applicable.
std::vector<Burst> MakeDataAckExchange(const PhyTiming& timing, Us start,
                                       int frame_bytes);

/// Builds the beacon + SIFS + CTS-to-self pair the paper requires APs to
/// transmit so that SIFT can recognize them (Section 4.2.1).
std::vector<Burst> MakeBeaconCtsExchange(const PhyTiming& timing, Us start);

/// Builds a schedule of `count` data-ACK exchanges spaced `interval` apart
/// (e.g. iperf-style CBR traffic for the Table 1 experiments).
std::vector<Burst> MakeCbrSchedule(const PhyTiming& timing, int count,
                                   Us interval, int frame_bytes,
                                   Us first_start = 0.0);

}  // namespace whitefi
