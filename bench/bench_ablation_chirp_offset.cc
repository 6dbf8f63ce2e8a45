// Ablation: chirp start-detection accuracy — OOK edge detection versus
// correlation.
//
// The paper's backup-channel chirps are detected by SIFT's OOK path: the
// chirp is "the burst", and its start is wherever the moving average
// crossed the threshold.  This harness measures how accurately each
// method recovers the chirp's *position*, across SNR levels:
//
//   offset = detected start - actual start   (in samples)
//
// Per trial a single duration-coded chirp is synthesized at a random
// position in a quiet dwell; each method then estimates the start from
// the same trace, so the comparison is paired.  Methods:
//
//   ook  SiftDetector burst edge (the detected burst overlapping the
//        chirp; its start sample is the estimate)
//   ncc  normalized cross-correlation against the on/off template
//   dot  dot-product (guard-penalized on-region sum) correlation
//
// SNR is swept through the signal-path attenuation; the SIFT detection
// cliff sits near 96 dB (Figure 7), so the sweep's top level probes the
// regime where the envelope hovers around the threshold.
//
// Output: per (attenuation, method): detect rate and the p50 / p95 / max
// of |offset| in samples.  Deterministic: every trial is seeded by its
// grid index alone, so --jobs N is byte-identical to the serial run.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <optional>
#include <vector>

#include "flags.h"
#include "phy/signal.h"
#include "sift/chirp.h"
#include "sift/correlate.h"
#include "sift/detector.h"
#include "util/parallel.h"
#include "util/report.h"
#include "util/stats.h"

namespace whitefi::bench {
namespace {

constexpr int kTrialsPerLevel = 60;
constexpr Us kDwell = 20000.0;
constexpr std::uint64_t kSeedBase = 7000;

const std::vector<double> kAttenuationsDb{80.0, 90.0, 94.0};

struct TrialResult {
  // One entry per method (ook, ncc, dot): the signed offset in samples,
  // or nullopt when the method failed to detect the chirp at all.
  std::optional<double> offset[3];
};

/// The OOK estimate: the detected burst overlapping the true chirp
/// interval the most; its start sample is the estimate.
std::optional<double> OokStartSample(const std::vector<DetectedBurst>& bursts,
                                     Us actual_start, Us duration,
                                     Us sample_period) {
  const Us lo = actual_start;
  const Us hi = actual_start + duration;
  std::optional<double> best;
  Us best_overlap = 0.0;
  for (const DetectedBurst& burst : bursts) {
    const Us overlap =
        std::min(hi, burst.end) - std::max(lo, burst.start);
    if (overlap > best_overlap) {
      best_overlap = overlap;
      best = burst.start / sample_period;
    }
  }
  return best;
}

TrialResult RunTrial(double attenuation_db, std::uint64_t seed) {
  Rng rng(seed);
  const ChirpCodec codec;
  const int id = rng.UniformInt(0, codec.params().max_id);
  const Us duration = codec.Encode(id);

  SignalParams signal;
  signal.attenuation_db = attenuation_db;
  // Random chirp position away from the trace edges.
  const Us actual_start = rng.Uniform(2000.0, kDwell - duration - 2000.0);
  const auto actual_sample = actual_start / signal.sample_period;

  SignalSynthesizer synth(signal, rng.Fork());
  const Burst chirp{actual_start, duration, false, 1.0};
  const auto samples = synth.Synthesize({&chirp, 1}, kDwell);

  TrialResult result;

  // ook: SIFT edge detection.
  SiftDetector detector{SiftParams{}};
  const auto bursts = detector.Detect(samples);
  if (const auto start = OokStartSample(bursts, actual_start, duration,
                                        signal.sample_period)) {
    result.offset[0] = *start - actual_sample;
  }

  // ncc / dot: matched-template correlation (the receiver knows the chirp
  // alphabet; the template length is the transmitted duration's).
  ChirpCorrelatorParams corr_params;
  corr_params.chirp_samples =
      static_cast<std::size_t>(duration / signal.sample_period);
  const ChirpCorrelator correlator(corr_params);
  if (const auto ncc = correlator.DetectNcc(samples)) {
    result.offset[1] = static_cast<double>(ncc->position) - actual_sample;
  }
  if (const auto dot = correlator.DetectDot(samples)) {
    result.offset[2] = static_cast<double>(dot->position) - actual_sample;
  }
  return result;
}

int Main(int jobs) {
  std::cout << "Ablation: chirp start-detection offset, OOK vs correlation ("
            << kTrialsPerLevel << " trials per attenuation level)\n"
            << "offset = detected start - actual start, in samples; "
               "percentiles over |offset| of detected trials\n\n";

  const std::size_t levels = kAttenuationsDb.size();
  const std::vector<TrialResult> trials = ParallelMap(
      jobs, levels * static_cast<std::size_t>(kTrialsPerLevel),
      [&](std::size_t i) {
        const double attenuation = kAttenuationsDb[i / kTrialsPerLevel];
        return RunTrial(attenuation, kSeedBase + i);
      });

  Table table({"atten(dB)", "method", "rate", "p50", "p95", "max"});
  static constexpr const char* kMethods[3] = {"ook", "ncc", "dot"};
  for (std::size_t level = 0; level < levels; ++level) {
    for (std::size_t m = 0; m < 3; ++m) {
      std::vector<double> magnitudes;
      int detected = 0;
      for (int t = 0; t < kTrialsPerLevel; ++t) {
        const TrialResult& trial =
            trials[level * kTrialsPerLevel + static_cast<std::size_t>(t)];
        if (!trial.offset[m]) continue;
        ++detected;
        magnitudes.push_back(std::abs(*trial.offset[m]));
      }
      const double rate =
          static_cast<double>(detected) / kTrialsPerLevel;
      std::vector<std::string> row{FormatDouble(kAttenuationsDb[level], 0),
                                   kMethods[m], FormatDouble(rate, 2)};
      if (magnitudes.empty()) {
        row.insert(row.end(), {"-", "-", "-"});
      } else {
        const double max = Percentile(magnitudes, 100.0);
        row.push_back(FormatDouble(Percentile(magnitudes, 50.0), 1));
        row.push_back(FormatDouble(Percentile(magnitudes, 95.0), 1));
        row.push_back(FormatDouble(max, 1));
      }
      table.AddRow(row);
    }
  }
  table.Print(std::cout);
  return 0;
}

}  // namespace
}  // namespace whitefi::bench

int main(int argc, char** argv) {
  whitefi::bench::CheckSiftKernelEnvironment();
  return whitefi::bench::Main(whitefi::bench::JobsFromArgs(argc, argv));
}
