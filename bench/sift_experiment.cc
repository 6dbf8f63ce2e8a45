#include "sift_experiment.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "sift/batch.h"

namespace whitefi::bench {

void ReferenceSynthesizeInto(const SignalParams& params, Rng& rng,
                             std::span<const Burst> bursts,
                             Us total_duration, std::vector<double>& samples) {
  const auto num_samples = static_cast<std::size_t>(
      std::ceil(total_duration / params.sample_period));
  samples.resize(num_samples);
  for (double& sample : samples) sample = rng.Rayleigh(params.noise_sigma);

  const double sigma = params.signal_sigma *
                       AttenuationToAmplitudeScale(params.attenuation_db);
  for (const Burst& burst : bursts) {
    // Draw the ramp realization once per burst.
    Us ramp_duration = 0.0;
    double ramp_factor = 1.0;
    if (burst.ramp_artifact) {
      ramp_duration =
          rng.Uniform(params.ramp_min_duration, params.ramp_max_duration);
      ramp_factor = rng.Bernoulli(params.deep_ramp_probability)
                        ? params.deep_ramp_factor
                        : params.shallow_ramp_factor;
    }
    const auto first = static_cast<std::size_t>(
        std::max(0.0, std::ceil(burst.start / params.sample_period)));
    const auto last = static_cast<std::size_t>(std::min<double>(
        static_cast<double>(num_samples),
        std::ceil((burst.start + burst.duration) / params.sample_period)));
    const double burst_sigma = sigma * burst.amplitude_scale;
    std::size_t i = first;
    if (burst.ramp_artifact) {
      const double ramp_sigma = burst_sigma * ramp_factor;
      for (; i < last; ++i) {
        const Us t =
            static_cast<double>(i) * params.sample_period - burst.start;
        if (!(t < ramp_duration)) break;
        samples[i] = std::max(samples[i], rng.Rayleigh(ramp_sigma));
      }
    }
    for (; i < last; ++i) {
      samples[i] = std::max(samples[i], rng.Rayleigh(burst_sigma));
    }
  }
}

SignalRun MakeIperfRun(ChannelWidth width, int count, Us interval_us,
                       int payload_bytes, const SignalParams& params,
                       Rng rng) {
  SignalRun run;
  MakeIperfRunInto(width, count, interval_us, payload_bytes, params,
                   std::move(rng), run);
  return run;
}

void MakeIperfRunInto(ChannelWidth width, int count, Us interval_us,
                      int payload_bytes, const SignalParams& params, Rng rng,
                      SignalRun& run) {
  const PhyTiming timing = PhyTiming::ForWidth(width);
  run.packets.clear();
  std::vector<Burst> bursts;
  bursts.reserve(static_cast<std::size_t>(count) * 2);
  for (int i = 0; i < count; ++i) {
    const Us start = 500.0 + static_cast<double>(i) * interval_us;
    const auto exchange = MakeDataAckExchange(timing, start, payload_bytes);
    run.packets.push_back(SentPacket{start, exchange[0].duration});
    bursts.insert(bursts.end(), exchange.begin(), exchange.end());
  }
  run.total_duration = bursts.back().start + bursts.back().duration + 1000.0;
  SignalSynthesizer synth(params, std::move(rng));
  synth.SynthesizeInto(bursts, run.total_duration, run.samples);
}

int CountDetected(const std::vector<SentPacket>& packets,
                  const std::vector<DetectedBurst>& bursts,
                  bool require_duration_match, Us duration_tolerance_us) {
  int detected = 0;
  std::size_t cursor = 0;
  for (const SentPacket& packet : packets) {
    const Us lo = packet.start;
    const Us hi = packet.start + packet.duration;
    bool found = false;
    // Bursts are time ordered; advance the cursor past bursts that end
    // before this packet starts.
    while (cursor < bursts.size() && bursts[cursor].end < lo) ++cursor;
    for (std::size_t i = cursor; i < bursts.size() && bursts[i].start < hi;
         ++i) {
      if (!require_duration_match) {
        found = true;
        break;
      }
      if (std::abs(bursts[i].Duration() - packet.duration) <=
          duration_tolerance_us) {
        found = true;
        break;
      }
    }
    detected += found ? 1 : 0;
  }
  return detected;
}

int CountDetectedByCoverage(const std::vector<SentPacket>& packets,
                            const std::vector<DetectedBurst>& bursts,
                            double min_coverage) {
  int detected = 0;
  std::size_t cursor = 0;
  for (const SentPacket& packet : packets) {
    const Us lo = packet.start;
    const Us hi = packet.start + packet.duration;
    while (cursor < bursts.size() && bursts[cursor].end < lo) ++cursor;
    Us covered = 0.0;
    for (std::size_t i = cursor; i < bursts.size() && bursts[i].start < hi;
         ++i) {
      covered += std::max(0.0, std::min(hi, bursts[i].end) -
                                   std::max(lo, bursts[i].start));
    }
    detected += covered >= min_coverage * packet.duration ? 1 : 0;
  }
  return detected;
}

std::vector<int> BatchedDetectionCounts(ChannelWidth width, int runs,
                                        int count, Us interval_us,
                                        int payload_bytes,
                                        const SignalParams& params, Rng& rng,
                                        bool require_duration_match,
                                        Us duration_tolerance_us,
                                        std::size_t sample_budget) {
  std::vector<int> counts;
  counts.reserve(static_cast<std::size_t>(runs));
  std::vector<SignalRun> pending;
  std::size_t pending_samples = 0;

  const auto flush = [&] {
    if (pending.empty()) return;
    SiftBatch batch(SiftParams{}, pending.size());
    std::vector<std::span<const double>> spans;
    spans.reserve(pending.size());
    for (const SignalRun& run : pending) spans.emplace_back(run.samples);
    const auto bursts = batch.DetectAll(spans);
    for (std::size_t i = 0; i < pending.size(); ++i) {
      counts.push_back(CountDetected(pending[i].packets, bursts[i],
                                     require_duration_match,
                                     duration_tolerance_us));
    }
    pending.clear();
    pending_samples = 0;
  };

  for (int run = 0; run < runs; ++run) {
    // Fork in run order regardless of flush boundaries, so the synthesized
    // traces match the serial loop's draws exactly.
    SignalRun signal;
    MakeIperfRunInto(width, count, interval_us, payload_bytes, params,
                     rng.Fork(), signal);
    pending_samples += signal.samples.size();
    pending.push_back(std::move(signal));
    if (pending_samples >= sample_budget) flush();
  }
  flush();
  return counts;
}

}  // namespace whitefi::bench
