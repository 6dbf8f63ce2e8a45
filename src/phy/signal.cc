#include "phy/signal.h"

#include <algorithm>
#include <array>
#include <cmath>

namespace whitefi {
namespace {

// Draws one Rayleigh(sigma) amplitude per sample, in sample order, and
// keeps the larger of it and the sample: the in-burst envelope merged
// over the noise floor.  The draws go through a stack block so they take
// Rng::FillRayleigh's block path; the values equal per-sample
// Rng::Rayleigh calls.
void MergeRayleigh(Rng& rng, double sigma, std::span<double> samples) {
  constexpr std::size_t kBlock = 512;
  std::array<double, kBlock> block;
  while (!samples.empty()) {
    const std::size_t n = std::min(samples.size(), kBlock);
    rng.FillRayleigh(sigma, {block.data(), n});
    for (std::size_t i = 0; i < n; ++i) {
      samples[i] = std::max(samples[i], block[i]);
    }
    samples = samples.subspan(n);
  }
}

}  // namespace

SignalSynthesizer::SignalSynthesizer(const SignalParams& params, Rng rng)
    : params_(params), rng_(std::move(rng)) {}

double SignalSynthesizer::AttenuatedSignalSigma() const {
  return params_.signal_sigma *
         AttenuationToAmplitudeScale(params_.attenuation_db);
}

std::vector<double> SignalSynthesizer::Synthesize(std::span<const Burst> bursts,
                                                  Us total_duration) {
  std::vector<double> samples;
  SynthesizeInto(bursts, total_duration, samples);
  return samples;
}

void SignalSynthesizer::SynthesizeInto(std::span<const Burst> bursts,
                                       Us total_duration,
                                       std::vector<double>& samples) {
  ScopedPhaseTimer timer(profiler_, "phy.synthesize");
  const auto num_samples = static_cast<std::size_t>(
      std::ceil(total_duration / params_.sample_period));
  // The reused buffer keeps its capacity across calls.
  samples.resize(num_samples);
  const std::span<double> trace(samples);
  // Start from the noise floor everywhere (one batched pass).
  rng_.FillRayleigh(params_.noise_sigma, trace);

  const double sigma = AttenuatedSignalSigma();
  for (const Burst& burst : bursts) {
    // Draw the ramp realization once per burst.
    Us ramp_duration = 0.0;
    double ramp_factor = 1.0;
    if (burst.ramp_artifact) {
      ramp_duration =
          rng_.Uniform(params_.ramp_min_duration, params_.ramp_max_duration);
      ramp_factor = rng_.Bernoulli(params_.deep_ramp_probability)
                        ? params_.deep_ramp_factor
                        : params_.shallow_ramp_factor;
    }
    const auto first = static_cast<std::size_t>(
        std::max(0.0, std::ceil(burst.start / params_.sample_period)));
    const auto last = static_cast<std::size_t>(std::min<double>(
        static_cast<double>(num_samples),
        std::ceil((burst.start + burst.duration) / params_.sample_period)));
    if (first >= last) continue;
    // The ramp prefix ends at the first sample whose time is not inside
    // the ramp: the same per-sample test as drawing sample by sample, but
    // evaluated before any in-burst draw, so the ramp and body draws keep
    // their stream positions.
    std::size_t split = first;
    if (burst.ramp_artifact) {
      while (split < last &&
             static_cast<double>(split) * params_.sample_period -
                     burst.start <
                 ramp_duration) {
        ++split;
      }
    }
    const double burst_sigma = sigma * burst.amplitude_scale;
    MergeRayleigh(rng_, burst_sigma * ramp_factor,
                  trace.subspan(first, split - first));
    MergeRayleigh(rng_, burst_sigma, trace.subspan(split, last - split));
  }
}

std::vector<Burst> MakeDataAckExchange(const PhyTiming& timing, Us start,
                                       int frame_bytes) {
  const bool ramp = timing.width() == ChannelWidth::kW5;
  const Us data_duration = timing.FrameDuration(frame_bytes);
  Burst data{start, data_duration, ramp, 1.0};
  Burst ack{start + data_duration + timing.Sifs(), timing.AckDuration(), ramp,
            1.0};
  return {data, ack};
}

std::vector<Burst> MakeBeaconCtsExchange(const PhyTiming& timing, Us start) {
  const bool ramp = timing.width() == ChannelWidth::kW5;
  const Us beacon_duration = timing.BeaconDuration();
  Burst beacon{start, beacon_duration, ramp, 1.0};
  Burst cts{start + beacon_duration + timing.Sifs(), timing.CtsDuration(), ramp,
            1.0};
  return {beacon, cts};
}

std::vector<Burst> MakeCbrSchedule(const PhyTiming& timing, int count,
                                   Us interval, int frame_bytes,
                                   Us first_start) {
  // Appends the data/ACK pair directly: no temporary two-element vector
  // per exchange, and the per-exchange timing constants are hoisted.
  const bool ramp = timing.width() == ChannelWidth::kW5;
  const Us data_duration = timing.FrameDuration(frame_bytes);
  const Us sifs = timing.Sifs();
  const Us ack_duration = timing.AckDuration();
  std::vector<Burst> bursts;
  bursts.reserve(static_cast<std::size_t>(count) * 2);
  for (int i = 0; i < count; ++i) {
    const Us start = first_start + static_cast<double>(i) * interval;
    bursts.push_back(Burst{start, data_duration, ramp, 1.0});
    bursts.push_back(
        Burst{start + data_duration + sifs, ack_duration, ramp, 1.0});
  }
  return bursts;
}

}  // namespace whitefi
