// Unit + property tests for the PHY layer: width-scaled timing, signal
// synthesis, and the attenuation/capture models.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "phy/attenuation.h"
#include "phy/signal.h"
#include "phy/timing.h"
#include "sift_experiment.h"
#include "util/stats.h"

namespace whitefi {
namespace {

// --------------------------------------------------------------- timing ---

TEST(Timing, ReferenceValuesAt20MHz) {
  const PhyTiming t = PhyTiming::ForWidth(ChannelWidth::kW20);
  EXPECT_DOUBLE_EQ(t.Scale(), 1.0);
  EXPECT_DOUBLE_EQ(t.Symbol(), 4.0);
  EXPECT_DOUBLE_EQ(t.Sifs(), 10.0);  // The paper's "lowest SIFS".
  EXPECT_DOUBLE_EQ(t.Slot(), 9.0);
  EXPECT_DOUBLE_EQ(t.Difs(), 28.0);
  EXPECT_DOUBLE_EQ(t.Preamble(), 20.0);
  EXPECT_DOUBLE_EQ(t.RateMbps(), 6.0);
}

TEST(Timing, AckDurationKnownValues) {
  // ACK: 16+6+112 = 134 bits -> 6 symbols -> 24 us + 20 us preamble.
  EXPECT_DOUBLE_EQ(PhyTiming::ForWidth(ChannelWidth::kW20).AckDuration(), 44.0);
  EXPECT_DOUBLE_EQ(PhyTiming::ForWidth(ChannelWidth::kW10).AckDuration(), 88.0);
  EXPECT_DOUBLE_EQ(PhyTiming::ForWidth(ChannelWidth::kW5).AckDuration(), 176.0);
}

TEST(Timing, Figure5FrameDurations) {
  // The 132-byte Data-ACK exchange of Figure 5: at 20 MHz the data frame
  // is 200 us; halving the width doubles it.
  EXPECT_DOUBLE_EQ(PhyTiming::ForWidth(ChannelWidth::kW20).FrameDuration(132),
                   200.0);
  EXPECT_DOUBLE_EQ(PhyTiming::ForWidth(ChannelWidth::kW10).FrameDuration(132),
                   400.0);
  EXPECT_DOUBLE_EQ(PhyTiming::ForWidth(ChannelWidth::kW5).FrameDuration(132),
                   800.0);
}

class TimingScaling : public ::testing::TestWithParam<ChannelWidth> {};

TEST_P(TimingScaling, EverythingScalesInverselyWithWidth) {
  const PhyTiming t = PhyTiming::ForWidth(GetParam());
  const PhyTiming ref = PhyTiming::ForWidth(ChannelWidth::kW20);
  const double s = 20.0 / WidthMHz(GetParam());
  EXPECT_DOUBLE_EQ(t.Scale(), s);
  EXPECT_DOUBLE_EQ(t.Symbol(), ref.Symbol() * s);
  EXPECT_DOUBLE_EQ(t.Sifs(), ref.Sifs() * s);
  EXPECT_DOUBLE_EQ(t.Slot(), ref.Slot() * s);
  EXPECT_DOUBLE_EQ(t.Difs(), ref.Difs() * s);
  EXPECT_DOUBLE_EQ(t.RateMbps(), ref.RateMbps() / s);
  for (int bytes : {14, 70, 132, 1000, 1500}) {
    EXPECT_DOUBLE_EQ(t.FrameDuration(bytes), ref.FrameDuration(bytes) * s);
  }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, TimingScaling,
                         ::testing::ValuesIn(kAllWidths));

TEST(Timing, FrameDurationMonotonicInSize) {
  const PhyTiming t = PhyTiming::ForWidth(ChannelWidth::kW10);
  double prev = 0.0;
  for (int bytes = 14; bytes <= 1500; bytes += 100) {
    const double d = t.FrameDuration(bytes);
    EXPECT_GT(d, prev - 1e-9);
    prev = d;
  }
  // ACK is the smallest MAC frame; even a 5 MHz ACK is shorter than any
  // realistically-sized data frame at 20 MHz — a property SIFT's matcher
  // relies on (the paper's example uses 132 B and 1000 B frames).
  EXPECT_LT(PhyTiming::ForWidth(ChannelWidth::kW5).AckDuration(),
            PhyTiming::ForWidth(ChannelWidth::kW20).FrameDuration(132));
}

TEST(Timing, SifsDistinctAcrossWidths) {
  // SIFS values must be pairwise distinguishable for width inference.
  EXPECT_DOUBLE_EQ(PhyTiming::ForWidth(ChannelWidth::kW10).Sifs(), 20.0);
  EXPECT_DOUBLE_EQ(PhyTiming::ForWidth(ChannelWidth::kW5).Sifs(), 40.0);
}

// --------------------------------------------------------------- signal ---

SignalParams QuietParams() {
  SignalParams p;
  p.deep_ramp_probability = 0.0;
  return p;
}

TEST(Signal, SampleCountMatchesDuration) {
  SignalSynthesizer synth(QuietParams(), Rng(1));
  const auto samples = synth.Synthesize({}, 2048.0 * 1.024);
  EXPECT_EQ(samples.size(), 2048u);
}

TEST(Signal, NoiseFloorStatistics) {
  SignalSynthesizer synth(QuietParams(), Rng(2));
  const auto samples = synth.Synthesize({}, 50000.0);
  RunningStats stats;
  for (double s : samples) stats.Add(s);
  // Rayleigh(1.2) mean = 1.2 * sqrt(pi/2) ~ 1.504.
  EXPECT_NEAR(stats.Mean(), 1.504, 0.05);
  EXPECT_GT(stats.Min(), 0.0);
}

TEST(Signal, BurstRegionIsLoud) {
  SignalSynthesizer synth(QuietParams(), Rng(3));
  const Burst burst{1000.0, 500.0, false, 1.0};
  const auto samples = synth.Synthesize({{burst}}, 3000.0);
  const double period = synth.params().sample_period;
  double in_burst = 0.0, outside = 0.0;
  int n_in = 0, n_out = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const double t = i * period;
    if (t >= 1050.0 && t < 1450.0) {
      in_burst += samples[i];
      ++n_in;
    } else if (t < 900.0 || t > 1600.0) {
      outside += samples[i];
      ++n_out;
    }
  }
  EXPECT_GT(in_burst / n_in, 100.0 * outside / n_out);
}

TEST(Signal, AttenuationReducesSignalNotNoise) {
  SignalParams loud = QuietParams();
  SignalParams quiet = QuietParams();
  quiet.attenuation_db = 90.0;
  SignalSynthesizer a(loud, Rng(4));
  SignalSynthesizer b(quiet, Rng(4));
  // 40 dB extra attenuation = 100x amplitude reduction.
  EXPECT_NEAR(a.AttenuatedSignalSigma() / b.AttenuatedSignalSigma(), 100.0,
              1e-6);
  // 90 dB -> amplitude scale sqrt(10^-9).
  EXPECT_NEAR(b.AttenuatedSignalSigma(),
              loud.signal_sigma * AttenuationToAmplitudeScale(90.0), 1e-9);
}

TEST(Signal, DataAckExchangeGeometry) {
  const PhyTiming t = PhyTiming::ForWidth(ChannelWidth::kW10);
  const auto bursts = MakeDataAckExchange(t, 500.0, 132);
  ASSERT_EQ(bursts.size(), 2u);
  EXPECT_DOUBLE_EQ(bursts[0].start, 500.0);
  EXPECT_DOUBLE_EQ(bursts[0].duration, t.FrameDuration(132));
  // The ACK starts exactly one SIFS after the data frame ends.
  EXPECT_DOUBLE_EQ(bursts[1].start - (bursts[0].start + bursts[0].duration),
                   t.Sifs());
  EXPECT_DOUBLE_EQ(bursts[1].duration, t.AckDuration());
  EXPECT_FALSE(bursts[0].ramp_artifact);  // Only 5 MHz has the artifact.
}

TEST(Signal, RampArtifactOnlyAt5MHz) {
  const auto w5 = MakeDataAckExchange(PhyTiming::ForWidth(ChannelWidth::kW5),
                                      0.0, 132);
  EXPECT_TRUE(w5[0].ramp_artifact);
  const auto w20 = MakeDataAckExchange(PhyTiming::ForWidth(ChannelWidth::kW20),
                                       0.0, 132);
  EXPECT_FALSE(w20[0].ramp_artifact);
}

TEST(Signal, BeaconCtsExchangeGeometry) {
  const PhyTiming t = PhyTiming::ForWidth(ChannelWidth::kW20);
  const auto bursts = MakeBeaconCtsExchange(t, 0.0);
  ASSERT_EQ(bursts.size(), 2u);
  EXPECT_DOUBLE_EQ(bursts[0].duration, t.BeaconDuration());
  EXPECT_DOUBLE_EQ(bursts[1].duration, t.CtsDuration());
  EXPECT_DOUBLE_EQ(bursts[1].start, t.BeaconDuration() + t.Sifs());
}

TEST(Signal, CbrScheduleSpacing) {
  const PhyTiming t = PhyTiming::ForWidth(ChannelWidth::kW20);
  const auto bursts = MakeCbrSchedule(t, 5, 8000.0, 1000, 100.0);
  ASSERT_EQ(bursts.size(), 10u);  // 5 data + 5 ACK.
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(bursts[2 * i].start, 100.0 + i * 8000.0);
  }
  // Each ACK follows its data frame by exactly one SIFS (the append-direct
  // schedule builder must keep the two-burst exchange geometry).
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(
        bursts[2 * i + 1].start - (bursts[2 * i].start + bursts[2 * i].duration),
        t.Sifs());
    EXPECT_DOUBLE_EQ(bursts[2 * i + 1].duration, t.AckDuration());
  }
}

TEST(Signal, SynthesizeIntoMatchesSynthesizeExactly) {
  // Same seed, same bursts: the scratch-buffer path must be draw-for-draw
  // identical (bit-equal samples), or the signal scanner's observations
  // would depend on which API the caller used.
  const PhyTiming t = PhyTiming::ForWidth(ChannelWidth::kW10);
  const auto bursts = MakeCbrSchedule(t, 8, 6000.0, 700, 250.0);
  SignalSynthesizer a(SignalParams{}, Rng(77));
  const auto reference = a.Synthesize(bursts, 60000.0);

  SignalSynthesizer b(SignalParams{}, Rng(77));
  std::vector<double> scratch(123, -1.0);  // Stale contents must not leak.
  b.SynthesizeInto(bursts, 60000.0, scratch);
  ASSERT_EQ(reference.size(), scratch.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(reference[i], scratch[i]) << "sample " << i;
  }
}

TEST(Signal, SynthesizeIntoReusesAndResizesTheBuffer) {
  SignalSynthesizer synth(QuietParams(), Rng(5));
  std::vector<double> scratch;
  synth.SynthesizeInto({}, 10000.0, scratch);
  const std::size_t big = scratch.size();
  EXPECT_GT(big, 0u);
  // A shorter trace shrinks the size but keeps the capacity (no realloc).
  const double* data = scratch.data();
  const std::size_t capacity = scratch.capacity();
  synth.SynthesizeInto({}, 5000.0, scratch);
  EXPECT_LT(scratch.size(), big);
  EXPECT_EQ(scratch.capacity(), capacity);
  EXPECT_EQ(scratch.data(), data);
}

// ------------------------------------------------- synthesis oracle ---
//
// SignalSynthesizer draws in blocks (FillRayleigh for the noise floor, a
// stack block per burst stretch); bench::ReferenceSynthesizeInto draws
// every sample through Rng::Rayleigh.  The two must be byte-equal.

void ExpectBitEqual(std::span<const double> expected,
                    std::span<const double> actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(expected[i]),
              std::bit_cast<std::uint64_t>(actual[i]))
        << "sample " << i << ": " << expected[i] << " vs " << actual[i];
  }
}

/// SynthesizeInto vs the reference, twice in a row from one synthesizer
/// (so the second trace also pins where the first left the stream), and
/// SynthesizeBatchInto vs the reference on per-lane forks.
void ExpectMatchesReference(const SignalParams& params,
                            std::span<const Burst> bursts, Us duration,
                            std::uint64_t seed) {
  Rng reference_rng(seed);
  SignalSynthesizer synth(params, Rng(seed));
  std::vector<double> expected;
  std::vector<double> actual;
  for (int call = 0; call < 2; ++call) {
    bench::ReferenceSynthesizeInto(params, reference_rng, bursts, duration,
                                   expected);
    synth.SynthesizeInto(bursts, duration, actual);
    SCOPED_TRACE(call);
    ExpectBitEqual(expected, actual);
  }

  // Three lanes: the schedule, no bursts, and the schedule again (a fresh
  // fork, so different draws).
  const std::vector<std::span<const Burst>> lanes = {bursts, {}, bursts};
  SignalSynthesizer batch_synth(params, Rng(seed));
  BatchTrace batch;
  batch_synth.SynthesizeBatchInto(lanes, duration, batch);
  Rng parent(seed);
  for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
    Rng lane_rng = parent.Fork();
    bench::ReferenceSynthesizeInto(params, lane_rng, lanes[lane], duration,
                                   expected);
    SCOPED_TRACE(lane);
    ExpectBitEqual(expected, batch.Lane(lane));
  }
}

class SynthesisOracleByWidth : public ::testing::TestWithParam<ChannelWidth> {};

TEST_P(SynthesisOracleByWidth, CbrScheduleMatchesReference) {
  // Frames long enough that one burst spans several 512-sample blocks;
  // 5 MHz bursts carry the ramp artifact at the default deep-ramp odds.
  const PhyTiming t = PhyTiming::ForWidth(GetParam());
  const Us interval = t.FrameDuration(1000) + 3000.0;
  const auto bursts = MakeCbrSchedule(t, 6, interval, 1000, 250.0);
  ExpectMatchesReference(SignalParams{}, bursts, 6 * interval + 777.0, 41);
}

INSTANTIATE_TEST_SUITE_P(AllWidths, SynthesisOracleByWidth,
                         ::testing::ValuesIn(kAllWidths));

TEST(SynthesisOracle, ShallowAndDeepRampsMatchReference) {
  const PhyTiming t = PhyTiming::ForWidth(ChannelWidth::kW5);
  auto bursts = MakeCbrSchedule(t, 5, 9000.0, 132, 100.0);
  // Bursts shorter than the longest ramp: the ramp can cover all of it.
  bursts.push_back(Burst{46000.0, 60.0, true, 1.0});
  bursts.push_back(Burst{46500.0, 150.0, true, 1.0});
  for (const double deep : {0.0, 1.0}) {
    SignalParams params;
    params.deep_ramp_probability = deep;
    SCOPED_TRACE(deep);
    ExpectMatchesReference(params, bursts, 47000.0, 5);
  }
}

TEST(SynthesisOracle, OverlappingAndScaledBurstsMatchReference) {
  const std::vector<Burst> bursts = {
      {1000.0, 2000.0, false, 1.0},
      {1500.0, 600.0, true, 0.25},   // Inside the first, ramped, quieter.
      {2900.0, 900.0, false, 3.0},   // Straddles the first's end, louder.
      {-300.0, 700.0, true, 1.0},    // Starts before the trace.
      {5000.0, 0.5, false, 1.0},     // Shorter than one sample.
  };
  ExpectMatchesReference(SignalParams{}, bursts, 8000.0, 17);
}

TEST(SynthesisOracle, BurstsPastTheTraceEndMatchReference) {
  // One burst runs past the end and is cut off; the next starts after the
  // end, so it draws only its ramp realization.
  const std::vector<Burst> bursts = {
      {3000.0, 4000.0, true, 1.0},
      {9000.0, 500.0, true, 1.0},
      {200.0, 300.0, false, 1.0},
  };
  ExpectMatchesReference(SignalParams{}, bursts, 5000.0, 23);
}

TEST(SynthesisOracle, TraceLengthsOffTheBlockMatchReference) {
  // Lengths around the 512-sample block and 312-word twist boundaries.
  const PhyTiming t = PhyTiming::ForWidth(ChannelWidth::kW20);
  const auto bursts = MakeCbrSchedule(t, 3, 200.0, 132, 10.0);
  const SignalParams params;
  for (const std::size_t n : {0, 1, 311, 511, 513, 1023, 1537}) {
    SCOPED_TRACE(n);
    ExpectMatchesReference(params, bursts,
                           static_cast<double>(n) * params.sample_period, n);
  }
}

// ----------------------------------------------------------- attenuation --

TEST(Attenuation, SnifferCurveAnchors) {
  const SnifferModel model;
  // Near-perfect capture at bench attenuation.
  EXPECT_GT(SnifferCaptureProbability(model, 60.0), 0.98);
  // The paper's 98 dB anchor: capture ratio "extremely low at around 35%".
  EXPECT_NEAR(SnifferCaptureProbability(model, 98.0), 0.35, 0.05);
  // Half capture at the configured midpoint.
  EXPECT_NEAR(SnifferCaptureProbability(model, 97.0), 0.5, 0.01);
}

TEST(Attenuation, SnifferCurveMonotonicallyDecreasing) {
  const SnifferModel model;
  double prev = 1.0;
  for (double att = 50.0; att <= 110.0; att += 1.0) {
    const double p = SnifferCaptureProbability(model, att);
    EXPECT_LE(p, prev + 1e-12);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    prev = p;
  }
}

TEST(Attenuation, SnifferSamplingMatchesProbability) {
  const SnifferModel model;
  Rng rng(5);
  int captures = 0;
  const int trials = 5000;
  for (int i = 0; i < trials; ++i) {
    captures += SnifferCaptures(model, 97.0, rng) ? 1 : 0;
  }
  EXPECT_NEAR(captures / static_cast<double>(trials), 0.5, 0.03);
}

}  // namespace
}  // namespace whitefi
