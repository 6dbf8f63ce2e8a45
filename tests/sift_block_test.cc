// Chunking-invariance suite for the SIFT block fast path.
//
// The detector's contract is that burst output is a function of the
// sample STREAM alone: feeding a trace through ProcessBlock in chunks of
// any size — including one sample at a time — must produce
// byte-identical bursts (exact double equality on start/end/peak, not a
// tolerance).  These tests pin that contract across chunk sizes, window
// widths (both the unrolled W=5 kernel and the runtime-window kernel),
// threshold-straddling edge patterns, and Flush boundaries.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "phy/signal.h"
#include "sift/detector.h"
#include "util/rng.h"

namespace whitefi {
namespace {

std::vector<DetectedBurst> DetectChunked(const SiftParams& params,
                                         const std::vector<double>& samples,
                                         std::size_t chunk) {
  SiftDetector detector(params);
  for (std::size_t i = 0; i < samples.size(); i += chunk) {
    const std::size_t n = std::min(chunk, samples.size() - i);
    detector.ProcessBlock({samples.data() + i, n});
  }
  detector.Flush();
  return detector.TakeBursts();
}

std::vector<DetectedBurst> DetectStepwise(const SiftParams& params,
                                          const std::vector<double>& samples) {
  SiftDetector detector(params);
  for (const double& s : samples) detector.ProcessBlock({&s, 1});
  detector.Flush();
  return detector.TakeBursts();
}

/// Exact equality: the invariance claim is bit-level, so EXPECT_EQ on
/// doubles (not EXPECT_NEAR) is the point.
void ExpectIdentical(const std::vector<DetectedBurst>& a,
                     const std::vector<DetectedBurst>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start, b[i].start) << "burst " << i;
    EXPECT_EQ(a[i].end, b[i].end) << "burst " << i;
    EXPECT_EQ(a[i].peak_average, b[i].peak_average) << "burst " << i;
  }
}

std::vector<double> SynthTrace(std::uint64_t seed, int packets,
                               ChannelWidth width) {
  const PhyTiming t = PhyTiming::ForWidth(width);
  const Us spacing =
      t.FrameDuration(1000) + t.Sifs() + t.AckDuration() + 2000.0;
  const auto bursts = MakeCbrSchedule(t, packets, spacing, 1000, 300.0);
  SignalSynthesizer synth(SignalParams{}, Rng(seed));
  return synth.Synthesize(bursts, packets * spacing + 2000.0);
}

class ChunkInvariance : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChunkInvariance, MatchesFullTraceDetection) {
  const auto samples = SynthTrace(7, 20, ChannelWidth::kW20);
  const SiftParams params;
  SiftDetector whole(params);
  const auto reference = whole.Detect(samples);
  ASSERT_FALSE(reference.empty());
  ExpectIdentical(reference, DetectChunked(params, samples, GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Chunks, ChunkInvariance,
                         ::testing::Values(std::size_t{1}, std::size_t{7},
                                           std::size_t{1024},
                                           std::size_t{1u << 20}));

TEST(SiftBlock, StepShimMatchesBlockPath) {
  const auto samples = SynthTrace(11, 15, ChannelWidth::kW5);
  const SiftParams params;
  SiftDetector whole(params);
  ExpectIdentical(whole.Detect(samples), DetectStepwise(params, samples));
}

TEST(SiftBlock, RandomChunkingMatches) {
  const auto samples = SynthTrace(13, 25, ChannelWidth::kW10);
  const SiftParams params;
  SiftDetector whole(params);
  const auto reference = whole.Detect(samples);
  Rng rng(99);
  for (int trial = 0; trial < 5; ++trial) {
    SiftDetector detector(params);
    std::size_t i = 0;
    while (i < samples.size()) {
      const auto n = std::min<std::size_t>(
          static_cast<std::size_t>(rng.UniformInt(1, 700)),
          samples.size() - i);
      detector.ProcessBlock({samples.data() + i, n});
      i += n;
    }
    detector.Flush();
    ExpectIdentical(reference, detector.TakeBursts());
  }
}

TEST(SiftBlock, GenericWindowKernelIsChunkInvariant) {
  // Non-default windows take the runtime-window kernel; the contract is
  // identical.
  const auto samples = SynthTrace(17, 15, ChannelWidth::kW20);
  for (int window : {1, 2, 3, 8, 16}) {
    SiftParams params;
    params.window = window;
    SiftDetector whole(params);
    const auto reference = whole.Detect(samples);
    for (std::size_t chunk : {std::size_t{1}, std::size_t{5}, std::size_t{64},
                              std::size_t{4096}}) {
      ExpectIdentical(reference, DetectChunked(params, samples, chunk));
    }
  }
}

TEST(SiftBlock, BurstStraddlingChunkBoundary) {
  // Hand-built edges at many phases: quiet floor with hot runs long enough
  // to open bursts, placed so chunk sizes 1-16 each split an edge at a
  // different offset.
  const SiftParams params;
  std::vector<double> samples(256, 0.1);
  for (int start : {3, 17, 40, 151, 240}) {
    for (int k = 0; k < 9 && start + k < 256; ++k) {
      samples[static_cast<std::size_t>(start + k)] = params.threshold * 2.0;
    }
  }
  SiftDetector whole(params);
  const auto reference = whole.Detect(samples);
  ASSERT_FALSE(reference.empty());
  for (std::size_t chunk = 1; chunk <= 16; ++chunk) {
    ExpectIdentical(reference, DetectChunked(params, samples, chunk));
  }
}

TEST(SiftBlock, StreamContinuesAcrossTakeBursts) {
  // Draining completed bursts mid-stream must not disturb the window
  // state carried between blocks.
  const auto samples = SynthTrace(19, 10, ChannelWidth::kW20);
  const SiftParams params;
  SiftDetector whole(params);
  const auto reference = whole.Detect(samples);

  SiftDetector detector(params);
  std::vector<DetectedBurst> collected;
  for (std::size_t i = 0; i < samples.size(); i += 4096) {
    const std::size_t n = std::min<std::size_t>(4096, samples.size() - i);
    detector.ProcessBlock({samples.data() + i, n});
    for (auto& burst : detector.TakeBursts()) collected.push_back(burst);
  }
  detector.Flush();
  for (auto& burst : detector.TakeBursts()) collected.push_back(burst);
  ExpectIdentical(reference, collected);
}

TEST(SiftBlock, EmptyAndTinyBlocksAreHarmless) {
  const SiftParams params;
  SiftDetector detector(params);
  detector.ProcessBlock({});
  const double hot = params.threshold * 2.0;
  // Open a burst entirely through 1-sample blocks shorter than the window.
  for (int i = 0; i < 12; ++i) detector.ProcessBlock({&hot, 1});
  detector.ProcessBlock({});
  detector.Flush();
  const auto bursts = detector.TakeBursts();
  ASSERT_EQ(bursts.size(), 1u);
  EXPECT_EQ(bursts[0].start, 0.0);
  EXPECT_EQ(bursts[0].end, 12 * params.sample_period);
}

}  // namespace
}  // namespace whitefi
