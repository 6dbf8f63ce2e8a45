// Property tests for the SIFT kernel byte-identity contract
// (src/sift/kernel.h): for any input trace, any chunking, and any window,
// the scalar kernel, the AVX2 kernel, and the batched scanner produce
// bit-equal DetectedBurst vectors.
//
// The traces deliberately include the kernel's worst corners: samples
// exactly at the threshold (the > compare's edge), denormal and zero
// stretches (FTZ/DAZ would break identity if anything set them), quiet
// noise-floor runs (the SIMD group/deep-quiet skips), and dense bursts.
// Runs under ASan/UBSan in CI like every other test.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/phase_timer.h"
#include "sift/batch.h"
#include "sift/detector.h"
#include "sift/kernel.h"
#include "util/cpu.h"
#include "util/rng.h"

namespace whitefi {
namespace {

/// Exact comparison: the contract is byte-identity, not tolerance.
void ExpectIdentical(const std::vector<DetectedBurst>& a,
                     const std::vector<DetectedBurst>& b,
                     const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start, b[i].start) << label << " burst " << i;
    EXPECT_EQ(a[i].end, b[i].end) << label << " burst " << i;
    EXPECT_EQ(a[i].peak_average, b[i].peak_average)
        << label << " burst " << i;
  }
}

/// A randomized trace exercising the kernel's decision edges: quiet
/// stretches, dense bursts, threshold-edge samples, zeros, denormals.
std::vector<double> AdversarialTrace(Rng& rng, std::size_t length,
                                     double threshold) {
  std::vector<double> trace;
  trace.reserve(length);
  while (trace.size() < length) {
    const int mode = rng.UniformInt(0, 5);
    const int span = rng.UniformInt(1, 40);
    for (int i = 0; i < span && trace.size() < length; ++i) {
      switch (mode) {
        case 0:  // Quiet noise floor (exercises the group/deep skips).
          trace.push_back(rng.Uniform(0.0, threshold * 0.5));
          break;
        case 1:  // Strong burst.
          trace.push_back(rng.Uniform(threshold * 2.0, threshold * 50.0));
          break;
        case 2:  // Hovering around the threshold, including exactly at it
                 // (the > compare must break ties identically).
          trace.push_back(rng.Bernoulli(0.3)
                              ? threshold
                              : rng.Uniform(threshold * 0.9, threshold * 1.1));
          break;
        case 3:  // Zeros.
          trace.push_back(0.0);
          break;
        case 4:  // Denormals (identity requires FTZ/DAZ stay off).
          trace.push_back(4.9e-324 * (1 + rng.UniformInt(0, 7)));
          break;
        default:  // Single spike then silence.
          trace.push_back(threshold * 10.0);
          for (int j = 0; j < 8 && trace.size() < length; ++j) {
            trace.push_back(0.0);
          }
          break;
      }
    }
  }
  return trace;
}

/// Runs `trace` through a detector in random chunks.
std::vector<DetectedBurst> DetectChunked(SiftDetector& detector,
                                         const std::vector<double>& trace,
                                         Rng& rng) {
  std::size_t i = 0;
  while (i < trace.size()) {
    const auto n = std::min<std::size_t>(
        static_cast<std::size_t>(rng.UniformInt(1, 3000)), trace.size() - i);
    detector.ProcessBlock({trace.data() + i, n});
    i += n;
  }
  detector.Flush();
  return detector.TakeBursts();
}

/// The vector kernels this host can execute (kSimd resolves to the widest
/// one; forcing each narrower flavor keeps them all covered).
std::vector<SiftKernelChoice> HostVectorKernels() {
  std::vector<SiftKernelChoice> kernels;
  if (CpuSupportsAvx2()) kernels.push_back(SiftKernelChoice::kAvx2);
  if (CpuSupportsAvx512()) kernels.push_back(SiftKernelChoice::kAvx512);
  return kernels;
}

TEST(SiftSimdProperty, ScalarAndSimdAreByteIdentical) {
  const auto kernels = HostVectorKernels();
  if (kernels.empty()) GTEST_SKIP() << "host lacks AVX2";
  Rng rng(20260808);
  for (int round = 0; round < 40; ++round) {
    SiftParams params;
    params.window = rng.UniformInt(2, 9);
    const auto trace = AdversarialTrace(
        rng, static_cast<std::size_t>(rng.UniformInt(100, 20000)),
        params.threshold);

    SiftParams scalar_params = params;
    scalar_params.kernel = SiftKernelChoice::kScalar;
    const Rng chunk_rng_base = rng.Fork();
    for (const SiftKernelChoice kernel : kernels) {
      SiftParams simd_params = params;
      simd_params.kernel = kernel;
      const std::string label = std::string("kernel ") +
                                SiftDetector{simd_params}.kernel_name() +
                                " round " + std::to_string(round);

      // One-shot comparison.
      SiftDetector scalar_one{scalar_params};
      SiftDetector simd_one{simd_params};
      ExpectIdentical(scalar_one.Detect(trace), simd_one.Detect(trace),
                      "one-shot " + label);

      // Random (different) chunkings on each side.
      SiftDetector scalar_chunked{scalar_params};
      SiftDetector simd_chunked{simd_params};
      Rng chunk_rng_a = chunk_rng_base;
      Rng chunk_rng_b = chunk_rng_a.Fork();
      ExpectIdentical(DetectChunked(scalar_chunked, trace, chunk_rng_a),
                      DetectChunked(simd_chunked, trace, chunk_rng_b),
                      "chunked " + label);
    }
  }
}

TEST(SiftSimdProperty, BatchMatchesIndependentDetectors) {
  Rng rng(424242);
  for (int round = 0; round < 10; ++round) {
    SiftParams params;
    params.window = rng.UniformInt(2, 9);
    const auto lanes = static_cast<std::size_t>(rng.UniformInt(1, 6));

    std::vector<std::vector<double>> traces;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      traces.push_back(AdversarialTrace(
          rng, static_cast<std::size_t>(rng.UniformInt(100, 8000)),
          params.threshold));
    }

    // Feed the batch and the independent detectors the same per-lane
    // random chunkings, interleaved across lanes for the batch.
    SiftBatch batch(params, lanes);
    std::vector<SiftDetector> independent;
    independent.reserve(lanes);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      independent.emplace_back(params);
    }

    std::vector<std::size_t> cursor(lanes, 0);
    Rng chunk_rng = rng.Fork();
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        if (cursor[lane] >= traces[lane].size()) continue;
        const auto n = std::min<std::size_t>(
            static_cast<std::size_t>(chunk_rng.UniformInt(1, 2000)),
            traces[lane].size() - cursor[lane]);
        const std::span<const double> block{
            traces[lane].data() + cursor[lane], n};
        batch.ProcessBlock(lane, block);
        independent[lane].ProcessBlock(block);
        cursor[lane] += n;
        progress = true;
      }
    }
    batch.FlushAll();
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      independent[lane].Flush();
      ExpectIdentical(batch.TakeBursts(lane), independent[lane].TakeBursts(),
                      "round " + std::to_string(round) + " lane " +
                          std::to_string(lane));
    }
  }
}

TEST(SiftSimdProperty, BatchDetectAllMatchesOneShotDetectors) {
  Rng rng(5150);
  SiftParams params;
  const auto lanes = static_cast<std::size_t>(4);
  std::vector<std::vector<double>> traces;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    traces.push_back(AdversarialTrace(rng, 12000, params.threshold));
  }
  std::vector<std::span<const double>> spans(traces.begin(), traces.end());

  SiftBatch batch(params, lanes);
  const auto batched = batch.DetectAll(spans);
  ASSERT_EQ(batched.size(), lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    SiftDetector detector{params};
    ExpectIdentical(batched[lane], detector.Detect(traces[lane]),
                    "lane " + std::to_string(lane));
  }
}

/// Per-lane streams split at a restart point: `head` is fed before the
/// restart and ends inside a strong burst; `tail` is fed after it and opens
/// with one, so state leaking across the restart shows in the bursts.
struct SplitStream {
  std::vector<double> head;
  std::vector<double> tail;
};

std::vector<SplitStream> SplitStreams(Rng& rng, std::size_t lanes,
                                      double threshold) {
  std::vector<SplitStream> streams(lanes);
  for (SplitStream& stream : streams) {
    stream.head = AdversarialTrace(rng, 3000, threshold);
    stream.head.insert(stream.head.end(), 20, threshold * 10.0);
    stream.tail.assign(12, threshold * 10.0);
    const auto rest = AdversarialTrace(rng, 3000, threshold);
    stream.tail.insert(stream.tail.end(), rest.begin(), rest.end());
  }
  return streams;
}

/// What a detector that saw `samples` as one unbroken stream reports.
std::vector<DetectedBurst> FreshBursts(const SiftParams& params,
                                       const std::vector<double>& samples) {
  SiftDetector detector{params};
  return detector.Detect(samples);
}

std::vector<double> Joined(const SplitStream& stream) {
  std::vector<double> joined = stream.head;
  joined.insert(joined.end(), stream.tail.begin(), stream.tail.end());
  return joined;
}

TEST(SiftBatchLanes, ResetLaneRestartsOnlyThatLane) {
  Rng rng(8080);
  const SiftParams params;
  constexpr std::size_t kLanes = 3;
  constexpr std::size_t kReset = 1;
  const auto streams = SplitStreams(rng, kLanes, params.threshold);

  SiftBatch batch(params, kLanes);
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    batch.ProcessBlock(lane, streams[lane].head);
  }
  batch.ResetLane(kReset);
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    batch.ProcessBlock(lane, streams[lane].tail);
  }
  batch.FlushAll();
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    const auto expected = lane == kReset
                              ? FreshBursts(params, streams[lane].tail)
                              : FreshBursts(params, Joined(streams[lane]));
    ExpectIdentical(batch.TakeBursts(lane), expected,
                    "lane " + std::to_string(lane));
  }
}

TEST(SiftBatchLanes, ResetRestartsEveryLane) {
  Rng rng(9090);
  const SiftParams params;
  constexpr std::size_t kLanes = 4;
  const auto streams = SplitStreams(rng, kLanes, params.threshold);

  SiftBatch batch(params, kLanes);
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    batch.ProcessBlock(lane, streams[lane].head);
  }
  batch.Reset();
  std::vector<std::span<const double>> tails;
  for (const SplitStream& stream : streams) tails.emplace_back(stream.tail);
  const auto bursts = batch.DetectAll(tails);
  ASSERT_EQ(bursts.size(), kLanes);
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    ExpectIdentical(bursts[lane], FreshBursts(params, streams[lane].tail),
                    "lane " + std::to_string(lane));
  }
}

TEST(SiftBatchLanes, ObservabilityCoversEveryLaneUntilDetached) {
  Rng rng(7070);
  const SiftParams params;
  constexpr std::size_t kLanes = 3;
  std::vector<std::vector<double>> traces;
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    traces.push_back(AdversarialTrace(rng, 6000, params.threshold));
  }
  const std::vector<std::span<const double>> spans(traces.begin(),
                                                   traces.end());

  SiftBatch batch(params, kLanes);
  MetricsRegistry metrics;
  PhaseProfiler profiler;
  batch.SetObservability({.metrics = &metrics, .profiler = &profiler});
  const auto bursts = batch.DetectAll(spans);
  std::uint64_t emitted = 0;
  for (const auto& lane : bursts) emitted += lane.size();
  ASSERT_GT(emitted, 0u);
  const Counter& counter = metrics.GetCounter("whitefi.sift.bursts");
  EXPECT_EQ(counter.value(), emitted);
  EXPECT_EQ(metrics.GetHistogram("whitefi.sift.burst_us").distribution()
                .Count(),
            emitted);
  EXPECT_EQ(profiler.phases().at("sift.detect").count, kLanes);

  batch.SetObservability(Observability{});
  batch.Reset();
  const auto again = batch.DetectAll(spans);
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    ExpectIdentical(again[lane], bursts[lane], "lane " + std::to_string(lane));
  }
  EXPECT_EQ(counter.value(), emitted);
  EXPECT_EQ(profiler.phases().at("sift.detect").count, kLanes);
}

TEST(SiftSimdProperty, KernelNamesParseAsTheEnvironmentSpellsThem) {
  using sift_kernel::ParseKernelChoice;
  EXPECT_EQ(ParseKernelChoice("auto"), SiftKernelChoice::kAuto);
  EXPECT_EQ(ParseKernelChoice("simd"), SiftKernelChoice::kSimd);
  EXPECT_EQ(ParseKernelChoice("scalar"), SiftKernelChoice::kScalar);
  EXPECT_EQ(ParseKernelChoice("avx2"), SiftKernelChoice::kAvx2);
  EXPECT_EQ(ParseKernelChoice("avx512"), SiftKernelChoice::kAvx512);
  EXPECT_EQ(ParseKernelChoice("scaler"), std::nullopt);
  EXPECT_EQ(ParseKernelChoice(""), std::nullopt);
}

TEST(SiftSimdProperty, ForcedVectorKernelsThrowWhereUnsupported) {
  SiftParams params;
  params.kernel = SiftKernelChoice::kSimd;
  if (CpuSupportsAvx2()) {
    EXPECT_NO_THROW(SiftDetector{params});
  } else {
    EXPECT_THROW(SiftDetector{params}, std::invalid_argument);
  }
  params.kernel = SiftKernelChoice::kAvx2;
  if (CpuSupportsAvx2()) {
    EXPECT_NO_THROW(SiftDetector{params});
  } else {
    EXPECT_THROW(SiftDetector{params}, std::invalid_argument);
  }
  params.kernel = SiftKernelChoice::kAvx512;
  if (CpuSupportsAvx512()) {
    EXPECT_NO_THROW(SiftDetector{params});
  } else {
    EXPECT_THROW(SiftDetector{params}, std::invalid_argument);
  }
}

TEST(SiftSimdProperty, KernelNameReflectsChoice) {
  SiftParams scalar;
  scalar.kernel = SiftKernelChoice::kScalar;
  EXPECT_STREQ(SiftDetector{scalar}.kernel_name(), "scalar");
  if (CpuSupportsAvx2()) {
    // kSimd is the widest vector kernel the host can execute.
    SiftParams simd;
    simd.kernel = SiftKernelChoice::kSimd;
    const char* expected =
        CpuSupportsAvx512() ? "simd-avx512" : "simd-avx2";
    EXPECT_STREQ(SiftDetector{simd}.kernel_name(), expected);
    SiftBatch batch(simd, 2);
    EXPECT_STREQ(batch.kernel_name(), expected);

    SiftParams avx2;
    avx2.kernel = SiftKernelChoice::kAvx2;
    EXPECT_STREQ(SiftDetector{avx2}.kernel_name(), "simd-avx2");
  }
}

}  // namespace
}  // namespace whitefi
