// google-benchmark micro-benchmarks for the SIFT signal pipeline: how many
// samples per second the detector sustains (the USRP delivers 1 MS/s, so
// anything above ~10 MS/s leaves ample headroom), and the matcher /
// chirp-codec costs.
#include <benchmark/benchmark.h>

#include "flags.h"
#include "phy/signal.h"
#include "sift/batch.h"
#include "sift/chirp.h"
#include "sift/correlate.h"
#include "sift/detector.h"
#include "sift/matcher.h"
#include "sift_experiment.h"

namespace whitefi {
namespace {

std::vector<double> MakeTrace(ChannelWidth width, int packets) {
  const PhyTiming t = PhyTiming::ForWidth(width);
  SignalSynthesizer synth(SignalParams{}, Rng(1));
  const Us spacing = t.FrameDuration(1000) + t.Sifs() + t.AckDuration() + 2000.0;
  const auto bursts = MakeCbrSchedule(t, packets, spacing, 1000, 300.0);
  return synth.Synthesize(bursts, packets * spacing + 2000.0);
}

void BM_SiftDetector(benchmark::State& state) {
  const auto samples = MakeTrace(ChannelWidth::kW20, 50);
  for (auto _ : state) {
    SiftDetector detector{SiftParams{}};
    benchmark::DoNotOptimize(detector.Detect(samples));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(samples.size()));
}
BENCHMARK(BM_SiftDetector);

/// The portable scalar kernel, forced regardless of host and flags: the
/// denominator of the CI speedup gate (compare_bench.py --speedup
/// BM_SiftDetectorScalar:BM_SiftDetector:MINRATIO).
void BM_SiftDetectorScalar(benchmark::State& state) {
  const auto samples = MakeTrace(ChannelWidth::kW20, 50);
  SiftParams params;
  params.kernel = SiftKernelChoice::kScalar;
  for (auto _ : state) {
    SiftDetector detector{params};
    benchmark::DoNotOptimize(detector.Detect(samples));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(samples.size()));
}
BENCHMARK(BM_SiftDetectorScalar);

void BM_SiftStreamingBlocks(benchmark::State& state) {
  const auto samples = MakeTrace(ChannelWidth::kW10, 50);
  for (auto _ : state) {
    SiftDetector detector{SiftParams{}};
    for (std::size_t i = 0; i < samples.size(); i += 2048) {
      const std::size_t n = std::min<std::size_t>(2048, samples.size() - i);
      detector.ProcessBlock({samples.data() + i, n});
    }
    detector.Flush();
    benchmark::DoNotOptimize(detector.TakeBursts());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(samples.size()));
}
BENCHMARK(BM_SiftStreamingBlocks);

/// The block path across chunk granularities — from USRP-recv-buffer-sized
/// chunks down to the degenerate per-sample stream (one-sample blocks).
/// Detection results are byte-identical at every chunking; only the
/// per-block warmup/tail overhead varies.
void BM_SiftDetectorChunked(benchmark::State& state) {
  const auto samples = MakeTrace(ChannelWidth::kW20, 50);
  const auto chunk = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    SiftDetector detector{SiftParams{}};
    for (std::size_t i = 0; i < samples.size(); i += chunk) {
      const std::size_t n = std::min(chunk, samples.size() - i);
      detector.ProcessBlock({samples.data() + i, n});
    }
    detector.Flush();
    benchmark::DoNotOptimize(detector.TakeBursts());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(samples.size()));
}
BENCHMARK(BM_SiftDetectorChunked)->Arg(1)->Arg(64)->Arg(4096)->Arg(65536);

/// Non-default window width: exercises the runtime-window kernel instead
/// of the unrolled W=5 fast path.
void BM_SiftDetectorGenericWindow(benchmark::State& state) {
  const auto samples = MakeTrace(ChannelWidth::kW20, 50);
  SiftParams params;
  params.window = 8;
  for (auto _ : state) {
    SiftDetector detector{params};
    benchmark::DoNotOptimize(detector.Detect(samples));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(samples.size()));
}
BENCHMARK(BM_SiftDetectorGenericWindow);

/// N channels through one SiftBatch pass (the multi-channel dwell shape).
/// Compare against BM_SiftIndependentLanes at the same lane count: the
/// delta is the batching win (shared dispatch/scratch, hot constants).
void BM_SiftBatchDetect(benchmark::State& state) {
  const auto lanes = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<double>> traces;
  traces.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    traces.push_back(MakeTrace(ChannelWidth::kW20, 10));
  }
  std::vector<std::span<const double>> spans(traces.begin(), traces.end());
  std::int64_t samples = 0;
  for (const auto& t : traces) samples += static_cast<std::int64_t>(t.size());
  for (auto _ : state) {
    SiftBatch batch(SiftParams{}, lanes);
    benchmark::DoNotOptimize(batch.DetectAll(spans));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          samples);
}
BENCHMARK(BM_SiftBatchDetect)->Arg(4)->Arg(16);

/// The unbatched reference: the same N traces through N independent
/// detectors.
void BM_SiftIndependentLanes(benchmark::State& state) {
  const auto lanes = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<double>> traces;
  traces.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    traces.push_back(MakeTrace(ChannelWidth::kW20, 10));
  }
  std::int64_t samples = 0;
  for (const auto& t : traces) samples += static_cast<std::int64_t>(t.size());
  for (auto _ : state) {
    for (const auto& t : traces) {
      SiftDetector detector{SiftParams{}};
      benchmark::DoNotOptimize(detector.Detect(t));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          samples);
}
BENCHMARK(BM_SiftIndependentLanes)->Arg(4)->Arg(16);

void BM_PatternMatcher(benchmark::State& state) {
  const auto samples = MakeTrace(ChannelWidth::kW20, 100);
  SiftDetector detector{SiftParams{}};
  const auto bursts = detector.Detect(samples);
  PatternMatcher matcher;
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.MatchAll(bursts));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bursts.size()));
}
BENCHMARK(BM_PatternMatcher);

void BM_SignalSynthesis(benchmark::State& state) {
  const PhyTiming t = PhyTiming::ForWidth(ChannelWidth::kW20);
  const auto bursts = MakeCbrSchedule(t, 20, 5000.0, 1000, 300.0);
  Rng rng(2);
  for (auto _ : state) {
    SignalSynthesizer synth(SignalParams{}, rng.Fork());
    benchmark::DoNotOptimize(synth.Synthesize(bursts, 110000.0));
  }
}
BENCHMARK(BM_SignalSynthesis);

/// The dwell-loop shape: one scratch buffer reused across syntheses, as
/// the signal scanner and Table 1 grid now do.  The delta vs
/// BM_SignalSynthesis is pure allocation traffic.
void BM_SignalSynthesisInto(benchmark::State& state) {
  const PhyTiming t = PhyTiming::ForWidth(ChannelWidth::kW20);
  const auto bursts = MakeCbrSchedule(t, 20, 5000.0, 1000, 300.0);
  Rng rng(2);
  std::vector<double> scratch;
  for (auto _ : state) {
    SignalSynthesizer synth(SignalParams{}, rng.Fork());
    synth.SynthesizeInto(bursts, 110000.0, scratch);
    benchmark::DoNotOptimize(scratch.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SignalSynthesisInto);

/// The per-sample reference synthesizer (one Rng::Rayleigh call per
/// sample) on BM_SignalSynthesisInto's schedule and streams: the
/// denominator of the CI speedup gate on the block Rayleigh path
/// (compare_bench.py --speedup
/// BM_SignalSynthesisReference:BM_SignalSynthesisInto:MINRATIO).
void BM_SignalSynthesisReference(benchmark::State& state) {
  const PhyTiming t = PhyTiming::ForWidth(ChannelWidth::kW20);
  const auto bursts = MakeCbrSchedule(t, 20, 5000.0, 1000, 300.0);
  Rng rng(2);
  std::vector<double> scratch;
  for (auto _ : state) {
    Rng lane = rng.Fork();
    bench::ReferenceSynthesizeInto(SignalParams{}, lane, bursts, 110000.0,
                                   scratch);
    benchmark::DoNotOptimize(scratch.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SignalSynthesisReference);

void BM_ChirpCodecDecode(benchmark::State& state) {
  const ChirpCodec codec;
  Rng rng(3);
  std::vector<Us> durations;
  for (int i = 0; i < 1024; ++i) {
    durations.push_back(codec.Encode(rng.UniformInt(0, 63)) +
                        rng.Uniform(-20.0, 20.0));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.Decode(durations[i++ % durations.size()]));
  }
}
BENCHMARK(BM_ChirpCodecDecode);

/// One synthesized chirp in a dwell-length trace, for the correlation
/// detectors (bench_ablation_chirp_offset measures their accuracy; this
/// measures their cost).
std::vector<double> MakeChirpTrace(Us chirp_duration, Us total) {
  SignalSynthesizer synth(SignalParams{}, Rng(7));
  const Burst chirp{5000.0, chirp_duration, false, 1.0};
  return synth.Synthesize({&chirp, 1}, total);
}

ChirpCorrelator MakeCorrelator(Us chirp_duration) {
  ChirpCorrelatorParams params;
  params.chirp_samples = static_cast<std::size_t>(
      chirp_duration / SignalParams{}.sample_period);
  return ChirpCorrelator(params);
}

void BM_ChirpCorrelateNcc(benchmark::State& state) {
  const Us duration = ChirpCodec().Encode(21);
  const auto samples = MakeChirpTrace(duration, 20000.0);
  const ChirpCorrelator corr = MakeCorrelator(duration);
  for (auto _ : state) {
    benchmark::DoNotOptimize(corr.DetectNcc(samples));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(samples.size()));
}
BENCHMARK(BM_ChirpCorrelateNcc);

void BM_ChirpCorrelateDot(benchmark::State& state) {
  const Us duration = ChirpCodec().Encode(21);
  const auto samples = MakeChirpTrace(duration, 20000.0);
  const ChirpCorrelator corr = MakeCorrelator(duration);
  for (auto _ : state) {
    benchmark::DoNotOptimize(corr.DetectDot(samples));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(samples.size()));
}
BENCHMARK(BM_ChirpCorrelateDot);

}  // namespace
}  // namespace whitefi

// Custom main (vs BENCHMARK_MAIN) so JSON reports carry the pipeline
// configuration; bench/compare_bench.py keys its regression gate on the
// items_per_second counters in that report and refuses debug-build
// baselines via the whitefi_build_type context.
int main(int argc, char** argv) {
  whitefi::bench::CheckSiftKernelEnvironment();
  benchmark::AddCustomContext("whitefi_sift_window",
                              std::to_string(whitefi::SiftParams{}.window));
  benchmark::AddCustomContext(
      "whitefi_sift_kernel",
      whitefi::SiftDetector{whitefi::SiftParams{}}.kernel_name());
#ifdef WHITEFI_BUILD_TYPE
  benchmark::AddCustomContext("whitefi_build_type", WHITEFI_BUILD_TYPE);
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
