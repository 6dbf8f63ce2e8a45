// sift_signal: Table 1's method.  iperf traces at every width and rate
// are synthesized by phy and classified through one SiftBatch on the
// resolved kernel tier; a packet counts as detected under Table 1's
// duration-match rule.  Sparse and dense rates take both SIFT paths, and
// the low-rate traces (about 7 M samples) exceed the L2 cache.

#include <array>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sift/batch.h"
#include "sift_experiment.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using whitefi::ChannelWidth;
using whitefi::SiftBatch;
using whitefi::Us;
namespace bench = whitefi::bench;

constexpr std::array<double, 5> kRatesMbps = {0.125, 0.25, 0.5, 0.75, 1.0};
constexpr int kPayloadBytes = 1000;
constexpr int kPacketsPerRun = 110;  // Table 1's run length.
constexpr int kRunsPerCell = 2;      // Lanes of the batch.
constexpr int kQuickPacketsPerRun = 12;
constexpr int kQuickRunsPerCell = 1;
constexpr int kSetupReps = 3;

struct Plan {
  int packets = 0;
  int runs = 0;
};

/// The set-up: trace buffers sized for the longest trace, touched so the
/// pass does not page-fault, and the batch (its kernel resolution).
struct Scratch {
  std::vector<bench::SignalRun> runs;
  std::unique_ptr<SiftBatch> batch;
};

Scratch MakeScratch(const Plan& plan) {
  const whitefi::SignalParams params;
  const Us longest =
      2000.0 + plan.packets * 8.0 * kPayloadBytes / kRatesMbps[0];
  Scratch scratch;
  scratch.runs.resize(static_cast<std::size_t>(plan.runs));
  for (bench::SignalRun& run : scratch.runs) {
    run.samples.assign(static_cast<std::size_t>(longest / params.sample_period),
                       0.0);
    run.packets.reserve(static_cast<std::size_t>(plan.packets));
  }
  scratch.batch = std::make_unique<SiftBatch>(
      whitefi::SiftParams{}, static_cast<std::size_t>(plan.runs));
  return scratch;
}

struct Pass {
  double synth_s = 0.0;
  double detect_s = 0.0;
  double match_s = 0.0;
  double run_s = 0.0;
  OutputHash hash;
  int cells = 0;
  std::uint64_t packets = 0;
  std::uint64_t detected = 0;
  std::uint64_t samples = 0;
};

Pass RunPass(const Plan& plan, std::uint64_t seed, Scratch& scratch,
             SpanLog& spans) {
  Pass pass;
  const int root = spans.Begin("sift_signal.pass");
  const Clock::time_point start = Clock::now();
  for (const ChannelWidth width : whitefi::kAllWidths) {
    for (const double rate : kRatesMbps) {
      const std::string cell =
          std::to_string(whitefi::WidthMHz(width)) + "MHz@" +
          std::to_string(rate) + "Mbps";
      // Every cell is seeded by its name alone, as Table 1 seeds by index.
      whitefi::Rng rng(whitefi::DeriveSeed(seed, "perfbench.sift." + cell));
      const Us interval = 8.0 * kPayloadBytes / rate;

      const int synth = spans.Begin("phy.synthesize", root);
      Clock::time_point t = Clock::now();
      std::vector<std::span<const double>> traces;
      std::uint64_t cell_packets = 0;
      for (bench::SignalRun& run : scratch.runs) {
        bench::MakeIperfRunInto(width, plan.packets, interval, kPayloadBytes,
                                whitefi::SignalParams{}, rng.Fork(), run);
        traces.emplace_back(run.samples);
        pass.samples += run.samples.size();
        cell_packets += run.packets.size();
      }
      pass.packets += cell_packets;
      pass.synth_s += SecondsSince(t);
      spans.End(synth);

      const int detect = spans.Begin("sift.detect", root);
      t = Clock::now();
      scratch.batch->Reset();
      const std::vector<std::vector<whitefi::DetectedBurst>> bursts =
          scratch.batch->DetectAll(traces);
      pass.detect_s += SecondsSince(t);
      spans.End(detect);

      const int match = spans.Begin("sift.match", root);
      t = Clock::now();
      pass.hash.Add(cell);
      for (std::size_t r = 0; r < scratch.runs.size(); ++r) {
        const int found = bench::CountDetected(scratch.runs[r].packets,
                                               bursts[r],
                                               /*require_duration_match=*/true);
        pass.detected += static_cast<std::uint64_t>(found);
        pass.hash.Add(found);
        pass.hash.Add(static_cast<std::uint64_t>(bursts[r].size()));
      }
      pass.match_s += SecondsSince(t);
      spans.End(match);
      pass.cells += cell_packets > 0 ? 1 : 0;
    }
  }
  pass.run_s = SecondsSince(start);
  spans.End(root);
  return pass;
}

}  // namespace

Outcome RunSiftSignal(const Options& options) {
  const Plan plan =
      options.quick ? Plan{kQuickPacketsPerRun, kQuickRunsPerCell}
                    : Plan{kPacketsPerRun, kRunsPerCell};

  std::vector<double> setup_s;
  Scratch scratch;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    scratch = Scratch{};  // Release the previous buffers first.
    const Clock::time_point start = Clock::now();
    scratch = MakeScratch(plan);
    setup_s.push_back(SecondsSince(start));
  }

  Outcome out;
  SpanLog untraced(false);
  const Pass pass = RunPass(plan, options.seed, scratch, untraced);
  out.hash = pass.hash.Hex();
  out.attempted = pass.packets;
  out.failed = pass.packets - pass.detected;
  out.coverage = {
      {"sift.every_cell_present",
       pass.cells == static_cast<int>(whitefi::kAllWidths.size() *
                                      kRatesMbps.size())},
  };
  if (!options.trace) {
    out.metrics["run_s"] = {pass.run_s, "s"};
    out.metrics["setup_s"] = {Median(setup_s), "s"};
    out.metrics["peak_rss_mb"] = {PeakRssMiB(), "MiB"};
    return out;
  }

  SpanLog spans(true);
  const Pass t = RunPass(plan, options.seed, scratch, spans);
  out.repeatable = t.hash.Hex() == out.hash;
  if (!options.spans_path.empty()) spans.Write(options.spans_path);

  const double samples = static_cast<double>(t.samples);
  auto& m = out.metrics;
  m["phy.synth_s"] = {t.synth_s, "s"};
  m["phy.samples_per_s"] = {samples / t.synth_s, "1/s"};
  m["sift.detect_s"] = {t.detect_s, "s"};
  m["sift.match_s"] = {t.match_s, "s"};
  m["sift.samples_per_s"] = {samples / t.detect_s, "1/s"};
  m["sift.detection_rate"] = {
      Share(static_cast<double>(t.detected), static_cast<double>(t.packets)),
      "ratio"};
  m["obs.overhead_share"] = {t.run_s / pass.run_s - 1.0, "ratio"};
  return out;
}

}  // namespace perfbench
