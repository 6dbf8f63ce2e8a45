// Reproduces Figure 6: accuracy of airtime-utilization measurement using
// SIFT.
//
// The paper's observation: sending the same number of equal-size packets,
// the total measured air time (i) stays constant as the injection rate
// changes, and (ii) doubles each time the channel width halves — because
// halving the width halves the effective transmission rate.  SIFT's
// airtime books must recover exactly that.
#include <iostream>

#include "flags.h"
#include "sift_experiment.h"
#include "sift/airtime.h"
#include "sift/detector.h"
#include "util/report.h"
#include "util/stats.h"

namespace whitefi::bench {
namespace {

constexpr int kPacketsPerRun = 110;
constexpr int kRuns = 5;
constexpr int kPayloadBytes = 1000;

struct Cell {
  double measured_ms = 0.0;
  double expected_ms = 0.0;
};

Cell MeasureAirtime(ChannelWidth width, double rate_mbps,
                    std::uint64_t seed) {
  const PhyTiming timing = PhyTiming::ForWidth(width);
  const Us interval = 8.0 * kPayloadBytes / rate_mbps;
  Rng rng(seed);
  RunningStats measured;
  for (int run = 0; run < kRuns; ++run) {
    const SignalRun signal = MakeIperfRun(width, kPacketsPerRun, interval,
                                          kPayloadBytes, SignalParams{},
                                          rng.Fork());
    SiftDetector detector{SiftParams{}};
    measured.Add(TotalBurstAirtime(detector.Detect(signal.samples)));
  }
  Cell cell;
  cell.measured_ms = measured.Mean() / 1000.0;
  cell.expected_ms = kPacketsPerRun *
                     (timing.FrameDuration(kPayloadBytes) + timing.AckDuration()) /
                     1000.0;
  return cell;
}

int Main() {
  std::cout << "Figure 6: airtime measured by SIFT vs. ground truth\n"
            << "(constant across rates; doubles when the width halves)\n\n";
  const std::vector<double> rates{0.125, 0.25, 0.5, 0.75, 1.0};
  Table table({"width", "rate", "measured(ms)", "expected(ms)", "error"});
  std::uint64_t seed = 2000;
  for (ChannelWidth width : kAllWidths) {
    for (double rate : rates) {
      const Cell cell = MeasureAirtime(width, rate, seed++);
      table.AddRow({WidthLabel(width), FormatDouble(rate, 3) + "M",
                    FormatDouble(cell.measured_ms, 1),
                    FormatDouble(cell.expected_ms, 1),
                    FormatPercent(std::abs(cell.measured_ms - cell.expected_ms) /
                                  cell.expected_ms)});
    }
  }
  table.Print(std::cout);
  return 0;
}

}  // namespace
}  // namespace whitefi::bench

int main() {
  whitefi::bench::CheckSiftKernelEnvironment();
  return whitefi::bench::Main();
}
