// Reproduces Table 1: SIFT's packet detection rate across channel widths
// (5/10/20 MHz) and traffic intensities (0.125-1 Mbps).
//
// Methodology (paper Section 5.1): per cell, 10 runs of 110 packets of
// 1000 bytes each; a packet counts as detected when SIFT recovers a burst
// overlapping it whose measured length matches the transmitted one; the
// cell reports the median ratio over the runs.  The paper's values are
// 0.97-1.00 everywhere, with 5 MHz slightly lower because of the
// low-amplitude ramp its hardware puts at the start of 5 MHz packets.
#include <iostream>

#include "flags.h"
#include "sift_experiment.h"
#include "sift/detector.h"
#include "util/parallel.h"
#include "util/report.h"
#include "util/stats.h"

namespace whitefi::bench {
namespace {

constexpr int kPacketsPerRun = 110;
constexpr int kRuns = 10;
constexpr int kPayloadBytes = 1000;

double MedianDetectionRate(ChannelWidth width, double rate_mbps,
                           std::uint64_t seed) {
  // 1000-byte packets at `rate_mbps`: inter-packet interval in us.
  const Us interval = 8.0 * kPayloadBytes / rate_mbps;
  Rng rng(seed);
  // The cell's runs ride the batched scanner: one SiftBatch pass per
  // flush-group of runs, byte-identical to the old detector-per-run loop.
  const std::vector<int> detected = BatchedDetectionCounts(
      width, kRuns, kPacketsPerRun, interval, kPayloadBytes, SignalParams{},
      rng, /*require_duration_match=*/true);
  std::vector<double> rates;
  rates.reserve(detected.size());
  for (const int count : detected) {
    rates.push_back(static_cast<double>(count) / kPacketsPerRun);
  }
  return Median(std::move(rates));
}

int Main(int jobs) {
  std::cout << "Table 1: SIFT packet detection rate (median of " << kRuns
            << " runs, " << kPacketsPerRun << " x " << kPayloadBytes
            << "B packets per run)\n"
            << "Paper: 0.97-1.00 everywhere; 5 MHz slightly lower due to the "
               "ramp artifact.\n\n";
  const std::vector<double> rates{0.125, 0.25, 0.5, 0.75, 1.0};
  Table table({"width", "0.125M", "0.25M", "0.5M", "0.75M", "1M"});
  // Every cell is seeded by its grid index alone, so the grid is a pure
  // index -> rate map and parallelizes without changing a digit.
  constexpr std::uint64_t kSeedBase = 1000;
  const std::vector<double> cells = ParallelMap(
      jobs, kAllWidths.size() * rates.size(), [&](std::size_t i) {
        const ChannelWidth width = kAllWidths[i / rates.size()];
        const double rate = rates[i % rates.size()];
        return MedianDetectionRate(width, rate, kSeedBase + i);
      });
  std::size_t cell = 0;
  for (ChannelWidth width : kAllWidths) {
    std::vector<std::string> row{WidthLabel(width)};
    for (std::size_t r = 0; r < rates.size(); ++r, ++cell) {
      row.push_back(FormatDouble(cells[cell], 2));
    }
    table.AddRow(row);
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
