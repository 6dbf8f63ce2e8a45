// Reproduces Figure 11: impact of background traffic on per-client
// throughput.
//
// Setup (paper Section 5.4.1): the measured 17-free-channel campus
// spectrum map; X background AP/client pairs, each randomly assigned to a
// free UHF channel, sending CBR with 30 ms inter-packet delay; WhiteFi AP
// with backlogged clients.  Baselines: OPT-5/10/20 (best static channel of
// that width, found by exhaustive simulation) and OPT (their max).
//
// Expected shape: with little background, WhiteFi matches OPT-20 (widest
// wins); as pairs multiply, OPT-20 degrades and narrower widths take over,
// while WhiteFi stays near OPT throughout (paper: within 14%).
#include <iostream>

#include "scenario.h"
#include "spectrum/campus.h"
#include "util/report.h"
#include "util/stats.h"

namespace whitefi::bench {
namespace {

constexpr int kReps = 3;

ScenarioConfig MakeConfig(int pairs, std::uint64_t seed) {
  ScenarioConfig config;
  config.seed = seed;
  config.base_map = CampusSimulationMap();
  config.num_clients = 4;
  config.warmup_s = 2.0;
  config.measure_s = 5.0;
  ApParams ap;
  ap.assignment_interval = 2 * kTicksPerSec;
  ap.first_assignment_delay = 1 * kTicksPerSec;
  ap.scanner.dwell = 100 * kTicksPerMs;
  config.ap_params = ap;
  Rng rng(DeriveSeed(seed, "fig11.background"));
  const auto free = config.base_map.FreeIndices();
  for (int i = 0; i < pairs; ++i) {
    BackgroundSpec spec;
    spec.channel = rng.Pick(free);
    spec.cbr_interval = 30 * kTicksPerMs;
    spec.payload_bytes = 500;
    config.background.push_back(spec);
  }
  return config;
}

int Main() {
  std::cout << "Figure 11: per-client throughput vs. number of background "
               "AP/client pairs\n"
            << "(campus map, 17 free channels; 30 ms CBR background; "
            << kReps << " random placements per point)\n\n";
  Table table({"pairs", "WhiteFi", "OPT5", "OPT10", "OPT20", "OPT",
               "WhiteFi/OPT"});
  std::uint64_t seed = 1200;
  for (int pairs : {0, 5, 10, 15, 20, 25, 30}) {
    RunningStats whitefi, opt5, opt10, opt20, opt;
    for (int rep = 0; rep < kReps; ++rep) {
      const ScenarioConfig config = MakeConfig(pairs, seed++);
      whitefi.Add(RunScenario(config).per_client_mbps);
      const auto [o5, o10, o20] = OptThroughputPerWidth(config, 3.0);
      opt5.Add(o5);
      opt10.Add(o10);
      opt20.Add(o20);
      opt.Add(std::max({o5, o10, o20}));
    }
    table.AddRow({std::to_string(pairs), FormatDouble(whitefi.Mean(), 2),
                  FormatDouble(opt5.Mean(), 2), FormatDouble(opt10.Mean(), 2),
                  FormatDouble(opt20.Mean(), 2), FormatDouble(opt.Mean(), 2),
                  FormatPercent(whitefi.Mean() / opt.Mean())});
  }
  table.Print(std::cout);
  std::cout << "\npaper: WhiteFi always within 14% of OPT; OPT-20 degrades "
               "with load, OPT-10 overtakes around 10 pairs\n";
  return 0;
}

}  // namespace
}  // namespace whitefi::bench

int main() { return whitefi::bench::Main(); }
