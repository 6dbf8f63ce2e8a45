// Reproduces Figure 12: impact of spatial variation on per-client
// throughput.
//
// Setup (paper Section 5.4.1): 10 clients, one background pair per free
// UHF channel at 30 ms CBR, and per-node spectrum maps derived from the
// campus map by flipping each channel's entry independently with
// probability P in [0, 0.14].
//
// Expected shape: with P = 0 the widest channel wins; as P grows, the AP
// must find spectrum free at ALL clients, so wide channels disappear first
// (OPT-20, then OPT-10 collapse) and throughput converges to a single
// 5 MHz channel's; WhiteFi tracks the best feasible width throughout.
#include <iostream>

#include "scenario.h"
#include "spectrum/campus.h"
#include "util/report.h"
#include "util/stats.h"

namespace whitefi::bench {
namespace {

constexpr int kReps = 3;

ScenarioConfig MakeConfig(double flip_p, std::uint64_t seed) {
  ScenarioConfig config;
  config.seed = seed;
  config.base_map = CampusSimulationMap();
  config.num_clients = 10;
  config.client_map_flip_p = flip_p;
  config.warmup_s = 2.0;
  config.measure_s = 5.0;
  ApParams ap;
  ap.assignment_interval = 2 * kTicksPerSec;
  ap.first_assignment_delay = 1 * kTicksPerSec;
  ap.scanner.dwell = 100 * kTicksPerMs;
  config.ap_params = ap;
  Rng rng(DeriveSeed(seed, "fig12.background"));
  for (UhfIndex c : config.base_map.FreeIndices()) {
    BackgroundSpec spec;
    spec.channel = c;
    spec.cbr_interval = 30 * kTicksPerMs;
    spec.payload_bytes = 500;
    config.background.push_back(spec);
    (void)rng;
  }
  return config;
}

int Main() {
  std::cout << "Figure 12: per-client throughput vs. spatial variation "
               "(map-flip probability P)\n"
            << "(campus map, 10 clients, 1 background pair per free "
               "channel at 30 ms CBR)\n\n";
  Table table({"P", "WhiteFi", "OPT5", "OPT10", "OPT20", "OPT"});
  std::uint64_t seed = 1300;
  for (double p : {0.0, 0.01, 0.03, 0.05, 0.08, 0.10, 0.14}) {
    RunningStats whitefi, opt5, opt10, opt20, opt;
    for (int rep = 0; rep < kReps; ++rep) {
      const ScenarioConfig config = MakeConfig(p, seed++);
      whitefi.Add(RunScenario(config).per_client_mbps);
      const auto [o5, o10, o20] = OptThroughputPerWidth(config, 3.0);
      opt5.Add(o5);
      opt10.Add(o10);
      opt20.Add(o20);
      opt.Add(std::max({o5, o10, o20}));
    }
    table.AddRow({FormatDouble(p, 2), FormatDouble(whitefi.Mean(), 3),
                  FormatDouble(opt5.Mean(), 3), FormatDouble(opt10.Mean(), 3),
                  FormatDouble(opt20.Mean(), 3), FormatDouble(opt.Mean(), 3)});
  }
  table.Print(std::cout);
  std::cout << "\npaper: wide widths become infeasible as P grows (none "
               "contiguous for P > 0.1); no static width is near-optimal "
               "everywhere, WhiteFi is\n";
  return 0;
}

}  // namespace
}  // namespace whitefi::bench

int main() { return whitefi::bench::Main(); }
