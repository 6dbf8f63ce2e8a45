// Reproduces Figure 13: impact of churn in the background traffic.
//
// Setup (paper Section 5.4.1): 34 background pairs — two per free UHF
// channel of the campus map — whose sources follow a two-state Markov
// chain (Active: 25 ms CBR of 500-byte frames; Passive: silent).  The x-axis sweeps the
// chain's stationary active probability and mean state duration, from
// "all passive" to "all active".
//
// Expected shape: WhiteFi near-optimal everywhere; for high churn the
// static widest choice (OPT-20) becomes the worst; WhiteFi — which can
// re-adapt as the background moves — can even beat the best *static*
// choice, exactly as the paper observes.
#include <iostream>

#include "flags.h"
#include "obs/event_trace.h"
#include "scenario.h"
#include "spectrum/campus.h"
#include "util/report.h"
#include "util/stats.h"

namespace whitefi::bench {
namespace {

constexpr int kReps = 2;

struct ChurnPoint {
  std::string label;
  double p_active;
  double mean_state_s;  ///< Average state holding time.
};

ScenarioConfig MakeConfig(const ChurnPoint& point, std::uint64_t seed) {
  ScenarioConfig config;
  config.seed = seed;
  config.base_map = CampusSimulationMap();
  config.num_clients = 4;
  config.warmup_s = 3.0;
  config.measure_s = 20.0;
  ApParams ap;
  ap.assignment_interval = 3 * kTicksPerSec;
  ap.first_assignment_delay = 1 * kTicksPerSec;
  ap.scanner.dwell = 100 * kTicksPerMs;
  config.ap_params = ap;

  MarkovOnOffSource::Params markov;
  markov.initial_active_probability = point.p_active;
  if (point.p_active <= 0.0) {
    markov.mean_active = 0;
    markov.mean_passive = 365LL * 24 * 3600 * kTicksPerSec;
  } else if (point.p_active >= 1.0) {
    markov.mean_active = 365LL * 24 * 3600 * kTicksPerSec;
    markov.mean_passive = 0;
  } else {
    // Stationary probability p with average holding time D:
    // mean_active = 2Dp, mean_passive = 2D(1-p).
    markov.mean_active = static_cast<SimTime>(
        2.0 * point.mean_state_s * point.p_active * kTicksPerSec);
    markov.mean_passive = static_cast<SimTime>(
        2.0 * point.mean_state_s * (1.0 - point.p_active) * kTicksPerSec);
  }

  for (UhfIndex c : config.base_map.FreeIndices()) {
    for (int k = 0; k < 2; ++k) {  // Two pairs per free channel = 34.
      BackgroundSpec spec;
      spec.channel = c;
      spec.cbr_interval = 25 * kTicksPerMs;
      spec.payload_bytes = 500;
      spec.markov = markov;
      config.background.push_back(spec);
    }
  }
  return config;
}

/// A flight-recorder trace restricted to the protocol-level kinds
/// trace_lens analyses; per-frame kinds stay out so 14 adaptive runs fit
/// comfortably in one capture (exact per-kind counts are still kept).
EventTrace MakeProtocolTrace() {
  EventTraceOptions options;
  options.only = {
      TraceEventKind::kSpanBegin,   TraceEventKind::kSpanEnd,
      TraceEventKind::kStateEnter,  TraceEventKind::kChirp,
      TraceEventKind::kChannelSwitch, TraceEventKind::kIncumbentOn,
      TraceEventKind::kIncumbentOff, TraceEventKind::kNote,
  };
  return EventTrace(options);
}

int Main(int jobs, const std::string& trace_jsonl) {
  std::cout << "Figure 13: per-client throughput vs. background churn\n"
            << "(34 Markov on/off pairs, 25 ms CBR when active; "
            << kReps << " reps per point)\n\n";
  const std::vector<ChurnPoint> points{
      {"all passive", 0.0, 0.0},       {"p=1/4 d=30s", 0.25, 30.0},
      {"p=1/3 d=45s", 1.0 / 3.0, 45.0}, {"p=1/2 d=30s", 0.5, 30.0},
      {"p=2/3 d=45s", 2.0 / 3.0, 45.0}, {"p=3/4 d=30s", 0.75, 30.0},
      {"all active", 1.0, 0.0},
  };
  Table table({"churn", "WhiteFi", "OPT5", "OPT10", "OPT20", "OPT",
               "switches"});
  // Aggregate protocol metrics across every adaptive WhiteFi run (the OPT
  // baseline sweeps run unobserved).  Attaching the registry does not
  // perturb the simulation, so the table matches an uninstrumented build.
  MetricsRegistry metrics;
  // Optional flight recorder over the same adaptive runs (protocol-level
  // kinds only).  The OPT sweeps run unobserved either way, so the trace
  // content is identical for any --jobs value, and a detached recorder
  // leaves the printed table byte-identical.
  EventTrace trace = MakeProtocolTrace();
  std::uint64_t seed = 1400;
  for (const ChurnPoint& point : points) {
    RunningStats whitefi, opt5, opt10, opt20, opt, switches;
    for (int rep = 0; rep < kReps; ++rep) {
      ScenarioConfig config = MakeConfig(point, seed++);
      config.obs.metrics = &metrics;
      if (!trace_jsonl.empty()) config.obs.trace = &trace;
      // The adaptive run stays on this thread (it feeds the shared
      // metrics registry); only the OPT candidate sweeps fan out.
      const RunResult run = RunScenario(config);
      config.obs = {};
      whitefi.Add(run.per_client_mbps);
      switches.Add(run.switches);
      const auto [o5, o10, o20] = OptThroughputPerWidth(config, 6.0, jobs);
      opt5.Add(o5);
      opt10.Add(o10);
      opt20.Add(o20);
      opt.Add(std::max({o5, o10, o20}));
    }
    table.AddRow({point.label, FormatDouble(whitefi.Mean(), 2),
                  FormatDouble(opt5.Mean(), 2), FormatDouble(opt10.Mean(), 2),
                  FormatDouble(opt20.Mean(), 2), FormatDouble(opt.Mean(), 2),
                  FormatDouble(switches.Mean(), 1)});
  }
  table.Print(std::cout);
  std::cout << "\npaper: for high churn the static widest pick is worst and "
               "adaptive WhiteFi can beat every static choice\n";
  std::cout << "\nmetrics across all adaptive WhiteFi runs:\n"
            << metrics.Snapshot().ToText();
  if (!trace_jsonl.empty()) {
    if (!WriteOutput("event trace", trace_jsonl,
                     [&](std::ostream& os) { trace.WriteJsonl(os); })) {
      return 1;
    }
    // stderr, so stdout stays byte-identical to an untraced run (the CI
    // byte-identity leg diffs them directly).
    std::cerr << "event trace (" << trace.events().size()
              << " events) written to " << trace_jsonl << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace whitefi::bench

int main(int argc, char** argv) {
  std::string trace_jsonl;
  const int jobs = whitefi::bench::JobsFromArgs(argc, argv, &trace_jsonl);
  return whitefi::bench::Main(jobs, trace_jsonl);
}
