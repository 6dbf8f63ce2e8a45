// Ablation: SIFT's sliding-window length (paper Section 4.2.1).
//
// The window must be (a) long enough to ride over mid-packet OFDM
// amplitude dips and (b) strictly shorter than the smallest SIFS it must
// preserve — 10 samples for 20 MHz.  The paper picks 5.  This bench sweeps
// the window length and reports, per width, the Table-1-style detection
// rate and the width-classification accuracy: small windows fragment
// packets at the dips; windows >= 10 bridge the 20 MHz SIFS and destroy
// the data/ACK pattern entirely.
#include <iostream>

#include "flags.h"
#include "sift_experiment.h"
#include "sift/detector.h"
#include "sift/matcher.h"
#include "util/report.h"

namespace whitefi::bench {
namespace {

struct Cell {
  double detection = 0.0;
  bool width_ok = false;
};

Cell Evaluate(ChannelWidth width, int window, std::uint64_t seed) {
  SignalParams params;
  params.deep_ramp_probability = 0.0;
  const PhyTiming t = PhyTiming::ForWidth(width);
  const Us interval =
      t.FrameDuration(1000) + t.Sifs() + t.AckDuration() + 3000.0;
  const SignalRun run =
      MakeIperfRun(width, 120, interval, 1000, params, Rng(seed));
  SiftParams sift;
  sift.window = window;
  SiftDetector detector(sift);
  const auto bursts = detector.Detect(run.samples);
  Cell cell;
  cell.detection =
      static_cast<double>(CountDetected(run.packets, bursts,
                                        /*require_duration_match=*/true)) /
      static_cast<double>(run.packets.size());
  const auto inferred = PatternMatcher().DominantWidth(bursts);
  cell.width_ok = inferred.has_value() && *inferred == width;
  return cell;
}

int Main() {
  std::cout << "Ablation: SIFT sliding-window length (paper uses 5; the "
               "minimum SIFS is 10 samples at 20 MHz)\n\n";
  Table table({"window", "det 5MHz", "det 10MHz", "det 20MHz", "width 5MHz",
               "width 10MHz", "width 20MHz"});
  std::uint64_t seed = 7300;
  for (int window : {1, 2, 3, 5, 8, 10, 12, 16}) {
    std::vector<std::string> row{std::to_string(window)};
    std::vector<std::string> width_cols;
    for (ChannelWidth width : kAllWidths) {
      const Cell cell = Evaluate(width, window, seed++);
      row.push_back(FormatDouble(cell.detection, 2));
      width_cols.push_back(cell.width_ok ? "ok" : "WRONG");
    }
    row.insert(row.end(), width_cols.begin(), width_cols.end());
    table.AddRow(row);
  }
  table.Print(std::cout);
  std::cout << "\nexpected: tiny windows fragment packets on envelope dips; "
               "windows >= 10 bridge the 20 MHz SIFS and lose its "
               "data/ACK pattern; 5 is the sweet spot\n";
  return 0;
}

}  // namespace
}  // namespace whitefi::bench

int main() {
  whitefi::bench::CheckSiftKernelEnvironment();
  return whitefi::bench::Main();
}
