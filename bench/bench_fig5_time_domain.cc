// Reproduces Figure 5: the time-domain view (amplitude envelope
// sqrt(I^2+Q^2) per 1.024 us sample) of a 132-byte 6 Mbps Data-ACK
// exchange at 20, 10, and 5 MHz channel widths.
//
// For each width this prints an ASCII rendering of the envelope (peak
// amplitude per time bin) plus the SIFT-detected burst boundaries — the
// data frame, the width-scaled SIFS gap, and the ACK.  Note the 5 MHz
// trace's low-amplitude leading ramp, the hardware artifact the paper
// blames for Table 1's slightly lower 5 MHz detection rate.
#include <algorithm>
#include <iostream>
#include <string>

#include "flags.h"
#include "phy/signal.h"
#include "sift/detector.h"
#include "sift/matcher.h"
#include "util/report.h"

namespace whitefi::bench {
namespace {

void RenderWidth(ChannelWidth width, std::uint64_t seed) {
  const PhyTiming timing = PhyTiming::ForWidth(width);
  SignalParams params;
  params.deep_ramp_probability = 0.0;  // Show the visible (shallow) ramp.
  SignalSynthesizer synth(params, Rng(seed));

  const Us start = 60.0;
  const auto bursts = MakeDataAckExchange(timing, start, 132);
  const Us total = bursts.back().start + bursts.back().duration + 80.0;
  const auto samples = synth.Synthesize(bursts, total);

  std::cout << "--- " << WidthLabel(width)
            << " 132-byte 6 Mbps-mode data-ack exchange ("
            << FormatDouble(total, 0) << " us window) ---\n";
  std::cout << "data " << FormatDouble(bursts[0].duration, 0) << " us | SIFS "
            << FormatDouble(timing.Sifs(), 0) << " us | ack "
            << FormatDouble(bursts[1].duration, 0) << " us\n";

  // Peak-per-bin envelope, 72 bins wide, 12 amplitude levels.
  constexpr int kBins = 72;
  constexpr int kLevels = 12;
  std::vector<double> peak(kBins, 0.0);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const int bin = static_cast<int>(i * kBins / samples.size());
    peak[static_cast<std::size_t>(bin)] =
        std::max(peak[static_cast<std::size_t>(bin)], samples[i]);
  }
  const double max_amp = *std::max_element(peak.begin(), peak.end());
  for (int level = kLevels; level >= 1; --level) {
    std::string line;
    for (int b = 0; b < kBins; ++b) {
      const double norm = peak[static_cast<std::size_t>(b)] / max_amp;
      line.push_back(norm >= static_cast<double>(level) / kLevels ? '#' : ' ');
    }
    std::cout << line << "\n";
  }
  std::cout << std::string(kBins, '-') << "\n0" << std::string(kBins - 12, ' ')
            << FormatDouble(total, 0) << " us\n";

  // What SIFT sees.
  SiftDetector detector{SiftParams{}};
  const auto detected = detector.Detect(samples);
  std::cout << "SIFT: " << detected.size() << " bursts:";
  for (const auto& d : detected) {
    std::cout << " [" << FormatDouble(d.start, 0) << ".."
              << FormatDouble(d.end, 0) << "]us";
  }
  const auto inferred = PatternMatcher().DominantWidth(detected);
  std::cout << " -> width "
            << (inferred.has_value() ? WidthLabel(*inferred) : "?") << "\n\n";
}

int Main() {
  std::cout << "Figure 5: time-domain view of Data-ACK frames at different "
               "channel widths\n\n";
  RenderWidth(ChannelWidth::kW20, 51);
  RenderWidth(ChannelWidth::kW10, 52);
  RenderWidth(ChannelWidth::kW5, 53);
  return 0;
}

}  // namespace
}  // namespace whitefi::bench

int main() {
  whitefi::bench::CheckSiftKernelEnvironment();
  return whitefi::bench::Main();
}
