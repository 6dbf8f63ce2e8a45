// SIFT "oscilloscope": watch the signal-level pipeline work.
//
// Synthesizes the raw amplitude trace a USRP scanner would capture while a
// hidden WhiteFi transmitter exchanges Data-ACK frames at an unknown
// width, then runs SIFT over it: packet-edge detection with the 5-sample
// moving average, Data->SIFS->ACK pattern matching, width inference, and
// airtime estimation.  Also demonstrates the chirp length-decoder used by
// the disconnection protocol.
//
// Run: ./build/examples/sift_scope
#include <iostream>

#include "core/whitefi.h"
#include "flags.h"

using namespace whitefi;

int main() {
  bench::CheckSiftKernelEnvironment();
  std::cout << "SIFT scope\n==========\n\n";
  Rng rng(7);

  // A transmitter picks a width we pretend not to know.
  const ChannelWidth secret = rng.Pick(
      std::vector<ChannelWidth>(kAllWidths.begin(), kAllWidths.end()));
  const PhyTiming timing = PhyTiming::ForWidth(secret);

  // It sends 12 data-ACK exchanges of 700-byte frames.
  const Us spacing =
      timing.FrameDuration(700) + timing.Sifs() + timing.AckDuration() + 2500.0;
  const auto schedule = MakeCbrSchedule(timing, 12, spacing, 700, 800.0);
  SignalSynthesizer synth(SignalParams{}, rng.Fork());
  const Us window = 12 * spacing + 2000.0;
  const auto samples = synth.Synthesize(schedule, window);
  std::cout << "captured " << samples.size() << " amplitude samples ("
            << FormatDouble(window / 1000.0, 1) << " ms at 1 MS/s)\n\n";

  // SIFT step 1: edge detection in the time domain.
  SiftDetector detector{SiftParams{}};
  const auto bursts = detector.Detect(samples);
  std::cout << "detected " << bursts.size() << " bursts; first four:\n";
  for (std::size_t i = 0; i < bursts.size() && i < 4; ++i) {
    std::cout << "  [" << FormatDouble(bursts[i].start, 0) << " .. "
              << FormatDouble(bursts[i].end, 0) << "] us  ("
              << FormatDouble(bursts[i].Duration(), 0) << " us)\n";
  }

  // SIFT step 2: width inference from the Data->SIFS->ACK pattern.
  PatternMatcher matcher;
  const auto matches = matcher.MatchAll(bursts);
  const auto width = matcher.DominantWidth(bursts);
  std::cout << "\nmatched " << matches.size() << " data-ACK exchanges\n";
  std::cout << "inferred width: "
            << (width.has_value() ? WidthLabel(*width) : std::string("?"))
            << "   (actual: " << WidthLabel(secret) << ")  "
            << (width == secret ? "CORRECT" : "WRONG") << "\n";

  // SIFT step 3: airtime estimation for the MCham metric.
  const double airtime = BusyAirtimeFraction(bursts, 0.0, window);
  const double truth =
      12.0 * (timing.FrameDuration(700) + timing.AckDuration()) / window;
  std::cout << "airtime: measured " << FormatPercent(airtime) << ", truth "
            << FormatPercent(truth) << "\n\n";

  // Bonus: the chirp OOK decoder (Section 4.3's SSID length-code).
  const ChirpCodec codec;
  const int ssid = 42;
  const Burst chirp{1000.0, codec.Encode(ssid), false, 1.0};
  SignalSynthesizer chirp_synth(SignalParams{}, rng.Fork());
  SiftDetector chirp_detector{SiftParams{}};
  const auto chirp_bursts =
      chirp_detector.Detect(chirp_synth.Synthesize({{chirp}}, 12000.0));
  std::cout << "chirp demo: encoded SSID " << ssid << " as a "
            << FormatDouble(chirp.duration, 0) << " us chirp; decoded "
            << (chirp_bursts.size() == 1 && codec.Decode(chirp_bursts[0])
                    ? std::to_string(*codec.Decode(chirp_bursts[0]))
                    : std::string("nothing"))
            << "\n";
  return 0;
}
