// Reproduces Figure 7: packets detected by SIFT vs. decoded by the Wi-Fi
// packet sniffer as the RF attenuation between two KNOWS devices grows.
//
// Expected shape (paper Section 5.1): both near 100% at low attenuation;
// SIFT detects even corrupted packets so it stays above the sniffer until
// ~96 dB, where its amplitude threshold produces a sharp cliff; the
// sniffer's capture ratio falls smoothly and crosses SIFT beyond ~98 dB —
// but by then it is down around 35%, useless to TCP.  SIFT's curve here is
// produced by running the real detector over attenuated synthesized
// signals; the sniffer follows the calibrated capture model.
#include <iostream>

#include "flags.h"
#include "phy/attenuation.h"
#include "sift_experiment.h"
#include "sift/detector.h"
#include "util/report.h"

namespace whitefi::bench {
namespace {

constexpr int kPackets = 200;
constexpr int kPayloadBytes = 1000;

double SiftDetectionRate(double attenuation_db, std::uint64_t seed) {
  SignalParams params;
  params.attenuation_db = attenuation_db;
  const SignalRun run =
      MakeIperfRun(ChannelWidth::kW10, kPackets, 5000.0, kPayloadBytes,
                   params, Rng(seed));
  SiftDetector detector{SiftParams{}};
  const auto bursts = detector.Detect(run.samples);
  // Figure 7 counts detection (no length matching), but a detection must
  // actually cover the packet — see CountDetectedByCoverage.
  return static_cast<double>(CountDetectedByCoverage(run.packets, bursts)) /
         kPackets;
}

double SnifferRate(double attenuation_db, Rng& rng) {
  const SnifferModel model;
  int captured = 0;
  for (int i = 0; i < kPackets; ++i) {
    captured += SnifferCaptures(model, attenuation_db, rng) ? 1 : 0;
  }
  return static_cast<double>(captured) / kPackets;
}

int Main() {
  std::cout << "Figure 7: detection vs. attenuation (" << kPackets
            << " packets per point)\n"
            << "Paper shape: SIFT ~100% with a cliff at ~96 dB; sniffer "
               "falls smoothly, ~35% at 98 dB.\n\n";
  Table table({"attenuation(dB)", "SIFT", "sniffer"});
  Rng rng(3000);
  std::uint64_t seed = 3100;
  for (double att = 60.0; att <= 104.0; att += 2.0) {
    table.AddRow({FormatDouble(att, 0),
                  FormatPercent(SiftDetectionRate(att, seed++)),
                  FormatPercent(SnifferRate(att, rng))});
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
