#include "sift/batch.h"

#include <algorithm>
#include <stdexcept>

namespace whitefi {

SiftBatch::SiftBatch(const SiftParams& params, std::size_t lanes)
    : lanes_(lanes, SiftDetector(params)) {
  if (lanes == 0) throw std::invalid_argument("lanes must be > 0");
}

void SiftBatch::SetObservability(const Observability& obs) {
  for (SiftDetector& lane : lanes_) lane.SetObservability(obs);
}

void SiftBatch::FlushAll() {
  for (SiftDetector& lane : lanes_) lane.Flush();
}

std::vector<std::vector<DetectedBurst>> SiftBatch::DetectAll(
    std::span<const std::span<const double>> traces) {
  // Every lane's samples first, then every lane's flush, so metric sinks
  // see the bursts in one fixed order.
  const std::size_t n = std::min(traces.size(), lanes_.size());
  for (std::size_t lane = 0; lane < n; ++lane) {
    lanes_[lane].ProcessBlock(traces[lane]);
  }
  std::vector<std::vector<DetectedBurst>> out;
  out.reserve(n);
  for (std::size_t lane = 0; lane < n; ++lane) {
    lanes_[lane].Flush();
    out.push_back(lanes_[lane].TakeBursts());
  }
  return out;
}

void SiftBatch::Reset() {
  for (SiftDetector& lane : lanes_) lane.Reset();
}

}  // namespace whitefi
