#include "sift/correlate.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace whitefi {

ChirpCorrelator::ChirpCorrelator(const ChirpCorrelatorParams& params)
    : params_(params) {
  if (params_.chirp_samples == 0) {
    throw std::invalid_argument("chirp_samples must be > 0");
  }
}

namespace {

/// Resolves the auto guard: a fixed fraction of the on-region (see the
/// guard_samples doc in correlate.h).
std::size_t EffectiveGuard(const ChirpCorrelatorParams& params) {
  if (params.guard_samples != 0) return params.guard_samples;
  return std::max<std::size_t>(32, params.chirp_samples / 4);
}

/// Prefix sums of x and x^2: window sums become two lookups, so every
/// candidate position costs O(1) and the whole scan stays O(n) with no
/// drifting incremental state.
struct PrefixSums {
  std::vector<double> sum;   // sum[i] = x[0] + ... + x[i-1].
  std::vector<double> sum2;  // Same for squares.

  explicit PrefixSums(std::span<const double> x)
      : sum(x.size() + 1, 0.0), sum2(x.size() + 1, 0.0) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      sum[i + 1] = sum[i] + x[i];
      sum2[i + 1] = sum2[i] + x[i] * x[i];
    }
  }

  double Sum(std::size_t begin, std::size_t end) const {
    return sum[end] - sum[begin];
  }
  double Sum2(std::size_t begin, std::size_t end) const {
    return sum2[end] - sum2[begin];
  }
};

}  // namespace

std::optional<ChirpDetection> ChirpCorrelator::DetectNcc(
    std::span<const double> samples) const {
  const std::size_t on = params_.chirp_samples;
  const std::size_t guard = EffectiveGuard(params_);
  const std::size_t total = on + 2 * guard;
  if (samples.size() < total) return std::nullopt;

  const PrefixSums pre(samples);
  const auto total_d = static_cast<double>(total);
  const auto on_d = static_cast<double>(on);
  // Template energy Σ(t - t̄)² for the 0/1 template with mean on/total.
  const double template_energy = on_d * (total_d - on_d) / total_d;

  bool found = false;
  ChirpDetection best;
  const std::size_t last = samples.size() - total;
  for (std::size_t p = 0; p <= last; ++p) {
    const double s_all = pre.Sum(p, p + total);
    const double s_on = pre.Sum(p + guard, p + guard + on);
    // Zero-mean correlation: Σ(t - t̄)(x - x̄) = S_on - S_all·on/T (the
    // x-mean term vanishes because the zero-mean template sums to 0).
    const double num = s_on - s_all * on_d / total_d;
    const double signal_energy =
        pre.Sum2(p, p + total) - s_all * s_all / total_d;
    const double den2 = template_energy * signal_energy;
    if (!(den2 > 0.0)) continue;  // Constant window: NCC undefined.
    const double score = num / std::sqrt(den2);
    if (!found || score > best.score) {
      found = true;
      best.position = p + guard;
      best.score = score;
    }
  }
  if (!found || best.score < params_.ncc_threshold) return std::nullopt;
  return best;
}

std::optional<ChirpDetection> ChirpCorrelator::DetectDot(
    std::span<const double> samples) const {
  const std::size_t on = params_.chirp_samples;
  const std::size_t guard = EffectiveGuard(params_);
  const std::size_t total = on + 2 * guard;
  if (samples.size() < total) return std::nullopt;

  const PrefixSums pre(samples);
  bool found = false;
  ChirpDetection best;
  const std::size_t last = samples.size() - total;
  for (std::size_t p = 0; p <= last; ++p) {
    // 0/1 template: the dot product is the on-region sum, minus the guard
    // sums so energy spilling past the template edges is penalized (a pure
    // on-sum would tie across every offset inside a long burst).
    const double s_on = pre.Sum(p + guard, p + guard + on);
    const double s_guard = pre.Sum(p, p + guard) +
                           pre.Sum(p + guard + on, p + total);
    const double score = s_on - s_guard;
    if (!found || score > best.score) {
      found = true;
      best.position = p + guard;
      best.score = score;
    }
  }
  if (!found) return std::nullopt;
  const double mean_on =
      pre.Sum(best.position, best.position + on) / static_cast<double>(on);
  if (mean_on < params_.amplitude_threshold) return std::nullopt;
  return best;
}

}  // namespace whitefi
