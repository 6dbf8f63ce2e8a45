#include "sift/detector.h"

#include <algorithm>
#include <stdexcept>

#include "sift/kernel.h"

namespace whitefi {

namespace {

sift_kernel::KernelFn AsKernel(void* fn) {
  return reinterpret_cast<sift_kernel::KernelFn>(fn);
}

}  // namespace

SiftDetector::SiftDetector(const SiftParams& params) : params_(params) {
  if (params_.window <= 0) throw std::invalid_argument("window must be > 0");
  if (params_.threshold <= 0.0) {
    throw std::invalid_argument("threshold must be > 0");
  }
  const auto window = static_cast<std::size_t>(params_.window);
  tail_.assign(window, 0.0);
  inv_window_ = 1.0 / static_cast<double>(window);
  sum_threshold_ = params_.threshold * static_cast<double>(window);
  kernel_ = reinterpret_cast<void*>(sift_kernel::Resolve(params_.kernel));
}

void SiftDetector::SetObservability(const Observability& obs) {
  profiler_ = obs.profiler;
  if (obs.metrics == nullptr) {
    bursts_counter_ = nullptr;
    burst_us_ = nullptr;
    return;
  }
  bursts_counter_ = &obs.metrics->GetCounter("whitefi.sift.bursts");
  burst_us_ = &obs.metrics->GetHistogram("whitefi.sift.burst_us");
}

sift_kernel::Config SiftDetector::KernelConfig() const {
  return {
      .window = tail_.size(),
      .threshold = params_.threshold,
      .sum_threshold = sum_threshold_,
      .inv_window = inv_window_,
      .sample_period = params_.sample_period,
      .bursts_counter = bursts_counter_,
      .burst_us = burst_us_,
  };
}

void SiftDetector::ProcessBlock(std::span<const double> samples) {
  ScopedPhaseTimer timer(profiler_, "sift.detect");
  if (samples.empty()) return;
  AsKernel(kernel_)(KernelConfig(), core_, tail_.data(), merged_, completed_,
                    samples.data(), samples.size());
}

void SiftDetector::Flush() {
  if (core_.in_burst) {
    core_.in_burst = false;
    sift_kernel::EmitBurst(KernelConfig(), core_, completed_,
                           /*end_sample=*/core_.samples_seen);
  }
}

std::vector<DetectedBurst> SiftDetector::TakeBursts() {
  std::vector<DetectedBurst> out;
  out.swap(completed_);
  return out;
}

void SiftDetector::Reset() {
  core_ = SiftCoreState{};
  std::fill(tail_.begin(), tail_.end(), 0.0);
  completed_.clear();
}

std::vector<DetectedBurst> SiftDetector::Detect(
    std::span<const double> samples) {
  ProcessBlock(samples);
  Flush();
  return TakeBursts();
}

const char* SiftDetector::kernel_name() const {
  return sift_kernel::KernelName(AsKernel(kernel_));
}

}  // namespace whitefi
