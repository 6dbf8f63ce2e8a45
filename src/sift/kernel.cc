#include "sift/kernel.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "util/cpu.h"

namespace whitefi::sift_kernel {

void EmitBurst(const Config& cfg, SiftCoreState& core,
               std::vector<DetectedBurst>& out, std::size_t end_sample) {
  DetectedBurst burst;
  burst.start =
      static_cast<double>(core.burst_start_sample) * cfg.sample_period;
  burst.end = static_cast<double>(std::max(end_sample, core.burst_start_sample)) *
              cfg.sample_period;
  burst.peak_average = core.burst_peak;
  if (burst.end > burst.start) {
    WHITEFI_METRIC_COUNT(cfg.bursts_counter, 1);
    WHITEFI_METRIC_OBSERVE(cfg.burst_us, burst.Duration());
    out.push_back(burst);
  }
}

namespace detail {

std::size_t RunWarmup(const Config& cfg, SiftCoreState& core, Machine& m,
                      const double* tail, std::vector<double>& merged,
                      std::vector<DetectedBurst>& out, const double* x,
                      std::size_t n) {
  const std::size_t window = cfg.window;
  const auto wdiff = static_cast<std::ptrdiff_t>(window);
  const double thr = cfg.threshold;
  const std::size_t base = core.samples_seen;

  // Warmup: the first window-1 samples straddle the previous block (or the
  // pre-stream zeros), so their windows read from tail ++ block.
  const std::size_t warm = std::min(n, window - 1);
  if (warm == 0) return 0;
  merged.resize(window + warm);
  std::copy(tail, tail + window, merged.begin());
  std::copy(x, x + warm, merged.begin() + static_cast<std::ptrdiff_t>(window));
  const double* mg = merged.data();  // mg[j] is global sample base - W + j.
  for (std::size_t i = 0; i < warm; ++i) {
    const double s = x[i];
    const auto g = static_cast<std::ptrdiff_t>(base + i);
    if (s > thr) m.last_above = g;
    const bool gated = g - m.last_above < wdiff;
    if (!m.in_burst && !gated) continue;
    const double* w = mg + i + 1;  // Oldest in-window sample.
    double sum = w[0];
    for (std::size_t k = 1; k < window; ++k) sum += w[k];
    if (!m.in_burst) {
      if (sum > cfg.sum_threshold) {
        m.in_burst = true;
        m.peak = sum * cfg.inv_window;
        const std::size_t first =
            base + i + 1 >= window ? base + i + 1 - window : 0;
        core.burst_start_sample = first;
        for (std::size_t k = 0; k < window; ++k) {
          if (w[k] > thr) {
            core.burst_start_sample = base + i + 1 - window + k;
            break;
          }
        }
      }
    } else {
      const double average = sum * cfg.inv_window;
      if (average > m.peak) m.peak = average;
      if (!(sum > cfg.sum_threshold)) {
        m.in_burst = false;
        core.burst_peak = m.peak;
        EmitBurst(cfg, core, out, static_cast<std::size_t>(m.last_above + 1));
      }
    }
  }
  return warm;
}

void SaveTail(const Config& cfg, double* tail, const double* x,
              std::size_t n) {
  const std::size_t window = cfg.window;
  if (n >= window) {
    std::copy(x + n - window, x + n, tail);
  } else {
    std::copy(tail + n, tail + window, tail);
    std::copy(x, x + n, tail + window - n);
  }
}

namespace {

/// Main-region samples [i0, i1): the window lies entirely inside the
/// block.  KW is the compile-time window length for the unrolled fast
/// path (KW == 0 selects the runtime-window generic path).
///
/// noinline is a measured 1.5x: standalone, each instantiation gets the
/// full jump-threading budget and GCC specializes the loop body per
/// machine state; inlined into RunBlockScalar next to the warmup call it
/// compiles to one generic branchy body.
template <int KW>
__attribute__((noinline)) void MainScalarRange(const Config& cfg,
                                               SiftCoreState& core, Machine& m,
                     std::vector<DetectedBurst>& out, const double* x,
                     std::size_t i0, std::size_t i1) {
  const std::size_t window =
      KW > 0 ? static_cast<std::size_t>(KW) : cfg.window;
  const auto wdiff = static_cast<std::ptrdiff_t>(window);
  const double thr = cfg.threshold;
  const double sum_thr = cfg.sum_threshold;
  const double inv = cfg.inv_window;
  const std::size_t base = core.samples_seen;
  std::ptrdiff_t last_above = m.last_above;
  bool in_burst = m.in_burst;
  double peak = m.peak;

  for (std::size_t i = i0; i < i1; ++i) {
    const double s = x[i];
    const auto g = static_cast<std::ptrdiff_t>(base + i);
    if (s > thr) last_above = g;
    if (!in_burst && g - last_above >= wdiff) {
      // Quiet noise floor.  Every following at-or-below-threshold sample
      // keeps this exact state (last_above fixed, the gate distance only
      // grows), so scan ahead for the next above-threshold sample instead
      // of re-deriving the state per sample; four compares per step keeps
      // the loop-carried work off the critical path.
      while (i + 4 < i1 && !(x[i + 1] > thr) && !(x[i + 2] > thr) &&
             !(x[i + 3] > thr) && !(x[i + 4] > thr)) {
        i += 4;
      }
      while (i + 1 < i1 && !(x[i + 1] > thr)) ++i;
      continue;
    }
    const double* w = x + i + 1 - window;
    double sum;
    if constexpr (KW > 0) {
      sum = w[0];
      for (int k = 1; k < KW; ++k) sum += w[k];  // Fully unrolled.
    } else {
      sum = w[0];
      for (std::size_t k = 1; k < window; ++k) sum += w[k];
    }
    if (!in_burst) {
      if (sum > sum_thr) {
        in_burst = true;
        peak = sum * inv;
        core.burst_start_sample = base + i + 1 - window;
        for (std::size_t k = 0; k < window; ++k) {
          if (w[k] > thr) {
            core.burst_start_sample = base + i + 1 - window + k;
            break;
          }
        }
      }
    } else {
      const double average = sum * inv;
      if (average > peak) peak = average;
      if (!(sum > sum_thr)) {
        in_burst = false;
        core.burst_peak = peak;
        EmitBurst(cfg, core, out, static_cast<std::size_t>(last_above + 1));
      }
    }
  }

  m.last_above = last_above;
  m.in_burst = in_burst;
  m.peak = peak;
}

}  // namespace

void RunMainScalarRange(const Config& cfg, SiftCoreState& core, Machine& m,
                        std::vector<DetectedBurst>& out, const double* x,
                        std::size_t i0, std::size_t i1) {
  MainScalarRange<0>(cfg, core, m, out, x, i0, i1);
}

}  // namespace detail

void RunBlockScalar(const Config& cfg, SiftCoreState& core, double* tail,
                    std::vector<double>& merged,
                    std::vector<DetectedBurst>& out, const double* x,
                    std::size_t n) {
  detail::Machine m{core.last_above_sample, core.in_burst, core.burst_peak};
  const std::size_t warm =
      detail::RunWarmup(cfg, core, m, tail, merged, out, x, n);
  // The paper's 5-sample window gets the unrolled kernel.
  if (cfg.window == 5) {
    detail::MainScalarRange<5>(cfg, core, m, out, x, warm, n);
  } else {
    detail::MainScalarRange<0>(cfg, core, m, out, x, warm, n);
  }
  detail::SaveTail(cfg, tail, x, n);
  core.last_above_sample = m.last_above;
  core.in_burst = m.in_burst;
  core.burst_peak = m.peak;
  core.samples_seen += n;
}

std::optional<SiftKernelChoice> ParseKernelChoice(std::string_view name) {
  if (name == "auto") return SiftKernelChoice::kAuto;
  if (name == "simd") return SiftKernelChoice::kSimd;
  if (name == "scalar") return SiftKernelChoice::kScalar;
  if (name == "avx2") return SiftKernelChoice::kAvx2;
  if (name == "avx512") return SiftKernelChoice::kAvx512;
  return std::nullopt;
}

namespace {

/// The WHITEFI_SIFT_KERNEL choice; the variable is read once per process.
SiftKernelChoice EnvironmentChoice() {
  static const std::string value = [] {
    const char* env = std::getenv("WHITEFI_SIFT_KERNEL");
    return std::string(env == nullptr ? "auto" : env);
  }();
  if (const auto choice = ParseKernelChoice(value)) return *choice;
  throw std::invalid_argument(
      "WHITEFI_SIFT_KERNEL='" + value +
      "' names no SIFT kernel (expected auto, simd, scalar, avx2 or avx512)");
}

}  // namespace

KernelFn Resolve(SiftKernelChoice choice) {
  if (choice == SiftKernelChoice::kAuto) choice = EnvironmentChoice();
  if (choice == SiftKernelChoice::kAuto &&
      (CpuSupportsAvx512() || CpuSupportsAvx2())) {
    choice = SiftKernelChoice::kSimd;
  }
  if (choice == SiftKernelChoice::kSimd) {
    // "simd" means the widest vector kernel this host can execute.
    if (CpuSupportsAvx512()) {
      choice = SiftKernelChoice::kAvx512;
    } else if (CpuSupportsAvx2()) {
      choice = SiftKernelChoice::kAvx2;
    } else {
      throw std::invalid_argument(
          "SIFT simd kernel requested but AVX2 is not available on this host");
    }
  }
  if (choice == SiftKernelChoice::kAvx512) {
    if (!CpuSupportsAvx512()) {
      throw std::invalid_argument(
          "SIFT avx512 kernel requested but AVX-512F is not available on "
          "this host");
    }
    return RunBlockAvx512;
  }
  if (choice == SiftKernelChoice::kAvx2) {
    if (!CpuSupportsAvx2()) {
      throw std::invalid_argument(
          "SIFT avx2 kernel requested but AVX2 is not available on this host");
    }
    return RunBlockAvx2;
  }
  return RunBlockScalar;
}

const char* KernelName(KernelFn fn) {
  if (fn == RunBlockAvx512) return "simd-avx512";
  if (fn == RunBlockAvx2) return "simd-avx2";
  return "scalar";
}

}  // namespace whitefi::sift_kernel
