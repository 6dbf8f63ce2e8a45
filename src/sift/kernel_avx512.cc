// AVX-512 flavor of the SIFT block kernel: eight window sums per step.
//
// Same structure and byte-identity argument as kernel_avx2.cc — lane-wise
// left-associated vector adds form each window sum in the exact scalar
// order, the burst state machine runs scalar over the precomputed sums,
// and whole groups collapse only when no lane can flip the in/out-of-burst
// state.  Compiled behind a per-function target("avx512f") attribute so
// any x86 build carries it; only Resolve() (after the runtime probe) ever
// hands it out.
#include "sift/kernel.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <limits>

namespace whitefi::sift_kernel {
namespace {

/// Horizontal max of 8 lanes.  Lambdas do not inherit the enclosing
/// function's target attribute, so the fold helper is a free function.
__attribute__((target("avx512f"))) inline double HorizontalMax8(__m512d v) {
  return _mm512_reduce_max_pd(v);
}

__attribute__((target("avx512f"))) void RunBlockAvx512Impl(
    const Config& cfg, SiftCoreState& core, double* tail,
    std::vector<double>& merged, std::vector<DetectedBurst>& out,
    const double* x, std::size_t n) {
  detail::Machine m{core.last_above_sample, core.in_burst, core.burst_peak};
  const std::size_t warm =
      detail::RunWarmup(cfg, core, m, tail, merged, out, x, n);

  const std::size_t window = cfg.window;
  const auto wdiff = static_cast<std::ptrdiff_t>(window);
  const double thr = cfg.threshold;
  const double sum_thr = cfg.sum_threshold;
  const double inv = cfg.inv_window;
  const std::size_t base = core.samples_seen;
  std::ptrdiff_t last_above = m.last_above;
  bool in_burst = m.in_burst;
  double peak = m.peak;
  const __m512d thr_v = _mm512_set1_pd(thr);
  const __m512d sum_thr_v = _mm512_set1_pd(sum_thr);
  const __m512d inv_v = _mm512_set1_pd(inv);

  // Lane-wise running max of in-burst window averages, folded into `peak`
  // lazily (see kernel_avx2.cc: max over positive finite doubles is exact
  // and order-independent, -inf is the identity).
  const __m512d neg_inf_v =
      _mm512_set1_pd(-std::numeric_limits<double>::infinity());
  __m512d peak_v = neg_inf_v;

  std::size_t i = warm;
  while (i + 8 <= n) {
    const __m512d s8 = _mm512_loadu_pd(x + i);
    const unsigned above =
        _mm512_cmp_pd_mask(s8, thr_v, _CMP_GT_OQ);
    if (!in_burst && above == 0 &&
        static_cast<std::ptrdiff_t>(base + i) - last_above >= wdiff) {
      // Whole group quiet: last_above is unchanged and the per-sample gate
      // holds for all eight.  Then greedily extend the skip, 32 samples
      // per compare.
      i += 8;
      while (i + 32 <= n) {
        const __mmask8 a = _mm512_cmp_pd_mask(_mm512_loadu_pd(x + i), thr_v,
                                              _CMP_GT_OQ);
        const __mmask8 b = _mm512_cmp_pd_mask(_mm512_loadu_pd(x + i + 8),
                                              thr_v, _CMP_GT_OQ);
        const __mmask8 c = _mm512_cmp_pd_mask(_mm512_loadu_pd(x + i + 16),
                                              thr_v, _CMP_GT_OQ);
        const __mmask8 d = _mm512_cmp_pd_mask(_mm512_loadu_pd(x + i + 24),
                                              thr_v, _CMP_GT_OQ);
        if ((a | b | c | d) != 0) break;
        i += 32;
      }
      continue;
    }

    // Eight window sums, lane-wise in the exact scalar order.
    const double* wbase = x + i + 1 - window;
    __m512d acc = _mm512_loadu_pd(wbase);
    for (std::size_t k = 1; k < window; ++k) {
      acc = _mm512_add_pd(acc, _mm512_loadu_pd(wbase + k));
    }

    // Group fast paths (see kernel_avx2.cc for the identity argument).
    const unsigned sums_above =
        _mm512_cmp_pd_mask(acc, sum_thr_v, _CMP_GT_OQ);
    if (in_burst ? sums_above == 0xFFu : sums_above == 0) {
      if (above != 0) {
        last_above = static_cast<std::ptrdiff_t>(base + i) +
                     (31 - __builtin_clz(above));
      }
      if (in_burst) {
        peak_v = _mm512_max_pd(peak_v, _mm512_mul_pd(acc, inv_v));
      }
      i += 8;
      continue;
    }

    {  // The scalar machine below reads and writes `peak`: fold first.
      const double gmax = HorizontalMax8(peak_v);
      if (gmax > peak) peak = gmax;
      peak_v = neg_inf_v;
    }
    alignas(64) double sums[8];
    _mm512_store_pd(sums, acc);

    // Burst state machine, scalar over the precomputed sums.
    for (std::size_t j = 0; j < 8; ++j) {
      const double s = x[i + j];
      const auto g = static_cast<std::ptrdiff_t>(base + i + j);
      if (s > thr) last_above = g;
      if (!in_burst && g - last_above >= wdiff) continue;
      const double sum = sums[j];
      if (!in_burst) {
        if (sum > sum_thr) {
          in_burst = true;
          peak = sum * inv;
          const double* w = x + i + j + 1 - window;
          core.burst_start_sample = base + i + j + 1 - window;
          for (std::size_t k = 0; k < window; ++k) {
            if (w[k] > thr) {
              core.burst_start_sample = base + i + j + 1 - window + k;
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
    i += 8;
  }

  // Sub-vector remainder through the shared scalar machine.
  {
    const double gmax = HorizontalMax8(peak_v);
    if (gmax > peak) peak = gmax;
  }
  m.last_above = last_above;
  m.in_burst = in_burst;
  m.peak = peak;
  detail::RunMainScalarRange(cfg, core, m, out, x, i, n);

  detail::SaveTail(cfg, tail, x, n);
  core.last_above_sample = m.last_above;
  core.in_burst = m.in_burst;
  core.burst_peak = m.peak;
  core.samples_seen += n;
}

}  // namespace

void RunBlockAvx512(const Config& cfg, SiftCoreState& core, double* tail,
                    std::vector<double>& merged,
                    std::vector<DetectedBurst>& out, const double* x,
                    std::size_t n) {
  // Tiny blocks (one-sample streaming, warmup-dominated fragments)
  // gain nothing from the vector loops but still pay the constant setup;
  // scalar is the byte-identical reference, so delegate before even
  // entering the target-attributed function.
  if (n < 32) {
    RunBlockScalar(cfg, core, tail, merged, out, x, n);
    return;
  }
  RunBlockAvx512Impl(cfg, core, tail, merged, out, x, n);
}

}  // namespace whitefi::sift_kernel

#else  // Non-x86 target: Resolve() never hands this out; keep the symbol.

namespace whitefi::sift_kernel {

void RunBlockAvx512(const Config& cfg, SiftCoreState& core, double* tail,
                    std::vector<double>& merged,
                    std::vector<DetectedBurst>& out, const double* x,
                    std::size_t n) {
  RunBlockScalar(cfg, core, tail, merged, out, x, n);
}

}  // namespace whitefi::sift_kernel

#endif
