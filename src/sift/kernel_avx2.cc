// AVX2 flavor of the SIFT block kernel.
//
// Compiled into every x86 build via a per-function target("avx2")
// attribute — no -mavx2 build flag required — and only ever invoked
// through sift_kernel::Resolve(), which checks the CPU probe first.
//
// Byte-identity with the scalar kernel is structural, not approximate:
//  * the four window sums of a SIMD step are formed by W-1 lane-wise
//    vector adds of unaligned loads at consecutive offsets, so lane j
//    accumulates exactly the scalar left-associated sum of the same W
//    samples in the same order (no horizontal reduction, no
//    reassociation, denormals untouched — MXCSR FTZ/DAZ are never set);
//  * the burst state machine consumes those sums scalar, sample by
//    sample, sharing RunWarmup / RunMainScalarRange / SaveTail with the
//    scalar kernel;
//  * the noise-floor gate lifts to groups: a 4-sample group whose compare
//    mask is empty, while out of a burst and a full window past the last
//    above-threshold sample, is skipped whole (the scalar kernel would
//    skip each of its samples individually), and deep quiet stretches are
//    skipped 16 samples per compare.
#include "sift/kernel.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <limits>

namespace whitefi::sift_kernel {
namespace {

/// Horizontal max of 4 lanes.  Lambdas do not inherit the enclosing
/// function's target attribute, so the fold helper is a free function.
__attribute__((target("avx2"))) inline double HorizontalMax4(__m256d v) {
  const __m128d half =
      _mm_max_pd(_mm256_castpd256_pd128(v), _mm256_extractf128_pd(v, 1));
  return _mm_cvtsd_f64(_mm_max_sd(half, _mm_unpackhi_pd(half, half)));
}

__attribute__((target("avx2"))) void RunBlockAvx2Impl(
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
  const __m256d thr_v = _mm256_set1_pd(thr);
  const __m256d sum_thr_v = _mm256_set1_pd(sum_thr);
  const __m256d inv_v = _mm256_set1_pd(inv);

  // Lane-wise running max of in-burst window averages, folded into `peak`
  // lazily (only when the scalar machine needs the up-to-date value).
  // Max over positive finite doubles is exact, associative, and
  // commutative, so any reduction order equals the scalar left-to-right
  // chain bit for bit; -inf is the identity.
  const __m256d neg_inf_v =
      _mm256_set1_pd(-std::numeric_limits<double>::infinity());
  __m256d peak_v = neg_inf_v;

  std::size_t i = warm;

  // Super-groups of two vectors: one branch decides eight samples, and the
  // two accumulator chains are independent, so they pipeline.  Any group
  // that cannot collapse drops to the 4-wide loop below (the slow path
  // settles only the first four samples; the second four re-enter here).
  while (i + 8 <= n) {
    const __m256d s4a = _mm256_loadu_pd(x + i);
    const __m256d s4b = _mm256_loadu_pd(x + i + 4);
    const auto above_a = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(s4a, thr_v, _CMP_GT_OQ)));
    const auto above_b = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(s4b, thr_v, _CMP_GT_OQ)));
    const unsigned above8 = above_a | (above_b << 4);
    if (!in_burst && above8 == 0 &&
        static_cast<std::ptrdiff_t>(base + i) - last_above >= wdiff) {
      // Whole super-group quiet (same argument as the 4-wide quiet skip:
      // last_above is unchanged and the gate distance only grows).
      i += 8;
      while (i + 16 <= n) {
        const __m256d qa =
            _mm256_cmp_pd(_mm256_loadu_pd(x + i), thr_v, _CMP_GT_OQ);
        const __m256d qb =
            _mm256_cmp_pd(_mm256_loadu_pd(x + i + 4), thr_v, _CMP_GT_OQ);
        const __m256d qc =
            _mm256_cmp_pd(_mm256_loadu_pd(x + i + 8), thr_v, _CMP_GT_OQ);
        const __m256d qd =
            _mm256_cmp_pd(_mm256_loadu_pd(x + i + 12), thr_v, _CMP_GT_OQ);
        const __m256d any =
            _mm256_or_pd(_mm256_or_pd(qa, qb), _mm256_or_pd(qc, qd));
        if (_mm256_movemask_pd(any) != 0) break;
        i += 16;
      }
      continue;
    }

    // Eight window sums as two independent 4-lane chains, each lane-wise
    // in the exact scalar order.
    const double* wbase = x + i + 1 - window;
    __m256d acc_a = _mm256_loadu_pd(wbase);
    __m256d acc_b = _mm256_loadu_pd(wbase + 4);
    for (std::size_t k = 1; k < window; ++k) {
      acc_a = _mm256_add_pd(acc_a, _mm256_loadu_pd(wbase + k));
      acc_b = _mm256_add_pd(acc_b, _mm256_loadu_pd(wbase + 4 + k));
    }
    const auto sa_a = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(acc_a, sum_thr_v, _CMP_GT_OQ)));
    const auto sa_b = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(acc_b, sum_thr_v, _CMP_GT_OQ)));
    if (in_burst ? (sa_a & sa_b) == 0xFu : (sa_a | sa_b) == 0) {
      // No lane of either group can flip the burst state: collapse all
      // eight (same identity argument as the 4-wide fast path).
      if (above8 != 0) {
        last_above = static_cast<std::ptrdiff_t>(base + i) +
                     (31 - __builtin_clz(above8));
      }
      if (in_burst) {
        peak_v = _mm256_max_pd(peak_v, _mm256_mul_pd(acc_a, inv_v));
        peak_v = _mm256_max_pd(peak_v, _mm256_mul_pd(acc_b, inv_v));
      }
      i += 8;
      continue;
    }

    {  // The scalar machine below reads and writes `peak`: fold first.
      const double gmax = HorizontalMax4(peak_v);
      if (gmax > peak) peak = gmax;
      peak_v = neg_inf_v;
    }
    alignas(32) double sums[4];
    _mm256_store_pd(sums, acc_a);
    for (std::size_t j = 0; j < 4; ++j) {
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
    i += 4;
  }

  while (i + 4 <= n) {
    const __m256d s4 = _mm256_loadu_pd(x + i);
    const int above =
        _mm256_movemask_pd(_mm256_cmp_pd(s4, thr_v, _CMP_GT_OQ));
    if (!in_burst && above == 0 &&
        static_cast<std::ptrdiff_t>(base + i) - last_above >= wdiff) {
      // Whole group quiet: no sample above threshold, so last_above is
      // unchanged and the per-sample gate holds for all four (it held at
      // the first and g only grows).  Then greedily extend the skip.
      i += 4;
      while (i + 16 <= n) {
        const __m256d a =
            _mm256_cmp_pd(_mm256_loadu_pd(x + i), thr_v, _CMP_GT_OQ);
        const __m256d b =
            _mm256_cmp_pd(_mm256_loadu_pd(x + i + 4), thr_v, _CMP_GT_OQ);
        const __m256d c =
            _mm256_cmp_pd(_mm256_loadu_pd(x + i + 8), thr_v, _CMP_GT_OQ);
        const __m256d d =
            _mm256_cmp_pd(_mm256_loadu_pd(x + i + 12), thr_v, _CMP_GT_OQ);
        const __m256d any =
            _mm256_or_pd(_mm256_or_pd(a, b), _mm256_or_pd(c, d));
        if (_mm256_movemask_pd(any) != 0) break;
        i += 16;
      }
      continue;
    }

    // Four window sums, lane-wise in the exact scalar order: lane j of
    // acc after step k is x[i+j+1-W] + ... + x[i+j+1-W+k].
    const double* wbase = x + i + 1 - window;
    __m256d acc = _mm256_loadu_pd(wbase);
    for (std::size_t k = 1; k < window; ++k) {
      acc = _mm256_add_pd(acc, _mm256_loadu_pd(wbase + k));
    }
    // Group fast paths: when no lane can change the in/out-of-burst state,
    // the whole state-machine step collapses to a last_above update (the
    // highest above-threshold lane, exactly where four scalar assignments
    // would leave it) and, in a burst, a peak update (max over the four
    // lane averages — > compares on positive finite doubles, so the
    // reduction tree equals the scalar left-to-right chain bit for bit).
    const int sums_above =
        _mm256_movemask_pd(_mm256_cmp_pd(acc, sum_thr_v, _CMP_GT_OQ));
    if (in_burst ? sums_above == 0xF : sums_above == 0) {
      if (above != 0) {
        last_above = static_cast<std::ptrdiff_t>(base + i) +
                     (31 - __builtin_clz(static_cast<unsigned>(above)));
      }
      if (in_burst) {
        peak_v = _mm256_max_pd(peak_v, _mm256_mul_pd(acc, inv_v));
      }
      i += 4;
      continue;
    }

    {  // The scalar machine below reads and writes `peak`: fold first.
      const double gmax = HorizontalMax4(peak_v);
      if (gmax > peak) peak = gmax;
      peak_v = neg_inf_v;
    }
    alignas(32) double sums[4];
    _mm256_store_pd(sums, acc);

    // Burst state machine, scalar over the precomputed sums (the scalar
    // kernel skips the sum on gated samples; computing it anyway touches
    // no observable state).
    for (std::size_t j = 0; j < 4; ++j) {
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
    i += 4;
  }

  // Sub-vector remainder through the shared scalar machine.
  {
    const double gmax = HorizontalMax4(peak_v);
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

void RunBlockAvx2(const Config& cfg, SiftCoreState& core, double* tail,
                  std::vector<double>& merged, std::vector<DetectedBurst>& out,
                  const double* x, std::size_t n) {
  // Tiny blocks (one-sample streaming, warmup-dominated fragments)
  // gain nothing from the vector loops but still pay the constant setup;
  // scalar is the byte-identical reference, so delegate before even
  // entering the target-attributed function.
  if (n < 32) {
    RunBlockScalar(cfg, core, tail, merged, out, x, n);
    return;
  }
  RunBlockAvx2Impl(cfg, core, tail, merged, out, x, n);
}

}  // namespace whitefi::sift_kernel

#else  // Non-x86 target: Resolve() never hands this out; keep the symbol.

namespace whitefi::sift_kernel {

void RunBlockAvx2(const Config& cfg, SiftCoreState& core, double* tail,
                  std::vector<double>& merged, std::vector<DetectedBurst>& out,
                  const double* x, std::size_t n) {
  RunBlockScalar(cfg, core, tail, merged, out, x, n);
}

}  // namespace whitefi::sift_kernel

#endif
