// SIFT — Signal Interpretation before Fourier Transform (paper 4.2.1).
//
// SIFT detects packet transmissions from raw time-domain amplitude samples
// without any FFT or decoding: a moving average over a short sliding window
// of sqrt(I^2+Q^2) values is compared against a fixed low threshold; an
// upward crossing marks a packet start, a downward crossing a packet end.
//
// The window must be shorter than the smallest gap SIFT has to preserve —
// the SIFS between a data frame and its ACK, which is 10 us (10 samples)
// for 20 MHz transmissions — so the paper (and this implementation) uses a
// 5-sample window.  The moving average, rather than instantaneous values,
// rides over the deep mid-packet amplitude dips of an OFDM envelope.
//
// Performance: the detector is the real-time core of the scanner — the
// USRP delivers a continuous ~1 MS/s stream — so ProcessBlock runs a block
// kernel rather than a per-sample state machine, and the block kernel
// itself ships in two flavors behind compile-time *and* runtime dispatch
// (src/util/cpu feature probe):
//
//  * a portable scalar kernel: pre-scaled threshold compare (sum >
//    threshold * window, no per-sample division), window sums formed
//    directly from the raw block, whole noise-floor stretches rejected
//    with one comparison per sample, fully unrolled for the default
//    5-sample window;
//  * vector kernels (x86 hosts): an AVX2 flavor (four window sums per
//    step) and an AVX-512 flavor (eight), both forming each lane's sum by
//    lane-wise left-associated vector adds — added in exactly the scalar
//    order, so the burst stream is byte-identical — with noise-floor
//    stretches skipped a cache line at a time and whole groups of the
//    burst state machine collapsed when no lane can flip the state.
//
// Dispatch resolves per detector: an explicit SiftParams::kernel wins,
// then the WHITEFI_SIFT_KERNEL environment variable (see
// sift_kernel::Resolve), then the CPU probe.  Every path produces
// byte-identical bursts under any chunking of the stream — one-sample
// blocks, USRP 2048-sample blocks, or one shot (see sift_block_test and
// sift_simd_property_test).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "obs/obs.h"
#include "util/units.h"

namespace whitefi {

namespace sift_kernel {
struct Config;
}  // namespace sift_kernel

/// Which block kernel a detector runs.
enum class SiftKernelChoice {
  kAuto,    ///< Resolve via WHITEFI_SIFT_KERNEL, then the CPU probe.
  kSimd,    ///< Best vector kernel for the host (throws where unsupported).
  kScalar,  ///< Force the portable scalar kernel.
  kAvx2,    ///< Force the 256-bit AVX2 kernel specifically.
  kAvx512,  ///< Force the 512-bit AVX-512 kernel specifically.
};

/// SIFT detector configuration.
struct SiftParams {
  /// Sliding-window length in samples.  Must stay below the minimum SIFS
  /// (10 samples at 20 MHz); the paper uses 5.
  int window = 5;

  /// Amplitude threshold.  The paper fixes this at a low value; 6.0 sits
  /// ~4x above the default synthesized noise-floor mean, which places the
  /// detection cliff near 96 dB attenuation as in Figure 7.
  double threshold = 6.0;

  /// Sample period of the input stream (USRP: 1.024 us).
  Us sample_period = 1.024;

  /// Kernel selection for this detector (kAuto = dispatch).
  SiftKernelChoice kernel = SiftKernelChoice::kAuto;
};

/// One detected on-air burst.
struct DetectedBurst {
  Us start = 0.0;  ///< Burst start (us, relative to the trace start).
  Us end = 0.0;    ///< Burst end (us).
  double peak_average = 0.0;  ///< Maximum windowed average within the burst.

  /// Burst length (us).
  Us Duration() const { return end - start; }
};

/// Streaming state of one SIFT edge machine, the part a block kernel
/// keeps between blocks.  The chronological `tail` buffer (last `window`
/// samples, zero-filled before the stream starts) is passed alongside it.
struct SiftCoreState {
  std::size_t samples_seen = 0;
  bool in_burst = false;
  std::size_t burst_start_sample = 0;
  /// Index of the last above-threshold sample (-1 = none yet).
  std::ptrdiff_t last_above_sample = -1;
  double burst_peak = 0.0;
};

/// Streaming SIFT edge detector.
///
/// Feed sample blocks (the USRP delivers 2048 at a time) via ProcessBlock;
/// completed bursts accumulate and can be taken with TakeBursts.  The
/// convenience Detect() runs a whole trace through a fresh detector.
class SiftDetector {
 public:
  explicit SiftDetector(const SiftParams& params);

  /// Processes one block of amplitude samples.  Any chunking of a stream,
  /// down to one sample per block, yields byte-identical bursts.
  void ProcessBlock(std::span<const double> samples);

  /// Flushes any in-progress burst (treats the stream as ended).
  void Flush();

  /// Returns and clears the bursts completed so far.
  std::vector<DetectedBurst> TakeBursts();

  /// Restarts the stream: drops any in-progress burst and any bursts not
  /// yet taken, and zero-fills the tail.  Keeps the configuration, the
  /// resolved kernel and the observability sinks.
  void Reset();

  /// One-shot detection over a full trace (processes + flushes).
  std::vector<DetectedBurst> Detect(std::span<const double> samples);

  /// The configuration in use.
  const SiftParams& params() const { return params_; }

  /// Name of the kernel this detector resolved to ("simd-avx512",
  /// "simd-avx2", or "scalar").
  const char* kernel_name() const;

  /// Attaches metrics/profiler sinks (pointers may be null): ProcessBlock
  /// runs under the "sift.detect" phase, completed bursts feed
  /// whitefi.sift.bursts and the whitefi.sift.burst_us histogram.
  void SetObservability(const Observability& obs);

 private:
  /// The loop-invariant kernel inputs (sift/kernel.h).
  sift_kernel::Config KernelConfig() const;

  SiftParams params_;
  /// Resolved block kernel (see sift/kernel.h); type-erased here to keep
  /// the kernel machinery out of this header.
  void* kernel_ = nullptr;
  /// The last `window` samples in chronological order (zero-filled before
  /// the stream starts), so a block can seed its first window sums.
  std::vector<double> tail_;
  std::vector<double> merged_;  ///< Warmup scratch: tail_ ++ block head.
  SiftCoreState core_;
  double inv_window_ = 0.0;      ///< 1 / window, hoisted out of the kernel.
  double sum_threshold_ = 0.0;   ///< threshold * window (pre-scaled compare).
  std::vector<DetectedBurst> completed_;

  // Observability (optional).
  PhaseProfiler* profiler_ = nullptr;
  Counter* bursts_counter_ = nullptr;
  Histogram* burst_us_ = nullptr;
};

}  // namespace whitefi
