// The SIFT block kernels and their dispatch.
//
// Every `SiftDetector` (alone, or as one lane of a `SiftBatch`) runs one
// of these kernel functions over its `SiftCoreState` plus its own
// buffers.  Two implementations exist:
//
//  * RunBlockScalar — the portable kernel: the PR-3 block fast path
//    (pre-scaled threshold, one-compare noise-floor gate, unrolled W=5)
//    refactored to free-function form;
//  * RunBlockAvx2 / RunBlockAvx512 — the vectorized kernels (4 and 8
//    window sums per step), compiled with per-function target attributes
//    so a plain build still carries them and the runtime probe decides
//    which may execute.
//
// Byte-identity contract: for any input stream, any chunking, and any
// window, all kernels produce bit-equal DetectedBurst vectors.  The
// vector kernels keep every floating-point operation in the scalar order
// — each SIMD lane's window sum is the left-associated sum of the same W
// samples — and collapse state-machine steps only where the result is
// provably bit-equal (max reductions over positive finite doubles), so no
// reassociation ever occurs.  sift_simd_property_test pins this across
// random traces, denormals, and threshold-edge samples.
//
// Every per-sample quantity is defined chunking-independently so any split
// of a trace into blocks is byte-identical to any other:
//   * the window sum at global sample g is the left-associated sum, oldest
//     first, of the W chronological samples ending at g (virtual zeros
//     before the stream start);
//   * a burst opens at g when some sample in that window exceeds the
//     threshold AND sum > threshold * W, and dates its start at the oldest
//     above-threshold sample still in the window (a strong burst trips the
//     average from its very first sample, so the naive "window start"
//     would bias starts early, and SIFS gaps short, by several samples);
//   * a burst closes at the first g with sum <= threshold * W and ends at
//     the sample after the last above-threshold one.
//
// The "some sample above threshold" gate is what makes the noise floor
// cheap: out of a burst, a sample more than one window length past the
// last above-threshold sample cannot trip the average (every window sample
// is at or below the threshold), so the kernel skips the sum entirely —
// one compare per quiet sample scalar, one compare per 16 (AVX2) or
// 32 (AVX-512) samples vectorized.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>
#include <vector>

#include "sift/detector.h"

namespace whitefi::sift_kernel {

/// Loop-invariant kernel inputs, precomputed by the owning detector.
struct Config {
  std::size_t window = 5;
  double threshold = 0.0;
  double sum_threshold = 0.0;  ///< threshold * window (pre-scaled compare).
  double inv_window = 0.0;     ///< 1 / window.
  Us sample_period = 1.024;
  Counter* bursts_counter = nullptr;   ///< Optional metric sink.
  Histogram* burst_us = nullptr;       ///< Optional metric sink.
};

/// One block-kernel invocation: advances `core` over the `n` samples at
/// `x`, maintaining the chronological `tail` (length cfg.window), using
/// `merged` as warmup scratch, appending completed bursts to `out`.
using KernelFn = void (*)(const Config& cfg, SiftCoreState& core, double* tail,
                          std::vector<double>& merged,
                          std::vector<DetectedBurst>& out, const double* x,
                          std::size_t n);

void RunBlockScalar(const Config& cfg, SiftCoreState& core, double* tail,
                    std::vector<double>& merged,
                    std::vector<DetectedBurst>& out, const double* x,
                    std::size_t n);

/// Defined in kernel_avx2.cc behind a per-function target("avx2")
/// attribute; only reachable through Resolve(), which refuses to hand it
/// out on hosts without AVX2.
void RunBlockAvx2(const Config& cfg, SiftCoreState& core, double* tail,
                  std::vector<double>& merged, std::vector<DetectedBurst>& out,
                  const double* x, std::size_t n);

/// Defined in kernel_avx512.cc behind a per-function target("avx512f")
/// attribute; only reachable through Resolve(), which refuses to hand it
/// out on hosts without AVX-512F.
void RunBlockAvx512(const Config& cfg, SiftCoreState& core, double* tail,
                    std::vector<double>& merged,
                    std::vector<DetectedBurst>& out, const double* x,
                    std::size_t n);

/// Parses a kernel name as the WHITEFI_SIFT_KERNEL environment variable
/// spells it: "auto", "simd", "scalar", "avx2" or "avx512".  nullopt for
/// any other string, the empty one included.
std::optional<SiftKernelChoice> ParseKernelChoice(std::string_view name);

/// Resolves a kernel choice to a callable kernel.  kAuto takes the
/// WHITEFI_SIFT_KERNEL environment variable (read once per process; unset
/// means auto), which lets any binary be diffed across kernel tiers
/// without a rebuild, then the CPU probe; kSimd means the widest vector
/// kernel the host can run.  Throws std::invalid_argument when kAuto
/// meets a value ParseKernelChoice rejects (the message names the
/// variable), and when a vector kernel is forced on a host that cannot
/// execute it.
KernelFn Resolve(SiftKernelChoice choice);

/// Human-readable name of a resolved kernel ("simd-avx512" /
/// "simd-avx2" / "scalar").
const char* KernelName(KernelFn fn);

/// Emits the lane's in-progress burst ending at `end_sample` (used by the
/// kernels on downward crossings and by Flush at stream end).
void EmitBurst(const Config& cfg, SiftCoreState& core,
               std::vector<DetectedBurst>& out, std::size_t end_sample);

namespace detail {

/// The mutable lane state a kernel keeps in locals/registers for the
/// duration of one block.
struct Machine {
  std::ptrdiff_t last_above;
  bool in_burst;
  double peak;
};

/// Warmup region: runs the first min(n, window-1) samples, whose windows
/// straddle tail ++ block, and returns how many were consumed.  Shared by
/// both kernels so the straddle math exists exactly once.
std::size_t RunWarmup(const Config& cfg, SiftCoreState& core, Machine& m,
                      const double* tail, std::vector<double>& merged,
                      std::vector<DetectedBurst>& out, const double* x,
                      std::size_t n);

/// Main-region samples [i0, i1) through the scalar per-sample machine
/// (the AVX2 kernel uses this for its sub-vector remainder).
void RunMainScalarRange(const Config& cfg, SiftCoreState& core, Machine& m,
                        std::vector<DetectedBurst>& out, const double* x,
                        std::size_t i0, std::size_t i1);

/// Persists the chronological tail for the next block's warmup windows.
void SaveTail(const Config& cfg, double* tail, const double* x, std::size_t n);

}  // namespace detail

}  // namespace whitefi::sift_kernel
