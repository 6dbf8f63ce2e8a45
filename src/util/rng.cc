#include "util/rng.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <random>

#include "util/parallel.h"

namespace whitefi {
namespace {

// MT19937-64 twist parameters (the standard library mt19937_64's template
// arguments).
constexpr std::size_t kShift = 156;  // m: offset of the word mixed in.
constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;

// One twist step: mixes the upper bit of `word` with the lower 31 bits of
// `next` and folds in `far`.  `-(y & 1) & kMatrixA` is the branch-free
// form of `(y & 1) ? kMatrixA : 0`, which keeps the twist loops
// vectorizable.
constexpr std::uint64_t TwistWord(std::uint64_t word, std::uint64_t next,
                                  std::uint64_t far) {
  const std::uint64_t y = (word & kUpperMask) | (next & kLowerMask);
  return far ^ (y >> 1) ^ (-(y & 1) & kMatrixA);
}

// Words per FillRayleigh block: 4 KiB of words plus 4 KiB of output stay
// in L1 between the passes over the block.
constexpr std::size_t kRayleighBlock = 512;

// SplitMix64: used to decorrelate fork seeds derived from a parent seed.
std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// FillRayleigh's long path: `engine` draws chunk k+1 while `pool`
// converts chunk k.  Only the word -> double transform leaves this
// thread.  The engine draws every word here (before the first Run, then
// as index 0, which the pool keeps on the calling thread), in stream
// order and in whole chunks, so the stream ends exactly out.size() words
// on.  A task reads only its slice of the ready chunk and writes only
// the matching slice of `out`, and RayleighFromWords is a pure per-word
// map, so no value depends on the slicing or on which thread converts
// it.
void FillRayleighOnPool(Mt19937_64& engine, double sigma,
                        std::span<double> out, ThreadPool& pool) {
  constexpr std::size_t kChunk = Rng::kFillChunkWords;
  const std::size_t slices = 8 * static_cast<std::size_t>(pool.jobs());
  const auto buffer =
      std::make_unique_for_overwrite<std::uint64_t[]>(2 * kChunk);
  std::uint64_t* ready = buffer.get();
  std::uint64_t* filling = ready + kChunk;
  std::size_t ready_n = std::min(out.size(), kChunk);
  engine.Fill({ready, ready_n});
  for (std::size_t done = 0; ready_n > 0;) {
    const std::size_t fill_n = std::min(out.size() - done - ready_n, kChunk);
    const std::span<double> chunk = out.subspan(done, ready_n);
    // Whole 512-word blocks per slice, so each conversion stays in L1.
    const std::size_t blocks = (ready_n + kRayleighBlock - 1) / kRayleighBlock;
    const std::size_t slice = (blocks + slices - 1) / slices * kRayleighBlock;
    pool.Run(1 + slices, [&](std::size_t i) {
      if (i == 0) {
        engine.Fill({filling, fill_n});
        return;
      }
      const std::size_t end = std::min(i * slice, ready_n);
      for (std::size_t at = std::min((i - 1) * slice, end); at < end;
           at += kRayleighBlock) {
        const std::size_t n = std::min(end - at, kRayleighBlock);
        RayleighFromWords(sigma, {ready + at, n}, chunk.subspan(at, n));
      }
    });
    done += ready_n;
    std::swap(ready, filling);
    ready_n = fill_n;
  }
}

}  // namespace

std::uint64_t DeriveSeed(std::uint64_t root, std::string_view label) {
  // FNV-1a over the label bytes, then two SplitMix64 rounds over the
  // (root, label-hash) pair.  Two rounds so that roots differing in one
  // bit do not produce substream seeds differing in a recognizable
  // pattern even for short labels.
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : label) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return SplitMix64(SplitMix64(root ^ h) + h);
}

Mt19937_64::Mt19937_64(result_type seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kStateWords; ++i) {
    const result_type prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::Twist() {
  constexpr std::size_t n = kStateWords;
  for (std::size_t k = 0; k < n - kShift; ++k) {
    state_[k] = TwistWord(state_[k], state_[k + 1], state_[k + kShift]);
  }
  for (std::size_t k = n - kShift; k < n - 1; ++k) {
    state_[k] =
        TwistWord(state_[k], state_[k + 1], state_[k + kShift - n]);
  }
  state_[n - 1] = TwistWord(state_[n - 1], state_[0], state_[kShift - 1]);
  index_ = 0;
}

void Mt19937_64::Fill(std::span<result_type> out) {
  while (!out.empty()) {
    if (index_ == kStateWords) Twist();
    const std::size_t n = std::min(out.size(), kStateWords - index_);
    const result_type* state = state_.data() + index_;
    for (std::size_t i = 0; i < n; ++i) out[i] = Temper(state[i]);
    index_ += n;
    out = out.subspan(n);
  }
}

void RayleighFromWords(double sigma, std::span<const std::uint64_t> words,
                       std::span<double> out) {
  // Bit-equal to Rng::Rayleigh, step by step.  Rayleigh draws u through
  // std::uniform_real_distribution<double>(0, 1), which libstdc++ computes
  // as generate_canonical<double, 53> over a 64-bit engine: one word x,
  // u = double(x) / 0x1p64 (the compiler's scalar uint64 -> double
  // conversion, round-to-nearest-even), clamped below 1, then
  // u * (1 - 0) + 0, which is u.  Here:
  //  * double(x) is built from x's two 32-bit halves.  Each half is made
  //    exact by the 2^52 bit trick: OR it into the low mantissa bits of
  //    2^52 (the high half: of 2^84, which scales it by 2^32) and subtract
  //    that power of two.  One add joins the halves; both are exact, so
  //    the add rounds the exact value x once, to nearest-even — the same
  //    double the scalar conversion gives.
  //  * Scaling by 0x1p-64 is exact (the smallest nonzero u, 2^-64, is far
  //    from underflow), so it equals the division by 0x1p64.  Scaling by
  //    -2 is exact too.
  //  * The clamp, 1 - u, the libm log (scalar: no vector log is bit-equal
  //    to it), sqrt and the final multiply are the same single IEEE
  //    operations Rayleigh performs, each correctly rounded.
  // Only the conversion pass is vectorized (SSE2 at the baseline ISA);
  // the clamp stays in the scalar pass because GCC does not if-convert a
  // floating-point compare under the default -ftrapping-math.  The result
  // survives FMA contraction (GCC contracts a*b+c even under -std=c++20):
  // every product here is exact, so a fused multiply-add rounds once
  // where the unfused add did.
  constexpr double kBelowOne = 0x1.fffffffffffffp-1;  // nextafter(1, 0)
  const std::size_t n = std::min(words.size(), out.size());
  double* v = out.data();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t x = words[i];
    const double hi =
        std::bit_cast<double>((x >> 32) | 0x4530000000000000ULL) - 0x1p84;
    const double lo =
        std::bit_cast<double>((x & 0xFFFFFFFFULL) | 0x4330000000000000ULL) -
        0x1p52;
    v[i] = (hi + lo) * 0x1p-64;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double u = v[i] >= 1.0 ? kBelowOne : v[i];
    v[i] = sigma * std::sqrt(-2.0 * std::log(1.0 - u));
  }
}

Rng::Rng(std::uint64_t seed) : engine_(SplitMix64(seed)), seed_(seed) {}

Rng Rng::Fork() {
  ++fork_counter_;
  return Rng(SplitMix64(seed_ ^ SplitMix64(fork_counter_ * 0xA24BAED4963EE407ULL)));
}

double Rng::Uniform01() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double Rng::Uniform(double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

int Rng::UniformInt(int lo, int hi) {
  return std::uniform_int_distribution<int>(lo, hi)(engine_);
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return std::bernoulli_distribution(p)(engine_);
}

double Rng::Normal(double mean, double stddev) {
  return std::normal_distribution<double>(mean, stddev)(engine_);
}

double Rng::Rayleigh(double sigma) {
  // Inverse-CDF sampling: F(x) = 1 - exp(-x^2 / (2 sigma^2)).
  double u = Uniform01();
  // Guard the log against u == 1 (cannot happen with [0,1) but be safe).
  if (u >= 1.0) u = std::nextafter(1.0, 0.0);
  return sigma * std::sqrt(-2.0 * std::log(1.0 - u));
}

void Rng::FillRayleigh(double sigma, std::span<double> out) {
  if (out.size() >= kParallelFillWords && !InPoolTask()) {
    ThreadPool& pool = SharedThreadPool();
    if (pool.jobs() > 1) {
      FillRayleighOnPool(engine_, sigma, out, pool);
      return;
    }
  }
  std::array<std::uint64_t, kRayleighBlock> words;
  while (!out.empty()) {
    const std::size_t n = std::min(out.size(), kRayleighBlock);
    const std::span<std::uint64_t> block(words.data(), n);
    engine_.Fill(block);
    RayleighFromWords(sigma, block, out);
    out = out.subspan(n);
  }
}

double Rng::Exponential(double mean) {
  return std::exponential_distribution<double>(1.0 / mean)(engine_);
}

std::size_t Rng::Index(std::size_t size) {
  return std::uniform_int_distribution<std::size_t>(0, size - 1)(engine_);
}

}  // namespace whitefi
