// Deterministic random number generation.
//
// Every stochastic component in this repository draws from an explicitly
// seeded `Rng` so that experiments are reproducible run-to-run.  `Rng`
// wraps a 64-bit Mersenne twister and adds the distributions the WhiteFi
// models need (Rayleigh fading amplitudes, exponential backoff jitter,
// Bernoulli map flips, ...).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace whitefi {

/// Derives the seed for a named substream from a root seed.
///
/// Every stochastic component (fault injector, background traffic, fuzz
/// generator, ...) must seed from `DeriveSeed(root, "component")` rather
/// than reusing the root seed raw or with ad-hoc arithmetic: two
/// components that accidentally share a stream become correlated, and a
/// draw added to one silently perturbs the other.  The label is hashed
/// (FNV-1a) and mixed with the root through SplitMix64, so distinct
/// labels yield decorrelated streams and the mapping is stable across
/// platforms and releases.
std::uint64_t DeriveSeed(std::uint64_t root, std::string_view label);

/// MT19937-64: the 64-bit Mersenne twister, seeded and tempered exactly
/// as the standard library's `mt19937_64`, so the two produce the same
/// word stream from the same seed.  It is a UniformRandomBitGenerator with
/// the same range, so a `<random>` distribution drawing from it returns
/// what it would return drawing from the standard engine.  `Fill` adds a bulk path: the twist and the
/// tempering are branch-free loops the compiler vectorizes at the
/// baseline ISA.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  /// The standard seeding (`std::mersenne_twister_engine::seed`).
  explicit Mt19937_64(result_type seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// The next word of the stream.
  result_type operator()() {
    if (index_ == kStateWords) Twist();
    return Temper(state_[index_++]);
  }

  /// Writes the next `out.size()` words of the stream: the same words,
  /// in the same order, as `out.size()` calls of operator().
  void Fill(std::span<result_type> out);

 private:
  static constexpr std::size_t kStateWords = 312;

  static constexpr result_type Temper(result_type z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    return z ^ (z >> 43);
  }

  /// Regenerates all 312 state words and rewinds the read index.
  void Twist();

  std::array<result_type, kStateWords> state_;
  std::size_t index_ = kStateWords;
};

/// Maps engine words to Rayleigh(sigma) draws: `out[i]` is what
/// `Rng::Rayleigh(sigma)` returns when its uniform draw consumes
/// `words[i]`, bit for bit.  The block kernel behind `Rng::FillRayleigh`;
/// converts the first `min(words.size(), out.size())` words.
void RayleighFromWords(double sigma, std::span<const std::uint64_t> words,
                       std::span<double> out);

/// A seedable random number generator with convenience distributions.
///
/// `Rng` is cheap to copy-construct via `Fork()` which derives an
/// independent child stream; use one stream per logical component so that
/// adding randomness to one component does not perturb another.  The
/// engine is the in-house `Mt19937_64`, word for word the stream of the
/// standard library's `mt19937_64`, and every scalar draw runs through the
/// matching `<random>` distribution; `FillRayleigh` is the one block path,
/// and it returns exactly the values of per-element `Rayleigh` calls.
class Rng {
 public:
  /// Constructs a generator from a 64-bit seed.
  explicit Rng(std::uint64_t seed);

  /// Derives an independent child generator.  Successive calls produce
  /// distinct streams.
  Rng Fork();

  /// Uniform double in [0, 1).
  double Uniform01();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive).
  int UniformInt(int lo, int hi);

  /// Bernoulli trial with success probability `p` (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Rayleigh-distributed amplitude with scale `sigma`.
  ///
  /// The magnitude of a complex Gaussian (I,Q) sample — the model for an
  /// OFDM signal envelope — is Rayleigh distributed.
  double Rayleigh(double sigma);

  /// Fills `out` with Rayleigh draws of scale `sigma`: byte-identical to
  /// calling Rayleigh(sigma) once per element, and leaves the stream at
  /// the same position, but runs in L1-resident blocks (bulk engine words,
  /// vectorized conversion, scalar log) — the bulk-noise fast path for
  /// trace synthesis.
  void FillRayleigh(double sigma, std::span<double> out);

  /// Exponential with the given mean (mean = 1/lambda).
  double Exponential(double mean);

  /// Picks a uniformly random element index from a non-empty container size.
  std::size_t Index(std::size_t size);

  /// Picks a uniformly random element from a non-empty vector.
  template <typename T>
  const T& Pick(const std::vector<T>& v) {
    return v[Index(v.size())];
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[Index(i)]);
    }
  }

 private:
  Mt19937_64 engine_;
  std::uint64_t fork_counter_ = 0;
  std::uint64_t seed_;
};

}  // namespace whitefi
