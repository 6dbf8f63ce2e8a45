// Unit tests for util: rng, stats, histogram, report, units.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <set>
#include <vector>

#include "util/histogram.h"
#include "util/report.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/units.h"

namespace whitefi {
namespace {

// ---------------------------------------------------------------- units ---

TEST(Units, DbLinearRoundTrip) {
  EXPECT_DOUBLE_EQ(DbToLinear(0.0), 1.0);
  EXPECT_DOUBLE_EQ(DbToLinear(10.0), 10.0);
  EXPECT_DOUBLE_EQ(DbToLinear(3.0), std::pow(10.0, 0.3));
  EXPECT_NEAR(LinearToDb(DbToLinear(7.7)), 7.7, 1e-12);
}

TEST(Units, AttenuationScalesAmplitudeNotPower) {
  // 20 dB of attenuation is a 10x amplitude reduction.
  EXPECT_NEAR(AttenuationToAmplitudeScale(20.0), 0.1, 1e-12);
  EXPECT_NEAR(AttenuationToAmplitudeScale(6.0), 0.501187, 1e-5);
  EXPECT_DOUBLE_EQ(AttenuationToAmplitudeScale(0.0), 1.0);
}

TEST(Units, DbmMilliwattRoundTrip) {
  EXPECT_DOUBLE_EQ(DbmToMilliwatt(0.0), 1.0);
  EXPECT_NEAR(DbmToMilliwatt(16.0), 39.81, 0.01);  // FCC cap ~40 mW.
  EXPECT_NEAR(MilliwattToDbm(DbmToMilliwatt(-73.2)), -73.2, 1e-9);
}

// ------------------------------------------------------------------ rng ---

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform01(), b.Uniform01());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Uniform01() == b.Uniform01()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, ForkStreamsAreIndependentAndDistinct) {
  Rng parent(7);
  Rng c1 = parent.Fork();
  Rng c2 = parent.Fork();
  // Distinct from each other.
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (c1.Uniform01() == c2.Uniform01()) ++equal;
  }
  EXPECT_LT(equal, 5);
  // Forks are reproducible: same parent seed, same fork order.
  Rng parent2(7);
  Rng c1b = parent2.Fork();
  for (int i = 0; i < 100; ++i) c1b.Uniform01();  // Same consumption as c1.
  Rng parent3(7);
  Rng c1c = parent3.Fork();
  Rng check(0);
  (void)check;
  Rng c1d = Rng(7).Fork();
  EXPECT_DOUBLE_EQ(c1c.Uniform01(), c1d.Uniform01());
}

TEST(Rng, UniformRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Uniform(2.5, 3.5);
    EXPECT_GE(x, 2.5);
    EXPECT_LT(x, 3.5);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(4);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(0, 3));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_TRUE(seen.count(0) == 1 && seen.count(3) == 1);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-1.0));
    EXPECT_TRUE(rng.Bernoulli(2.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(6);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, RayleighMeanMatchesTheory) {
  // Rayleigh(sigma) has mean sigma * sqrt(pi/2).
  Rng rng(8);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(rng.Rayleigh(2.0));
  EXPECT_NEAR(stats.Mean(), 2.0 * std::sqrt(M_PI / 2.0), 0.05);
  EXPECT_GT(stats.Min(), 0.0);
}

TEST(Rng, ExponentialMean) {
  Rng rng(9);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(rng.Exponential(5.0));
  EXPECT_NEAR(stats.Mean(), 5.0, 0.2);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(10);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, PickReturnsElementFromVector) {
  Rng rng(11);
  const std::vector<int> v{10, 20, 30};
  for (int i = 0; i < 50; ++i) {
    const int x = rng.Pick(v);
    EXPECT_TRUE(x == 10 || x == 20 || x == 30);
  }
}

TEST(Rng, DeriveSeedIsStableAndLabelSensitive) {
  // The named-substream contract: same (root, label) is a fixed mapping;
  // different labels or roots decorrelate; no label collapses to the root
  // itself (a component seeded from DeriveSeed never shares the root's
  // stream).
  const std::uint64_t a = DeriveSeed(1, "scenario.faults");
  EXPECT_EQ(a, DeriveSeed(1, "scenario.faults"));
  EXPECT_NE(a, DeriveSeed(1, "scenario.maps"));
  EXPECT_NE(a, DeriveSeed(2, "scenario.faults"));
  EXPECT_NE(a, 1u);
  EXPECT_NE(DeriveSeed(1, ""), 1u);
}

TEST(Rng, DeriveSeedStreamsAreDecorrelated) {
  // Streams seeded from sibling labels must not produce equal draw
  // sequences (the failure mode of ad-hoc seed arithmetic like seed ^ k).
  Rng a(DeriveSeed(7, "fuzz.trial.0"));
  Rng b(DeriveSeed(7, "fuzz.trial.1"));
  int agree = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.UniformInt(0, 1000) == b.UniformInt(0, 1000)) ++agree;
  }
  EXPECT_LT(agree, 8);
}

// ------------------------------------------------ engine + stream contract

// Seeds for the engine-equivalence tests: the extremes, small values, the
// std::mersenne_twister_engine default seed, and a few dense bit patterns.
constexpr std::uint64_t kEngineSeeds[] = {
    0, 1, 2, 5489, 0x9E3779B97F4A7C15ULL, 0x8000000000000000ULL,
    0x00000000FFFFFFFFULL, ~std::uint64_t{0}};

static_assert(std::uniform_random_bit_generator<Mt19937_64>);

TEST(Mt19937_64, MatchesStdEngineWordForWord) {
  for (const std::uint64_t seed : kEngineSeeds) {
    Mt19937_64 engine(seed);
    std::mt19937_64 reference(seed);
    // 2000 words: several twists past the seeding.
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(engine(), reference()) << "seed " << seed << " word " << i;
    }
  }
}

TEST(Mt19937_64, FillInterleavedWithSingleDrawsMatchesStdEngine) {
  // Fills of 311, 312 and 313 words straddle the 312-word twist at every
  // phase; 4097 spans many twists in one call.
  for (const std::uint64_t seed : kEngineSeeds) {
    Mt19937_64 engine(seed);
    std::mt19937_64 reference(seed);
    std::vector<std::uint64_t> words;
    for (const std::size_t fill : {1, 311, 312, 313, 4097, 0, 312}) {
      ASSERT_EQ(engine(), reference()) << "seed " << seed;
      words.assign(fill, 0);
      engine.Fill(words);
      for (std::size_t i = 0; i < fill; ++i) {
        ASSERT_EQ(words[i], reference())
            << "seed " << seed << " fill " << fill << " word " << i;
      }
    }
    ASSERT_EQ(engine(), reference()) << "seed " << seed;
  }
}

TEST(Mt19937_64, DistributionsMatchStdEngine) {
  // A UniformRandomBitGenerator with std::mt19937_64's range: every
  // <random> distribution Rng wraps consumes and maps its words the same.
  Mt19937_64 engine(20090817);
  std::mt19937_64 reference(20090817);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(std::uniform_real_distribution<double>(0.0, 1.0)(engine),
              std::uniform_real_distribution<double>(0.0, 1.0)(reference));
    EXPECT_EQ(std::uniform_real_distribution<double>(-3.0, 7.5)(engine),
              std::uniform_real_distribution<double>(-3.0, 7.5)(reference));
    EXPECT_EQ(std::uniform_int_distribution<int>(-5, 1000)(engine),
              std::uniform_int_distribution<int>(-5, 1000)(reference));
    EXPECT_EQ(std::uniform_int_distribution<std::size_t>(0, 12)(engine),
              std::uniform_int_distribution<std::size_t>(0, 12)(reference));
    EXPECT_EQ(std::bernoulli_distribution(0.3)(engine),
              std::bernoulli_distribution(0.3)(reference));
    EXPECT_EQ(std::normal_distribution<double>(1.0, 2.0)(engine),
              std::normal_distribution<double>(1.0, 2.0)(reference));
    EXPECT_EQ(std::exponential_distribution<double>(0.25)(engine),
              std::exponential_distribution<double>(0.25)(reference));
  }
  EXPECT_EQ(engine(), reference());
}

TEST(Rng, GoldenFirstDrawsPinTheSeeding) {
  // Recorded from the std::mt19937_64-backed Rng: a change to the engine
  // seeding, SplitMix64 or the fork derivation shows up here first.
  const auto expect_draws = [](Rng& rng, std::initializer_list<double> want) {
    for (const double w : want) EXPECT_EQ(rng.Uniform01(), w);
  };
  Rng r0(0);
  expect_draws(r0, {0x1.c8e5443b0573dp-1, 0x1.d924a6db7517cp-1,
                    0x1.8c71331052d1dp-1});
  Rng r1(1);
  expect_draws(r1, {0x1.109f48cd2b63p-1, 0x1.c90fc93c4f5b8p-1,
                    0x1.c7ef13b35fb6cp-1});
  Rng root(1);
  Rng first = root.Fork();
  Rng second = root.Fork();
  Rng grandchild = first.Fork();
  expect_draws(first, {0x1.d6dfc1d643ae3p-2, 0x1.99d7091613acbp-2,
                       0x1.719fbb35aebeep-1});
  expect_draws(second, {0x1.b5569e21340b8p-4, 0x1.936375cddeb65p-3,
                        0x1.14d2baf43ec33p-1});
  expect_draws(grandchild, {0x1.1c0ef83b1e129p-2, 0x1.55c56c34a6ff3p-1,
                            0x1.5e3b28f74aaddp-1});
  Rng mixed(1);
  EXPECT_EQ(mixed.Rayleigh(1.2), 0x1.7acfcf1498b95p+0);
  EXPECT_EQ(mixed.Rayleigh(1.2), 0x1.44897e1e50d61p+1);
  EXPECT_EQ(mixed.UniformInt(0, 1000000), 890496);
  EXPECT_EQ(mixed.Index(std::size_t{1} << 30), 596269373u);
  EXPECT_EQ(mixed.Normal(0.0, 1.0), -0x1.11399448c965p-2);
  EXPECT_EQ(mixed.Exponential(2.0), 0x1.0633d780242a7p+0);
}

TEST(Rng, FillRayleighEqualsPerElementRayleighBitForBit) {
  // Lengths around the 512-word block and the 312-word twist, interleaved
  // with scalar draws so the fill starts at every kind of stream offset.
  for (const std::uint64_t seed : {3u, 77u}) {
    Rng block(seed);
    Rng scalar(seed);
    std::vector<double> out;
    for (const std::size_t n : {0, 1, 2, 311, 313, 511, 512, 513, 1500, 4097}) {
      for (const double sigma : {1.2, 3.0e5}) {
        out.assign(n, -1.0);
        block.FillRayleigh(sigma, out);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(out[i]),
                    std::bit_cast<std::uint64_t>(scalar.Rayleigh(sigma)))
              << "seed " << seed << " n " << n << " element " << i;
        }
        // Same stream position afterwards.
        ASSERT_EQ(block.Uniform01(), scalar.Uniform01());
      }
    }
  }
}

// Replays fixed words into a <random> distribution, as a 64-bit engine
// would deliver them.
struct ReplayEngine {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return *next++; }
  const std::uint64_t* next;
};

TEST(Rng, RayleighFromWordsConvertsEdgeWordsExactly) {
  // The block conversion against libstdc++'s generate_canonical on the
  // words where uint64 -> double rounding is delicate: exact small values,
  // the 2^53 boundary, round-half-to-even ties, the top bit, and the
  // words >= 0xFFFFFFFFFFFFFC00 that round to 2^64, give u == 1.0 and
  // take the clamp.
  const std::vector<std::uint64_t> edges = {
      0, 1, 2, (1ULL << 53) - 1, 1ULL << 53, (1ULL << 53) + 1,
      (1ULL << 53) + 3, (1ULL << 54) + 2, (1ULL << 63) - 1, 1ULL << 63,
      (1ULL << 63) + 1, (1ULL << 63) + 0x400, (1ULL << 63) + 0xC00,
      0xFFFFFFFFFFFFF7FFULL, 0xFFFFFFFFFFFFF800ULL, 0xFFFFFFFFFFFFFBFFULL,
      0xFFFFFFFFFFFFFC00ULL, 0xFFFFFFFFFFFFFC01ULL, 0xFFFFFFFFFFFFFFFEULL,
      0xFFFFFFFFFFFFFFFFULL};
  // The clamped words really reach the clamp: the reference conversion
  // returns nextafter(1, 0) for them.
  for (const std::uint64_t w : {0xFFFFFFFFFFFFFC00ULL, 0xFFFFFFFFFFFFFFFFULL}) {
    ReplayEngine replay{&w};
    EXPECT_EQ(std::uniform_real_distribution<double>(0.0, 1.0)(replay),
              std::nextafter(1.0, 0.0));
  }
  Mt19937_64 filler(9);
  for (std::size_t offset = 0; offset < 4; ++offset) {
    // Shift the edges across vector-lane and loop-tail positions.
    std::vector<std::uint64_t> words;
    for (std::size_t i = 0; i < offset; ++i) words.push_back(filler());
    for (const std::uint64_t w : edges) words.push_back(w);
    std::vector<double> out(words.size());
    RayleighFromWords(2.5, words, out);
    ReplayEngine replay{words.data()};
    for (std::size_t i = 0; i < words.size(); ++i) {
      double u = std::uniform_real_distribution<double>(0.0, 1.0)(replay);
      if (u >= 1.0) u = std::nextafter(1.0, 0.0);
      const double want = 2.5 * std::sqrt(-2.0 * std::log(1.0 - u));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]),
                std::bit_cast<std::uint64_t>(want))
          << "word " << std::hex << words[i];
    }
  }
}

// ---------------------------------------------------------------- stats ---

TEST(Stats, RunningStatsBasics) {
  RunningStats s;
  EXPECT_EQ(s.Count(), 0u);
  EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.Variance(), 0.0);
  s.Add(2.0);
  s.Add(4.0);
  s.Add(6.0);
  EXPECT_EQ(s.Count(), 3u);
  EXPECT_DOUBLE_EQ(s.Mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.Variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.StdDev(), 2.0);
  EXPECT_DOUBLE_EQ(s.Min(), 2.0);
  EXPECT_DOUBLE_EQ(s.Max(), 6.0);
  EXPECT_DOUBLE_EQ(s.Sum(), 12.0);
}

TEST(Stats, MeanMedianOfVectors) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({1, 2, 3}), 2.0);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
  EXPECT_DOUBLE_EQ(Median({5}), 5.0);
  EXPECT_DOUBLE_EQ(Median({1, 3}), 2.0);
  EXPECT_DOUBLE_EQ(Median({9, 1, 5}), 5.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> v{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 50.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 30.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 20.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 12.5), 15.0);
  // Clamped out-of-range p.
  EXPECT_DOUBLE_EQ(Percentile(v, -10), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 400), 50.0);
}

TEST(Stats, StdDevMatchesRunningStats) {
  const std::vector<double> v{1.5, 2.5, 9.0, -4.0};
  RunningStats s;
  for (double x : v) s.Add(x);
  EXPECT_NEAR(StdDev(v), s.StdDev(), 1e-12);
}

TEST(Stats, ConfidenceIntervalShrinksWithN) {
  std::vector<double> small{1, 2, 3, 4};
  std::vector<double> large;
  for (int i = 0; i < 16; ++i) large.insert(large.end(), {1, 2, 3, 4});
  EXPECT_GT(ConfidenceInterval95(small), ConfidenceInterval95(large));
  EXPECT_DOUBLE_EQ(ConfidenceInterval95({1.0}), 0.0);
}

// ------------------------------------------------------------- histogram --

TEST(IntHistogram, AddCountFraction) {
  IntHistogram h(10);
  h.Add(3);
  h.Add(3);
  h.Add(7);
  EXPECT_EQ(h.Total(), 3u);
  EXPECT_EQ(h.CountOf(3), 2u);
  EXPECT_EQ(h.CountOf(7), 1u);
  EXPECT_EQ(h.CountOf(0), 0u);
  EXPECT_DOUBLE_EQ(h.Fraction(3), 2.0 / 3.0);
  EXPECT_EQ(h.MaxObserved(), 7);
}

TEST(IntHistogram, ClampsOutOfRange) {
  IntHistogram h(5);
  h.Add(-3);
  h.Add(99);
  EXPECT_EQ(h.CountOf(0), 1u);
  EXPECT_EQ(h.CountOf(5), 1u);
}

TEST(IntHistogram, MergeRequiresSameRange) {
  IntHistogram a(5), b(5), c(6);
  a.Add(1);
  b.Add(1);
  a.Merge(b);
  EXPECT_EQ(a.CountOf(1), 2u);
  EXPECT_THROW(a.Merge(c), std::invalid_argument);
}

TEST(IntHistogram, EmptyProperties) {
  IntHistogram h(4);
  EXPECT_EQ(h.MaxObserved(), -1);
  EXPECT_DOUBLE_EQ(h.Fraction(2), 0.0);
  EXPECT_THROW(IntHistogram(-1), std::invalid_argument);
}

TEST(IntHistogram, ToStringShowsNonEmptyBins) {
  IntHistogram h(3);
  h.AddN(2, 5);
  const std::string s = h.ToString("width");
  EXPECT_NE(s.find("width 2"), std::string::npos);
  EXPECT_EQ(s.find("width 1"), std::string::npos);
}

TEST(DoubleHistogram, BinsAndEdges) {
  DoubleHistogram h(0.0, 10.0, 5);
  h.Add(0.5);   // bin 0
  h.Add(9.99);  // bin 4
  h.Add(-3.0);  // clamped to bin 0
  h.Add(50.0);  // clamped to bin 4
  EXPECT_EQ(h.CountOf(0), 2u);
  EXPECT_EQ(h.CountOf(4), 2u);
  EXPECT_EQ(h.Total(), 4u);
  EXPECT_DOUBLE_EQ(h.BinCenter(0), 1.0);
  EXPECT_DOUBLE_EQ(h.BinCenter(4), 9.0);
  EXPECT_THROW(DoubleHistogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(DoubleHistogram(0.0, 1.0, 0), std::invalid_argument);
}

// --------------------------------------------------------------- report ---

TEST(Table, AlignsColumnsAndCountsRows) {
  Table t({"name", "value"});
  t.AddRow({"x", "1"});
  t.AddRow({"longer", "2.50"});
  EXPECT_EQ(t.NumRows(), 2u);
  const std::string s = t.ToString();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.AddRow({"only-one"}), std::invalid_argument);
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.AddRow({"1", "2"});
  EXPECT_EQ(t.ToCsv(), "a,b\n1,2\n");
}

TEST(Report, Formatters) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
  EXPECT_EQ(FormatPercent(0.123), "12.3%");
}

}  // namespace
}  // namespace whitefi
