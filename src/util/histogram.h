// Histograms for fragment-width distributions (Figure 2) and
// general-purpose bucketed measurements.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <vector>

namespace whitefi {

/// Histogram over small non-negative integers (e.g. contiguous fragment
/// widths in UHF channels, 0..30).
class IntHistogram {
 public:
  /// Creates a histogram covering values 0..max_value inclusive.
  explicit IntHistogram(int max_value);

  /// Adds one observation; values outside [0, max_value] are clamped.
  void Add(int value);

  /// Adds `count` observations of `value`.
  void AddN(int value, std::size_t count);

  /// Count in the bin for `value`.
  std::size_t CountOf(int value) const;

  /// Total number of observations.
  std::size_t Total() const { return total_; }

  /// Fraction of observations equal to `value`; 0 when empty.
  double Fraction(int value) const;

  /// Largest value with a non-zero count; -1 when empty.
  int MaxObserved() const;

  /// Inclusive upper bound of the value range.
  int MaxValue() const { return static_cast<int>(bins_.size()) - 1; }

  /// Merges another histogram (must have the same range).
  void Merge(const IntHistogram& other);

  /// Renders an ASCII bar chart, one row per non-empty bin.
  std::string ToString(const std::string& value_label = "value") const;

 private:
  std::vector<std::size_t> bins_;
  std::size_t total_ = 0;
};

/// Geometric (power-of-two bucketed) histogram for measurements of unknown
/// dynamic range — latencies, sizes, durations.  Bucket 0 covers [0, 1);
/// bucket i >= 1 covers [2^(i-1), 2^i).  Adds are O(1) with no allocation,
/// so the metrics layer can use it on hot paths; quantiles are estimated
/// from bucket boundaries and clamped to the exact observed min/max.
class ExpHistogram {
 public:
  /// Adds one observation (negatives clamp to 0).
  void Add(double value);

  /// Number of observations.
  std::size_t Count() const { return count_; }

  /// Sum of all observations.
  double Sum() const { return sum_; }

  /// Mean of all observations; 0 when empty.
  double Mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }

  /// Smallest / largest observation; 0 when empty.
  double Min() const { return count_ == 0 ? 0.0 : min_; }
  double Max() const { return count_ == 0 ? 0.0 : max_; }

  /// Estimated value at percentile `p` in [0, 100]; 0 when empty.
  double Percentile(double p) const;

  /// One non-empty power-of-two bucket: [lo, hi) holding `count`
  /// observations.
  struct BucketCount {
    double lo = 0.0;
    double hi = 0.0;
    std::size_t count = 0;
  };

  /// The non-empty buckets in ascending order (exact raw counts, for
  /// JSON export and offline re-bucketing).
  std::vector<BucketCount> NonEmptyBuckets() const;

  /// Merges another histogram into this one.
  void Merge(const ExpHistogram& other);

  /// Resets to the empty state.
  void Reset() { *this = ExpHistogram{}; }

  /// One-line summary like "count=12 mean=3.4 p50=2.9 p99=8.1 max=9.0".
  std::string ToString() const;

 private:
  static constexpr int kBuckets = 64;
  static std::size_t BucketOf(double value);

  std::array<std::size_t, kBuckets> bins_{};
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace whitefi
