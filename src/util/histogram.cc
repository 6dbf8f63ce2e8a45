#include "util/histogram.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace whitefi {

IntHistogram::IntHistogram(int max_value) {
  if (max_value < 0) throw std::invalid_argument("max_value must be >= 0");
  bins_.assign(static_cast<std::size_t>(max_value) + 1, 0);
}

void IntHistogram::Add(int value) { AddN(value, 1); }

void IntHistogram::AddN(int value, std::size_t count) {
  const int clamped = std::clamp(value, 0, MaxValue());
  bins_[static_cast<std::size_t>(clamped)] += count;
  total_ += count;
}

std::size_t IntHistogram::CountOf(int value) const {
  if (value < 0 || value > MaxValue()) return 0;
  return bins_[static_cast<std::size_t>(value)];
}

double IntHistogram::Fraction(int value) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(CountOf(value)) / static_cast<double>(total_);
}

int IntHistogram::MaxObserved() const {
  for (int v = MaxValue(); v >= 0; --v) {
    if (bins_[static_cast<std::size_t>(v)] > 0) return v;
  }
  return -1;
}

void IntHistogram::Merge(const IntHistogram& other) {
  if (other.bins_.size() != bins_.size()) {
    throw std::invalid_argument("histogram ranges differ");
  }
  for (std::size_t i = 0; i < bins_.size(); ++i) bins_[i] += other.bins_[i];
  total_ += other.total_;
}

std::string IntHistogram::ToString(const std::string& value_label) const {
  std::ostringstream os;
  std::size_t max_count = 1;
  for (std::size_t c : bins_) max_count = std::max(max_count, c);
  for (int v = 0; v <= MaxValue(); ++v) {
    const std::size_t c = CountOf(v);
    if (c == 0) continue;
    const auto bar = static_cast<std::size_t>(
        40.0 * static_cast<double>(c) / static_cast<double>(max_count) + 0.5);
    os << value_label << " " << v << " : " << std::string(bar, '#') << " "
       << c << "\n";
  }
  return os.str();
}

std::size_t ExpHistogram::BucketOf(double value) {
  if (!(value >= 1.0)) return 0;  // Also catches NaN.
  const int exponent = std::ilogb(value);
  return std::min<std::size_t>(static_cast<std::size_t>(exponent) + 1,
                               kBuckets - 1);
}

void ExpHistogram::Add(double value) {
  const double v = std::isnan(value) ? 0.0 : std::max(value, 0.0);
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++bins_[BucketOf(v)];
  ++count_;
  sum_ += v;
}

double ExpHistogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  const double target =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(count_);
  std::size_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += bins_[static_cast<std::size_t>(i)];
    if (static_cast<double>(seen) >= target) {
      // Geometric midpoint of the bucket, clamped to the observed range.
      const double lo = i == 0 ? 0.0 : std::ldexp(1.0, i - 1);
      const double hi = std::ldexp(1.0, i);
      return std::clamp(std::midpoint(lo, hi), min_, max_);
    }
  }
  return max_;
}

std::vector<ExpHistogram::BucketCount> ExpHistogram::NonEmptyBuckets() const {
  std::vector<BucketCount> buckets;
  for (int i = 0; i < kBuckets; ++i) {
    const std::size_t count = bins_[static_cast<std::size_t>(i)];
    if (count == 0) continue;
    const double lo = i == 0 ? 0.0 : std::ldexp(1.0, i - 1);
    const double hi = std::ldexp(1.0, i);
    buckets.push_back({lo, hi, count});
  }
  return buckets;
}

void ExpHistogram::Merge(const ExpHistogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  for (std::size_t i = 0; i < bins_.size(); ++i) bins_[i] += other.bins_[i];
  count_ += other.count_;
  sum_ += other.sum_;
}

std::string ExpHistogram::ToString() const {
  std::ostringstream os;
  os << "count=" << count_;
  if (count_ > 0) {
    os << " mean=" << Mean() << " min=" << Min() << " p50=" << Percentile(50)
       << " p90=" << Percentile(90) << " p99=" << Percentile(99)
       << " max=" << Max();
  }
  return os.str();
}

}  // namespace whitefi
