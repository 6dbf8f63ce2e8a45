// Shared pieces of the benchmark runner: run options, the per-workload
// outcome, timing summaries, the span log of traced runs and the output
// hash.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Command-line options of one runner invocation.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Adds a traced pass after the untraced one, for per-layer metrics.
  bool trace = false;
  /// Seconds-long inputs for the benchmark's own tests.
  bool quick = false;
  /// Where a traced run writes its spans (empty: keep them in memory).
  std::string spans_path;
};

/// One metric as printed: value and unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced.
struct Outcome {
  /// Hex hash of one pass's deterministic outputs.
  std::string hash;
  /// False when the traced pass's outputs differ from the untraced one's.
  bool repeatable = true;
  /// Coverage conditions of the output check, by name.
  std::vector<std::pair<std::string, bool>> coverage;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
};

/// Median and the highest of p90/p95/p99/p99.9 that has at least ten
/// samples beyond it (the median itself when none has).
struct Distribution {
  double median = 0.0;
  double tail = 0.0;
  double tail_percentile = 50.0;
  std::size_t samples = 0;
};
Distribution Summarize(std::vector<double> samples);

double Median(std::vector<double> samples);

/// Peak resident set of this process so far, in MiB.
double PeakRssMiB();

/// FNV-1a over a canonical byte rendering of every value added.
class OutputHash {
 public:
  void Add(std::string_view text);
  void Add(std::uint64_t value);
  void Add(int value) {
    Add(static_cast<std::uint64_t>(static_cast<std::int64_t>(value)));
  }
  /// Hashes the exact bit pattern, so any change in any digit shows.
  void Add(double value);
  std::string Hex() const;

 private:
  std::uint64_t state_ = 14695981039346656037ull;
};

/// In-memory spans of a traced run: name, start, end and parent, written
/// out as one JSON array when the run ends.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span under `parent` (-1 for a root); returns its id, or -1
  /// when the log is disabled.
  int Begin(std::string_view name, int parent = -1);
  /// Closes span `id` and returns its duration in seconds (0 when
  /// disabled).
  double End(int id);

  /// Writes every span as JSON to `path`; throws on I/O failure.
  void Write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    double start_s = 0.0;
    double end_s = -1.0;
  };

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Merged MetricsRegistry counters, by name.
using Counters = std::map<std::string, std::uint64_t>;

/// One counter's value, 0 when it was never registered.
std::uint64_t CounterValue(const Counters& counters, const std::string& name);

/// The per-layer metrics both scenario stacks derive from the sim and
/// core counters of their MetricsRegistry: medium, MAC, scanner and
/// protocol counts and shares.
std::map<std::string, Metric> CounterMetrics(const Counters& counters);

/// Share `part / whole`, 0 when `whole` is 0 (the layer did no work).
inline double Share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

}  // namespace perfbench
