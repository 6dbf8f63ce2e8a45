// MetricsRegistry — named counters, gauges and histograms for the whole
// simulation stack.
//
// Naming convention: `whitefi.<module>.<name>` (e.g. whitefi.mac.retries,
// whitefi.medium.tx.Data, whitefi.sift.detect_latency_us).  Units go in
// the name suffix (_us, _s, _bytes) so snapshots are self-describing.
//
// Hot-path discipline: instrumented components resolve their handles ONCE
// (at wiring time) and then increment through a raw pointer; a null
// registry yields null handles and the per-event cost is a single branch.
// The WHITEFI_METRIC_* macros wrap that branch.  Everything is
// single-threaded like the simulator itself; Counter::Add is a bare
// integer increment.
//
// Snapshots export as an aligned text table, CSV (via util/report) or a
// small JSON object, so benches can drop machine-readable metrics next to
// their paper tables.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/histogram.h"

namespace whitefi {

/// Monotonically increasing event count.
class Counter {
 public:
  void Add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(double value) { value_ = value; }
  double value() const { return value_; }
  void Reset() { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

/// Distribution of latencies/sizes (geometric buckets, see ExpHistogram).
class Histogram {
 public:
  void Observe(double value) { histogram_.Add(value); }
  const ExpHistogram& distribution() const { return histogram_; }
  void Reset() { histogram_.Reset(); }

 private:
  ExpHistogram histogram_;
};

/// Point-in-time copy of every registered metric, ready to render.
struct MetricsSnapshot {
  struct CounterEntry {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeEntry {
    std::string name;
    double value = 0.0;
  };
  struct HistogramEntry {
    std::string name;
    ExpHistogram distribution;
  };

  std::vector<CounterEntry> counters;     ///< Sorted by name.
  std::vector<GaugeEntry> gauges;         ///< Sorted by name.
  std::vector<HistogramEntry> histograms; ///< Sorted by name.

  /// Aligned human-readable table (counters, gauges, then histograms).
  std::string ToText() const;

  /// CSV rows: metric,kind,field,value (one row per exported field).
  std::string ToCsv() const;

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string ToJson() const;
};

/// The registry.  Handles returned by Get* stay valid for the registry's
/// lifetime (metrics are never unregistered).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the counter named `name`, creating it on first use.  Throws
  /// std::invalid_argument if the name is already a gauge or histogram.
  Counter& GetCounter(const std::string& name);

  /// Same, for gauges.
  Gauge& GetGauge(const std::string& name);

  /// Same, for histograms.
  Histogram& GetHistogram(const std::string& name);

  /// Null-safe one-shot conveniences for cold paths (one map lookup each;
  /// hot paths should cache the handle instead).
  static void Count(MetricsRegistry* registry, const std::string& name,
                    std::uint64_t n = 1);
  static void Set(MetricsRegistry* registry, const std::string& name,
                  double value);
  static void Observe(MetricsRegistry* registry, const std::string& name,
                      double value);

  /// Copies every metric's current value.
  MetricsSnapshot Snapshot() const;

  /// Zeroes every metric, keeping registrations (and handles) intact.
  void Reset();

  /// Number of registered metrics of any kind.
  std::size_t size() const { return kinds_.size(); }

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  void CheckKind(const std::string& name, Kind kind) const;

  std::map<std::string, Kind> kinds_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace whitefi

// Null-safe handle macros for instrumentation sites.
#define WHITEFI_METRIC_COUNT(counter, n) \
  do {                                   \
    if ((counter) != nullptr) (counter)->Add(n); \
  } while (0)
#define WHITEFI_METRIC_OBSERVE(histogram, v) \
  do {                                       \
    if ((histogram) != nullptr) (histogram)->Observe(v); \
  } while (0)
