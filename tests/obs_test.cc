// Tests for the observability subsystem: metrics registry, structured
// event trace (JSONL round-trip), and the phase profiler.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <thread>

#include "obs/obs.h"

namespace whitefi {
namespace {

// ------------------------------------------------------------ metrics --

TEST(MetricsRegistry, CountersGaugesHistogramsInSnapshot) {
  MetricsRegistry registry;
  Counter& tx = registry.GetCounter("whitefi.medium.tx.Data");
  tx.Add();
  tx.Add(4);
  registry.GetGauge("whitefi.ap.last_metric").Set(1.75);
  Histogram& latency = registry.GetHistogram("whitefi.sift.detect_latency_us");
  latency.Observe(100.0);
  latency.Observe(300.0);

  EXPECT_EQ(registry.size(), 3u);
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 1u);
  EXPECT_EQ(snapshot.counters[0].name, "whitefi.medium.tx.Data");
  EXPECT_EQ(snapshot.counters[0].value, 5u);
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snapshot.gauges[0].value, 1.75);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].distribution.Count(), 2u);
  EXPECT_DOUBLE_EQ(snapshot.histograms[0].distribution.Mean(), 200.0);
}

TEST(MetricsRegistry, SnapshotIsSortedByName) {
  MetricsRegistry registry;
  registry.GetCounter("whitefi.z.last");
  registry.GetCounter("whitefi.a.first");
  registry.GetCounter("whitefi.m.middle");
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 3u);
  EXPECT_EQ(snapshot.counters[0].name, "whitefi.a.first");
  EXPECT_EQ(snapshot.counters[1].name, "whitefi.m.middle");
  EXPECT_EQ(snapshot.counters[2].name, "whitefi.z.last");
}

TEST(MetricsRegistry, HandlesAreStableAndResetKeepsThem) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("whitefi.mac.retries");
  counter.Add(7);
  EXPECT_EQ(&counter, &registry.GetCounter("whitefi.mac.retries"));
  registry.GetGauge("whitefi.g").Set(3.0);
  registry.GetHistogram("whitefi.h").Observe(9.0);

  registry.Reset();
  EXPECT_EQ(registry.size(), 3u);  // Registrations survive.
  EXPECT_EQ(counter.value(), 0u);  // Values are zeroed through old handles.
  EXPECT_DOUBLE_EQ(registry.GetGauge("whitefi.g").value(), 0.0);
  EXPECT_EQ(registry.GetHistogram("whitefi.h").distribution().Count(), 0u);
  counter.Add();  // Old handle still feeds the registry.
  EXPECT_EQ(registry.Snapshot().counters[0].value, 1u);
}

TEST(MetricsRegistry, NameCollisionAcrossKindsThrows) {
  MetricsRegistry registry;
  registry.GetCounter("whitefi.dual");
  EXPECT_THROW(registry.GetGauge("whitefi.dual"), std::invalid_argument);
  EXPECT_THROW(registry.GetHistogram("whitefi.dual"), std::invalid_argument);
  registry.GetHistogram("whitefi.h");
  EXPECT_THROW(registry.GetCounter("whitefi.h"), std::invalid_argument);
}

TEST(MetricsRegistry, NullSafeStaticsAreNoOpsOnNull) {
  MetricsRegistry::Count(nullptr, "whitefi.x");
  MetricsRegistry::Set(nullptr, "whitefi.x", 1.0);
  MetricsRegistry::Observe(nullptr, "whitefi.x", 1.0);

  MetricsRegistry registry;
  MetricsRegistry::Count(&registry, "whitefi.c", 2);
  MetricsRegistry::Set(&registry, "whitefi.g", 4.5);
  MetricsRegistry::Observe(&registry, "whitefi.h", 8.0);
  EXPECT_EQ(registry.GetCounter("whitefi.c").value(), 2u);
  EXPECT_DOUBLE_EQ(registry.GetGauge("whitefi.g").value(), 4.5);
  EXPECT_EQ(registry.GetHistogram("whitefi.h").distribution().Count(), 1u);
}

TEST(MetricsRegistry, ExportFormatsContainEveryMetric) {
  MetricsRegistry registry;
  registry.GetCounter("whitefi.medium.tx.Data").Add(42);
  registry.GetGauge("whitefi.ap.last_metric").Set(0.5);
  registry.GetHistogram("whitefi.client.outage_s").Observe(2.0);
  const MetricsSnapshot snapshot = registry.Snapshot();

  const std::string text = snapshot.ToText();
  EXPECT_NE(text.find("whitefi.medium.tx.Data"), std::string::npos);
  EXPECT_NE(text.find("42"), std::string::npos);
  EXPECT_NE(text.find("whitefi.client.outage_s"), std::string::npos);

  const std::string csv = snapshot.ToCsv();
  EXPECT_NE(csv.find("whitefi.medium.tx.Data,counter,value,42"),
            std::string::npos);
  EXPECT_NE(csv.find("whitefi.ap.last_metric,gauge"), std::string::npos);
  EXPECT_NE(csv.find("whitefi.client.outage_s,histogram,count,1"),
            std::string::npos);

  const std::string json = snapshot.ToJson();
  EXPECT_NE(json.find("\"whitefi.medium.tx.Data\":42"), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(MetricsRegistry, JsonExportsHistogramBucketsAlongsideQuantiles) {
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("whitefi.client.outage_s");
  h.Observe(0.5);  // Bucket [0, 1).
  h.Observe(0.7);  // Same bucket.
  h.Observe(3.0);  // Bucket [2, 4).
  const std::string json = registry.Snapshot().ToJson();
  // Quantile summary fields are still present...
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  // ...and the exact power-of-two bucket counts ride alongside, as
  // [lo, hi, count] triples in ascending order.
  EXPECT_NE(json.find("\"buckets\":[[0,1,2],[2,4,1]]"), std::string::npos);

  // ExpHistogram's accessor reports the same triples.
  const auto buckets = h.distribution().NonEmptyBuckets();
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0].lo, 0.0);
  EXPECT_EQ(buckets[0].hi, 1.0);
  EXPECT_EQ(buckets[0].count, 2u);
  EXPECT_EQ(buckets[1].lo, 2.0);
  EXPECT_EQ(buckets[1].hi, 4.0);
  EXPECT_EQ(buckets[1].count, 1u);
}

TEST(MetricMacros, NullHandleIsANoOp) {
  Counter* counter = nullptr;
  Histogram* histogram = nullptr;
  WHITEFI_METRIC_COUNT(counter, 1);
  WHITEFI_METRIC_OBSERVE(histogram, 1.0);

  MetricsRegistry registry;
  counter = &registry.GetCounter("whitefi.c");
  WHITEFI_METRIC_COUNT(counter, 3);
  EXPECT_EQ(counter->value(), 3u);
}

// ------------------------------------------------------- exp histogram --

TEST(ExpHistogram, BasicMoments) {
  ExpHistogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
  h.Add(10.0);
  h.Add(20.0);
  h.Add(30.0);
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_DOUBLE_EQ(h.Sum(), 60.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 20.0);
  EXPECT_DOUBLE_EQ(h.Min(), 10.0);
  EXPECT_DOUBLE_EQ(h.Max(), 30.0);
  // Percentiles are bucket estimates clamped to the observed range.
  EXPECT_GE(h.Percentile(0), 10.0);
  EXPECT_LE(h.Percentile(100), 30.0);
  EXPECT_GE(h.Percentile(99), h.Percentile(50));
}

TEST(ExpHistogram, MergeAndReset) {
  ExpHistogram a, b;
  a.Add(1.0);
  a.Add(2.0);
  b.Add(100.0);
  a.Merge(b);
  EXPECT_EQ(a.Count(), 3u);
  EXPECT_DOUBLE_EQ(a.Sum(), 103.0);
  EXPECT_DOUBLE_EQ(a.Min(), 1.0);
  EXPECT_DOUBLE_EQ(a.Max(), 100.0);
  a.Reset();
  EXPECT_EQ(a.Count(), 0u);
  EXPECT_DOUBLE_EQ(a.Max(), 0.0);
}

// -------------------------------------------------------- event trace --

TraceEvent FrameTx(std::int64_t at_us) {
  TraceEvent e;
  e.at_us = at_us;
  e.kind = TraceEventKind::kFrameTx;
  e.node = 0;
  e.src = 0;
  e.dst = 1;
  e.bytes = 1028;
  e.frame_type = "Data";
  e.detail = "(ch31, 20MHz)";
  return e;
}

TEST(EventTrace, KindNamesRoundTrip) {
  for (int i = 0; i < kNumTraceEventKinds; ++i) {
    const auto kind = static_cast<TraceEventKind>(i);
    const auto parsed = ParseTraceEventKind(TraceEventKindName(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(ParseTraceEventKind("no_such_kind").has_value());
}

TEST(EventTrace, JsonlRoundTripIsExact) {
  EventTrace trace;
  trace.Append(FrameTx(12'304'000));
  TraceEvent note;  // All-default fields except kind/at_us/detail.
  note.at_us = 5;
  note.detail = "quote \" backslash \\ newline \n tab \t done";
  trace.Append(note);
  TraceEvent sw;
  sw.at_us = 99;
  sw.kind = TraceEventKind::kChannelSwitch;
  sw.node = 3;
  sw.detail = "(ch21, 5MHz) -> (ch24, 10MHz)";
  trace.Append(sw);

  std::istringstream in(trace.ToJsonl());
  const std::vector<TraceEvent> parsed = EventTrace::ReadJsonl(in);
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[0], FrameTx(12'304'000));
  EXPECT_EQ(parsed[1], note);
  EXPECT_EQ(parsed[2], sw);
}

TEST(EventTrace, ReadJsonlRejectsMalformedLines) {
  std::istringstream bad("{\"t\":1,\"kind\":\"note\"\n");
  EXPECT_THROW(EventTrace::ReadJsonl(bad), std::runtime_error);
  std::istringstream unknown("{\"t\":1,\"kind\":\"martian\"}\n");
  EXPECT_THROW(EventTrace::ReadJsonl(unknown), std::runtime_error);
}

TEST(EventTrace, CountsStayExactBeyondCapAndFilter) {
  EventTraceOptions options;
  options.max_events = 2;
  options.only = {TraceEventKind::kFrameTx};
  EventTrace trace(options);
  for (int i = 0; i < 5; ++i) trace.Append(FrameTx(i));
  TraceEvent retry;
  retry.kind = TraceEventKind::kMacRetry;
  trace.Append(retry);  // Filtered out, still counted.

  EXPECT_EQ(trace.events().size(), 2u);  // The cap keeps the first two.
  EXPECT_EQ(trace.events()[0].at_us, 0);
  EXPECT_EQ(trace.events()[1].at_us, 1);
  EXPECT_EQ(trace.TotalSeen(), 6u);
  EXPECT_EQ(trace.CountOf(TraceEventKind::kFrameTx), 5u);
  EXPECT_EQ(trace.CountOf(TraceEventKind::kMacRetry), 1u);
  EXPECT_EQ(trace.CountOf(TraceEventKind::kChirp), 0u);
}

TEST(EventTrace, ClearDropsRecordsAndCounts) {
  EventTrace trace;
  trace.Append(FrameTx(1));
  trace.Clear();
  EXPECT_EQ(trace.events().size(), 0u);
  EXPECT_EQ(trace.TotalSeen(), 0u);
  EXPECT_EQ(trace.CountOf(TraceEventKind::kFrameTx), 0u);
}

TEST(EventTrace, ChromeTraceIsAJsonArrayWithSimTimestamps) {
  EventTrace trace;
  trace.Append(FrameTx(12'304'000));
  std::ostringstream out;
  trace.WriteChromeTrace(out);
  const std::string chrome = out.str();
  EXPECT_EQ(chrome.front(), '[');
  EXPECT_NE(chrome.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ts\":12304000"), std::string::npos);
  EXPECT_NE(chrome.find("\"tid\":0"), std::string::npos);
  EXPECT_NE(chrome.find("frame_tx"), std::string::npos);
}

// ------------------------------------------------------ phase profiler --

void SpinFor(std::chrono::microseconds d) {
  const auto until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST(PhaseProfiler, NestedScopesSplitSelfTime) {
  PhaseProfiler profiler;
  {
    ScopedPhaseTimer outer(&profiler, "outer");
    SpinFor(std::chrono::microseconds(200));
    {
      ScopedPhaseTimer inner(&profiler, "inner");
      SpinFor(std::chrono::microseconds(200));
    }
    EXPECT_EQ(profiler.depth(), 1u);
  }
  EXPECT_EQ(profiler.depth(), 0u);

  const auto& phases = profiler.phases();
  ASSERT_EQ(phases.size(), 2u);
  const PhaseStats& outer = phases.at("outer");
  const PhaseStats& inner = phases.at("inner");
  EXPECT_EQ(outer.count, 1u);
  EXPECT_EQ(inner.count, 1u);
  // Outer's total covers the inner scope; its self time does not.
  EXPECT_GE(outer.total_us, inner.total_us);
  EXPECT_NEAR(outer.self_us, outer.total_us - inner.total_us, 1e-6);
  EXPECT_GT(inner.self_us, 0.0);
  EXPECT_GE(outer.max_us, outer.total_us - 1e-6);
}

TEST(PhaseProfiler, AccumulatesAcrossCallsAndRenders) {
  PhaseProfiler profiler;
  for (int i = 0; i < 3; ++i) {
    ScopedPhaseTimer t(&profiler, "kernel");
    SpinFor(std::chrono::microseconds(50));
  }
  const PhaseStats& stats = profiler.phases().at("kernel");
  EXPECT_EQ(stats.count, 3u);
  EXPECT_GE(stats.total_us, stats.max_us);
  EXPECT_NEAR(stats.self_us, stats.total_us, 1e-6);  // No nesting.
  const std::string table = profiler.ToString(2.0);
  EXPECT_NE(table.find("kernel"), std::string::npos);
  EXPECT_NE(table.find("ms_per_sim_s"), std::string::npos);
  profiler.Reset();
  EXPECT_TRUE(profiler.phases().empty());
}

TEST(PhaseProfiler, NullProfilerScopeIsSafe) {
  ScopedPhaseTimer t(nullptr, "nothing");
}

}  // namespace
}  // namespace whitefi
