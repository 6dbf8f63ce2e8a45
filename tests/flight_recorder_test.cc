// Tests for the causal flight recorder: span-linked trace events, the
// per-node StateTimeline, the span/flow analysis behind trace_lens, the
// Chrome trace export (validated with a strict in-test JSON parser), and
// the drop accounting of capped / kind-filtered captures.
//
// The end-to-end tests pin the PR's acceptance criteria in-process:
//  * every recovery in an incumbent scenario is attributed to the mic
//    via its causal flow id (attribution rate 100% >= the 95% bar);
//  * the per-phase breakdown derived from the trace matches the live
//    StateTimeline recorder tick-for-tick;
//  * attaching the recorder does not perturb the simulation, and two
//    recorded runs serialize byte-identically.
#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/ap.h"
#include "core/client.h"
#include "obs/event_trace.h"
#include "obs/span.h"
#include "obs/state_timeline.h"
#include "sim/traffic.h"
#include "spectrum/campus.h"

namespace whitefi {
namespace {

constexpr int kSsid = 7;

// ------------------------------------------------------- StateTimeline --

TEST(StateTimeline, PartitionsTimeExactly) {
  StateTimeline timeline;
  timeline.Enter(0, 2, "connected");
  timeline.Enter(5'000'000, 2, "chirping");
  timeline.Enter(5'600'000, 2, "connected");
  timeline.Close(10'000'000);

  ASSERT_EQ(timeline.intervals().size(), 3u);
  EXPECT_EQ(timeline.TotalIn(2, "connected"), 5'000'000 + 4'400'000);
  EXPECT_EQ(timeline.TotalIn(2, "chirping"), 600'000);
  // The intervals partition [0, 10 s] with no gap and no double count.
  std::int64_t sum = 0;
  for (const StateInterval& iv : timeline.intervals()) sum += iv.DurationUs();
  EXPECT_EQ(sum, 10'000'000);
  EXPECT_EQ(timeline.CurrentState(2), "connected");
  EXPECT_EQ(timeline.Nodes(), std::vector<int>{2});
}

TEST(StateTimeline, ReenteringCurrentStateIsANoOp) {
  StateTimeline timeline;
  timeline.Enter(0, 1, "operating");
  timeline.Enter(1000, 1, "operating");  // Must not split the interval.
  timeline.Enter(2000, 1, "collecting");
  timeline.Close(3000);
  ASSERT_EQ(timeline.intervals().size(), 2u);
  EXPECT_EQ(timeline.intervals()[0].begin_us, 0);
  EXPECT_EQ(timeline.intervals()[0].end_us, 2000);
}

TEST(StateTimeline, TracksNodesIndependently) {
  StateTimeline timeline;
  timeline.Enter(0, 1, "operating");
  timeline.Enter(100, 2, "connected");
  timeline.Enter(200, 1, "collecting");
  timeline.Close(300);
  EXPECT_EQ(timeline.TotalIn(1, "operating"), 200);
  EXPECT_EQ(timeline.TotalIn(2, "connected"), 200);
  EXPECT_EQ(timeline.Nodes(), (std::vector<int>{1, 2}));
}

// ----------------------------------------------------- ExactPercentile --

TEST(ExactPercentile, NearestRank) {
  const std::vector<double> v{10, 20, 30, 40, 50};
  EXPECT_EQ(ExactPercentile(v, 50), 30);
  EXPECT_EQ(ExactPercentile(v, 95), 50);
  EXPECT_EQ(ExactPercentile(v, 99), 50);
  EXPECT_EQ(ExactPercentile(v, 0), 10);
  EXPECT_EQ(ExactPercentile(v, 100), 50);
  EXPECT_EQ(ExactPercentile({7}, 50), 7);
  EXPECT_EQ(ExactPercentile({}, 50), 0);
  // Unsorted input is sorted internally.
  EXPECT_EQ(ExactPercentile({50, 10, 30, 20, 40}, 50), 30);
}

// ----------------------------------------------------------- BuildSpans --

TraceEvent SpanEvent(TraceEventKind kind, std::int64_t at, int node,
                     std::int64_t id, std::int64_t parent, std::int64_t flow,
                     const std::string& name) {
  TraceEvent e;
  e.kind = kind;
  e.at_us = at;
  e.node = node;
  e.span_id = id;
  e.parent_span = parent;
  e.flow_id = flow;
  e.detail = name;
  return e;
}

TEST(BuildSpans, PairsBeginEndAndKeepsOpenSpans) {
  std::vector<TraceEvent> events;
  events.push_back(
      SpanEvent(TraceEventKind::kSpanBegin, 100, 2, 11, 0, 5, "outer"));
  events.push_back(
      SpanEvent(TraceEventKind::kSpanBegin, 150, 2, 12, 11, 5, "inner"));
  events.push_back(
      SpanEvent(TraceEventKind::kSpanEnd, 180, 2, 12, 0, 5, "inner"));
  // End without a begin (e.g. the begin was filtered out): skipped.
  events.push_back(
      SpanEvent(TraceEventKind::kSpanEnd, 190, 3, 99, 0, 0, "orphan"));

  const std::vector<Span> spans = BuildSpans(events);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_FALSE(spans[0].Closed());
  EXPECT_EQ(spans[0].DurationUs(), 0);
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].parent, 11);
  EXPECT_EQ(spans[1].flow, 5);
  ASSERT_TRUE(spans[1].Closed());
  EXPECT_EQ(spans[1].DurationUs(), 30);
}

TEST(SplitRuns, SplitsWhereTimeRestarts) {
  std::vector<TraceEvent> events;
  for (std::int64_t t : {10, 20, 30, 5, 6, 7, 3}) {
    TraceEvent e;
    e.at_us = t;
    events.push_back(e);
  }
  const auto runs = SplitRuns(events);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].size(), 3u);
  EXPECT_EQ(runs[1].size(), 3u);
  EXPECT_EQ(runs[2].size(), 1u);
  EXPECT_TRUE(SplitRuns({}).empty());
  EXPECT_EQ(SplitRuns({events[0]}).size(), 1u);
}

// ------------------------------------------------- JSONL serialization --

TEST(EventTraceJsonl, SpanAndFlowFieldsRoundTrip) {
  EventTrace trace;
  TraceEvent e = SpanEvent(TraceEventKind::kSpanBegin, 12345, 4, 7, 3, 9,
                           "client.recovery/incumbent");
  trace.Append(e);
  TraceEvent plain;
  plain.kind = TraceEventKind::kNote;
  plain.at_us = 20000;
  plain.detail = "no ids";
  trace.Append(plain);

  std::ostringstream os;
  trace.WriteJsonl(os);
  std::istringstream is(os.str());
  const std::vector<TraceEvent> back = EventTrace::ReadJsonl(is);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0], e);
  EXPECT_EQ(back[1], plain);
  // Unset ids are omitted from the wire format entirely.
  EXPECT_EQ(os.str().find("\"span\":", os.str().find("no ids")),
            std::string::npos);
}

TEST(EventTraceJsonl, CapDropsAreAccountedInMetaHeader) {
  EventTraceOptions options;
  options.max_events = 2;
  EventTrace trace(options);
  TraceEvent e;
  e.kind = TraceEventKind::kFrameTx;
  trace.Append(e);
  e.kind = TraceEventKind::kFrameRx;
  trace.Append(e);
  e.kind = TraceEventKind::kChirp;
  trace.Append(e);  // Past the cap.
  e.kind = TraceEventKind::kNote;
  trace.Append(e);  // Past the cap.

  EXPECT_EQ(trace.TotalDropped(), 2u);
  EXPECT_EQ(trace.DroppedOf(TraceEventKind::kChirp), 1u);
  EXPECT_EQ(trace.DroppedOf(TraceEventKind::kNote), 1u);
  EXPECT_EQ(trace.DroppedOf(TraceEventKind::kFrameTx), 0u);
  // Exact per-kind counts survive the cap.
  EXPECT_EQ(trace.TotalSeen(), 4u);
  EXPECT_EQ(trace.CountOf(TraceEventKind::kChirp), 1u);

  std::ostringstream os;
  trace.WriteJsonl(os);
  const std::string jsonl = os.str();
  EXPECT_EQ(jsonl.rfind("{\"meta\":\"event_trace\"", 0), 0u);
  EXPECT_NE(jsonl.find("\"dropped\":2"), std::string::npos);
  EXPECT_NE(jsonl.find("\"chirp\":1"), std::string::npos);
  EXPECT_NE(jsonl.find("\"note\":1"), std::string::npos);

  // ReadJsonl skips the meta header and returns the records kept.
  std::istringstream is(jsonl);
  const std::vector<TraceEvent> back = EventTrace::ReadJsonl(is);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].kind, TraceEventKind::kFrameTx);
  EXPECT_EQ(back[1].kind, TraceEventKind::kFrameRx);
}

TEST(EventTraceJsonl, StopAtCapCountsTheRejectedKind) {
  EventTraceOptions options;
  options.max_events = 1;
  EventTrace trace(options);
  TraceEvent e;
  e.kind = TraceEventKind::kFrameTx;
  trace.Append(e);
  e.kind = TraceEventKind::kChirp;
  trace.Append(e);  // Rejected: the cap is reached.
  EXPECT_EQ(trace.events().size(), 1u);
  EXPECT_EQ(trace.DroppedOf(TraceEventKind::kChirp), 1u);
  EXPECT_EQ(trace.DroppedOf(TraceEventKind::kFrameTx), 0u);
}

TEST(EventTraceJsonl, KindFilterIsNotADrop) {
  EventTraceOptions options;
  options.only = {TraceEventKind::kChirp};
  EventTrace trace(options);
  EXPECT_TRUE(trace.Wants(TraceEventKind::kChirp));
  EXPECT_FALSE(trace.Wants(TraceEventKind::kFrameTx));
  TraceEvent e;
  e.kind = TraceEventKind::kFrameTx;
  trace.Append(e);
  e.kind = TraceEventKind::kChirp;
  trace.Append(e);
  EXPECT_EQ(trace.events().size(), 1u);
  // Filtered kinds count as seen but never as dropped.
  EXPECT_EQ(trace.CountOf(TraceEventKind::kFrameTx), 1u);
  EXPECT_EQ(trace.TotalDropped(), 0u);
}

// ----------------------------------------- strict mini JSON validation --
//
// A deliberately strict recursive-descent JSON parser: any deviation from
// RFC 8259 structure (trailing commas, unquoted keys, truncated output)
// fails the test.  Values are kept as tagged strings — the tests only
// need structure and field access, not full typing.

struct JsonValue {
  enum class Type { kObject, kArray, kString, kNumber, kBool, kNull };
  Type type = Type::kNull;
  std::string scalar;  // For string/number/bool.
  std::vector<std::pair<std::string, JsonValue>> members;  // For objects.
  std::vector<JsonValue> items;                            // For arrays.

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue Parse() {
    JsonValue value = ParseValue();
    SkipWs();
    if (pos_ != text_.size()) Fail("trailing garbage");
    return value;
  }

 private:
  [[noreturn]] void Fail(const std::string& why) {
    throw std::runtime_error("JSON error at offset " + std::to_string(pos_) +
                             ": " + why);
  }
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char Peek() {
    if (pos_ >= text_.size()) Fail("unexpected end");
    return text_[pos_];
  }
  void Expect(char c) {
    if (Peek() != c) Fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue ParseValue() {
    SkipWs();
    switch (Peek()) {
      case '{': return ParseObject();
      case '[': return ParseArray();
      case '"': {
        JsonValue v;
        v.type = JsonValue::Type::kString;
        v.scalar = ParseString();
        return v;
      }
      case 't': return ParseLiteral("true", JsonValue::Type::kBool);
      case 'f': return ParseLiteral("false", JsonValue::Type::kBool);
      case 'n': return ParseLiteral("null", JsonValue::Type::kNull);
      default: return ParseNumber();
    }
  }

  JsonValue ParseLiteral(const std::string& lit, JsonValue::Type type) {
    if (text_.compare(pos_, lit.size(), lit) != 0) Fail("bad literal");
    pos_ += lit.size();
    JsonValue v;
    v.type = type;
    v.scalar = lit;
    return v;
  }

  JsonValue ParseNumber() {
    const std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) Fail("bad number");
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    v.scalar = text_.substr(start, pos_ - start);
    return v;
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) Fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) Fail("bad escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) Fail("bad \\u escape");
            out += text_.substr(pos_ - 2, 6);  // Keep raw; tests don't care.
            pos_ += 4;
            break;
          }
          default: Fail("unknown escape");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        Fail("raw control character in string");
      } else {
        out += c;
      }
    }
  }

  JsonValue ParseObject() {
    Expect('{');
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      SkipWs();
      std::string key = ParseString();
      SkipWs();
      Expect(':');
      v.members.emplace_back(std::move(key), ParseValue());
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect('}');
      return v;
    }
  }

  JsonValue ParseArray() {
    Expect('[');
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items.push_back(ParseValue());
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect(']');
      return v;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

TEST(JsonParser, RejectsMalformedInput) {
  EXPECT_THROW(JsonParser("{\"a\":1,}").Parse(), std::runtime_error);
  EXPECT_THROW(JsonParser("{a:1}").Parse(), std::runtime_error);
  EXPECT_THROW(JsonParser("[1,2").Parse(), std::runtime_error);
  EXPECT_THROW(JsonParser("{} x").Parse(), std::runtime_error);
  EXPECT_NO_THROW(JsonParser("{\"a\":[1,-2.5e3,\"s\",true,null]}").Parse());
}

// ------------------------------------------------ end-to-end scenarios --

DeviceConfig NodeAt(double x, double y, const SpectrumMap& tv_map) {
  DeviceConfig c;
  c.position = {x, y};
  c.ssid = kSsid;
  c.tv_map = tv_map;
  return c;
}

ScannerParams FastScanner() {
  ScannerParams p;
  p.dwell = 100 * kTicksPerMs;
  p.airtime_noise_stddev = 0.005;
  return p;
}

struct MicRunResult {
  std::string jsonl;
  std::string chrome;
  std::vector<TraceEvent> events;
  StateTimeline timeline;
  std::uint64_t app_bytes = 0;
  int switches = 0;
  std::vector<int> client_nodes;
};

/// One AP + two clients on a 20 MHz channel; a mic lands on the operating
/// channel at t=4s.  Optionally recorded; the run itself must not care.
MicRunResult RunMicScenario(bool record) {
  EventTrace trace;
  StateTimeline timeline;
  WorldConfig world_config;
  if (record) {
    world_config.obs.trace = &trace;
    world_config.obs.timeline = &timeline;
  }
  World world(world_config);
  const SpectrumMap map = Building5Map();
  const Channel main{IndexOfTvChannel(28), ChannelWidth::kW20};
  const Channel backup{IndexOfTvChannel(39), ChannelWidth::kW5};
  ApParams ap_params;
  ap_params.scanner = FastScanner();
  ApNode& ap = world.Create<ApNode>(NodeAt(0, 0, map), ap_params, main, backup);
  ClientParams client_params;
  client_params.scanner = FastScanner();
  std::vector<ClientNode*> clients;
  for (int i = 0; i < 2; ++i) {
    clients.push_back(&world.Create<ClientNode>(
        NodeAt(50.0 + 10.0 * i, 40.0, map), client_params, main, backup,
        ap.NodeId()));
  }
  std::vector<int> dsts;
  for (auto* c : clients) dsts.push_back(c->NodeId());
  SaturatedSource downlink(ap, dsts, 1000);
  world.StartAll();
  downlink.Start();
  world.SetMicSchedule(
      {{IndexOfTvChannel(28), 4.0 * kSecond, 120.0 * kSecond}});
  world.RunFor(12.0);

  MicRunResult result;
  result.app_bytes = world.AppBytesInSsid(kSsid);
  result.switches = ap.num_switches();
  for (auto* c : clients) result.client_nodes.push_back(c->NodeId());
  if (record) {
    std::ostringstream jsonl;
    trace.WriteJsonl(jsonl);
    result.jsonl = jsonl.str();
    std::ostringstream chrome;
    trace.WriteChromeTrace(chrome);
    result.chrome = chrome.str();
    result.events.assign(trace.events().begin(), trace.events().end());
    timeline.Close(12 * kTicksPerSec);
    result.timeline = timeline;
  }
  return result;
}

TEST(FlightRecorder, RecorderDoesNotPerturbTheRunAndIsDeterministic) {
  const MicRunResult recorded = RunMicScenario(true);
  const MicRunResult detached = RunMicScenario(false);
  // Null-by-default: the recorded world behaves identically to the bare
  // one (trace ids are allocated either way; only the sinks differ).
  EXPECT_EQ(recorded.app_bytes, detached.app_bytes);
  EXPECT_EQ(recorded.switches, detached.switches);
  // Two recorded runs serialize byte-identically.
  const MicRunResult again = RunMicScenario(true);
  EXPECT_EQ(recorded.jsonl, again.jsonl);
  EXPECT_EQ(recorded.chrome, again.chrome);
}

TEST(FlightRecorder, IncumbentRecoveriesAreFlowAttributed) {
  const MicRunResult run = RunMicScenario(true);
  const TraceAnalysis analysis = AnalyzeTrace(run.events);

  // The AP is identified from its states/spans.
  ASSERT_EQ(analysis.ap_nodes.size(), 1u);

  // Both clients recovered at least once; every recovery is attributed —
  // and attributed to the mic through its causal flow, not a guess.
  ASSERT_GE(analysis.recoveries.size(), 2u);
  std::set<int> recovered_nodes;
  for (const Recovery& r : analysis.recoveries) {
    recovered_nodes.insert(r.span.node);
    EXPECT_EQ(r.declared_cause, "incumbent");
    EXPECT_EQ(r.cause_kind, "incumbent") << "node " << r.span.node;
    EXPECT_GE(r.cause_at_us, 0);
    EXPECT_LE(r.cause_at_us, r.span.begin_us);
    ASSERT_TRUE(r.span.Closed());
    EXPECT_NE(r.span.flow, 0);
  }
  for (int node : run.client_nodes) {
    EXPECT_TRUE(recovered_nodes.count(node)) << "node " << node;
  }
  // The AP's vacate episode rides the same causal flow as the client
  // recoveries (one incumbent, one flow, arrows across nodes).
  bool found_vacate = false;
  for (const Span& span : analysis.spans) {
    if (span.name.rfind("ap.vacate", 0) == 0) {
      found_vacate = true;
      EXPECT_EQ(span.flow, analysis.recoveries[0].span.flow);
    }
  }
  EXPECT_TRUE(found_vacate);
}

TEST(FlightRecorder, PhaseBreakdownMatchesStateTimelineExactly) {
  const MicRunResult run = RunMicScenario(true);
  const TraceAnalysis analysis = AnalyzeTrace(run.events);
  ASSERT_GE(analysis.recoveries.size(), 2u);

  std::map<int, std::map<std::string, std::int64_t>> phase_totals;
  for (const Recovery& r : analysis.recoveries) {
    ASSERT_TRUE(r.span.Closed());
    // Phases partition the span exactly.
    std::int64_t sum = 0;
    for (const RecoveryPhase& phase : r.phases) {
      sum += phase.duration_us;
      phase_totals[r.span.node][phase.state] += phase.duration_us;
    }
    EXPECT_EQ(sum, r.span.DurationUs()) << "node " << r.span.node;
  }
  // Clients spend time in chirping/scanning states only inside recovery
  // spans, so the trace-derived totals must equal the live StateTimeline
  // recorder tick-for-tick.
  for (int node : run.client_nodes) {
    for (const char* state : {"chirping", "scanning"}) {
      EXPECT_EQ(phase_totals[node][state], run.timeline.TotalIn(node, state))
          << "node " << node << " state " << state;
    }
  }
}

TEST(FlightRecorder, ChromeTraceIsValidJsonWithPairedSpansAndFlows) {
  const MicRunResult run = RunMicScenario(true);
  JsonValue root;
  ASSERT_NO_THROW(root = JsonParser(run.chrome).Parse()) << "invalid JSON";
  // The export uses the legacy array form, which chrome://tracing and
  // Perfetto both accept.
  ASSERT_EQ(root.type, JsonValue::Type::kArray);
  const JsonValue* trace_events = &root;
  ASSERT_FALSE(trace_events->items.empty());

  // Span begins/ends must pair up per (tid, name) with B before E, and
  // flow steps must use the s -> t -> f phases with a shared id.
  std::map<std::string, int> open_spans;   // "tid/name" -> depth.
  std::map<std::string, int> flow_phases;  // flow id -> count per phase.
  std::set<std::string> flow_ids;
  bool seen_binding_enclosing = false;
  for (const JsonValue& entry : trace_events->items) {
    ASSERT_EQ(entry.type, JsonValue::Type::kObject);
    const JsonValue* ph = entry.Find("ph");
    const JsonValue* name = entry.Find("name");
    const JsonValue* ts = entry.Find("ts");
    const JsonValue* pid = entry.Find("pid");
    const JsonValue* tid = entry.Find("tid");
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(name, nullptr);
    ASSERT_NE(ts, nullptr);
    ASSERT_NE(pid, nullptr);
    ASSERT_NE(tid, nullptr);
    const std::string key = tid->scalar + "/" + name->scalar;
    if (ph->scalar == "B") {
      ++open_spans[key];
    } else if (ph->scalar == "E") {
      ASSERT_GT(open_spans[key], 0) << "E without B for " << key;
      --open_spans[key];
    } else if (ph->scalar == "s" || ph->scalar == "t" || ph->scalar == "f") {
      const JsonValue* id = entry.Find("id");
      ASSERT_NE(id, nullptr) << "flow event without id";
      flow_ids.insert(id->scalar);
      ++flow_phases[id->scalar + ph->scalar];
      if (ph->scalar == "f") {
        const JsonValue* bp = entry.Find("bp");
        ASSERT_NE(bp, nullptr);
        EXPECT_EQ(bp->scalar, "e");
        seen_binding_enclosing = true;
      }
    } else {
      EXPECT_TRUE(ph->scalar == "i" || ph->scalar == "M") << ph->scalar;
    }
  }
  for (const auto& [key, depth] : open_spans) {
    EXPECT_EQ(depth, 0) << "unclosed span " << key;
  }
  // At least one flow threads a start and a finish (the mic's causal
  // chain crosses from the world to clients and the AP).
  ASSERT_FALSE(flow_ids.empty());
  bool complete_flow = false;
  for (const std::string& id : flow_ids) {
    if (flow_phases[id + "s"] == 1 && flow_phases[id + "f"] == 1) {
      complete_flow = true;
    }
  }
  EXPECT_TRUE(complete_flow);
  EXPECT_TRUE(seen_binding_enclosing);
}

TEST(FlightRecorder, KindFilteredCaptureKeepsExactCounts) {
  // Run the mic scenario twice: once unfiltered, once recording only the
  // protocol-level kinds.  The exact per-kind counts must agree — the
  // Wants()/CountSkipped() fast path is accounting-equivalent to a full
  // Append of a filtered-out record.
  EventTrace full;
  EventTraceOptions filtered_options;
  filtered_options.only = {TraceEventKind::kSpanBegin,
                           TraceEventKind::kSpanEnd,
                           TraceEventKind::kStateEnter,
                           TraceEventKind::kChirp};
  EventTrace filtered(filtered_options);

  for (EventTrace* trace : {&full, &filtered}) {
    WorldConfig world_config;
    world_config.obs.trace = trace;
    World world(world_config);
    const SpectrumMap map = Building5Map();
    const Channel main{IndexOfTvChannel(28), ChannelWidth::kW20};
    const Channel backup{IndexOfTvChannel(39), ChannelWidth::kW5};
    ApParams ap_params;
    ap_params.scanner = FastScanner();
    ApNode& ap =
        world.Create<ApNode>(NodeAt(0, 0, map), ap_params, main, backup);
    ClientParams client_params;
    client_params.scanner = FastScanner();
    ClientNode& client = world.Create<ClientNode>(
        NodeAt(50.0, 40.0, map), client_params, main, backup, ap.NodeId());
    SaturatedSource downlink(ap, client.NodeId(), 1000);
    world.StartAll();
    downlink.Start();
    world.SetMicSchedule(
        {{IndexOfTvChannel(28), 4.0 * kSecond, 120.0 * kSecond}});
    world.RunFor(8.0);
  }

  EXPECT_EQ(full.TotalSeen(), filtered.TotalSeen());
  for (int k = 0; k < kNumTraceEventKinds; ++k) {
    const auto kind = static_cast<TraceEventKind>(k);
    EXPECT_EQ(full.CountOf(kind), filtered.CountOf(kind))
        << TraceEventKindName(kind);
  }
  // The filtered buffer holds only the wanted kinds.
  for (const TraceEvent& e : filtered.events()) {
    EXPECT_TRUE(filtered.Wants(e.kind)) << TraceEventKindName(e.kind);
  }
  EXPECT_LT(filtered.events().size(), full.events().size());
}

}  // namespace
}  // namespace whitefi
