#include "obs/event_trace.h"

#include <algorithm>
#include <cstdio>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/number.h"

namespace whitefi {
namespace {

constexpr const char* kKindNames[kNumTraceEventKinds] = {
    "frame_tx",     "frame_rx",     "frame_drop",  "mac_backoff",
    "mac_retry",    "channel_switch", "incumbent_on", "incumbent_off",
    "chirp",        "discovery_probe", "fault_injected", "fault_cleared",
    "invariant_violation", "note", "span_begin", "span_end", "state_enter",
    "geodb_degraded", "geodb_recovered",
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void AppendEventJson(std::ostream& os, const TraceEvent& e) {
  os << "{\"t\":" << e.at_us << ",\"kind\":\"" << TraceEventKindName(e.kind)
     << "\"";
  if (e.node != -1) os << ",\"node\":" << e.node;
  if (e.src != -1) os << ",\"src\":" << e.src;
  if (e.dst != -1) os << ",\"dst\":" << e.dst;
  if (e.bytes != 0) os << ",\"bytes\":" << e.bytes;
  if (e.span_id != 0) os << ",\"span\":" << e.span_id;
  if (e.parent_span != 0) os << ",\"parent\":" << e.parent_span;
  if (e.flow_id != 0) os << ",\"flow\":" << e.flow_id;
  if (!e.frame_type.empty()) {
    os << ",\"frame\":\"" << JsonEscape(e.frame_type) << "\"";
  }
  if (!e.detail.empty()) os << ",\"detail\":\"" << JsonEscape(e.detail) << "\"";
  os << "}";
}

/// Tiny parser for the flat objects AppendEventJson emits.
class LineParser {
 public:
  explicit LineParser(const std::string& line) : s_(line) {}

  TraceEvent Parse() {
    TraceEvent event;
    SkipWs();
    Expect('{');
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return event;
    }
    while (true) {
      SkipWs();
      const std::string key = ParseString();
      SkipWs();
      Expect(':');
      SkipWs();
      if (key == "kind") {
        const std::string name = ParseString();
        const auto kind = ParseTraceEventKind(name);
        if (!kind.has_value()) Fail("unknown kind '" + name + "'");
        event.kind = *kind;
      } else if (key == "frame") {
        event.frame_type = ParseString();
      } else if (key == "detail") {
        event.detail = ParseString();
      } else if (key == "t") {
        ParseInt(event.at_us);
      } else if (key == "node") {
        ParseInt(event.node);
      } else if (key == "src") {
        ParseInt(event.src);
      } else if (key == "dst") {
        ParseInt(event.dst);
      } else if (key == "bytes") {
        ParseInt(event.bytes);
      } else if (key == "span") {
        ParseInt(event.span_id);
      } else if (key == "parent") {
        ParseInt(event.parent_span);
      } else if (key == "flow") {
        ParseInt(event.flow_id);
      } else {
        Fail("unknown key '" + key + "'");
      }
      SkipWs();
      const char c = Next();
      if (c == '}') break;
      if (c != ',') Fail("expected ',' or '}'");
    }
    return event;
  }

 private:
  [[noreturn]] void Fail(const std::string& why) const {
    throw std::runtime_error("bad trace JSONL at column " +
                             std::to_string(pos_) + ": " + why + " in: " + s_);
  }
  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  char Next() {
    if (pos_ >= s_.size()) Fail("unexpected end");
    return s_[pos_++];
  }
  void Expect(char c) {
    if (Next() != c) Fail(std::string("expected '") + c + "'");
  }
  void SkipWs() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t')) ++pos_;
  }
  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      char c = Next();
      if (c == '"') return out;
      if (c == '\\') {
        c = Next();
        switch (c) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'u': {
            int code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = Next();
              code = code * 16 +
                     (h >= '0' && h <= '9'   ? h - '0'
                      : h >= 'a' && h <= 'f' ? h - 'a' + 10
                      : h >= 'A' && h <= 'F' ? h - 'A' + 10
                                             : (Fail("bad \\u escape"), 0));
            }
            out += static_cast<char>(code);
            break;
          }
          default: out += c;
        }
      } else {
        out += c;
      }
    }
  }
  /// Reads the integer at the cursor into `field`, as the field's type.
  template <typename T>
  void ParseInt(T& field) {
    std::string_view token = std::string_view(s_).substr(pos_);
    token = token.substr(0, token.find_first_of(",} \t"));
    if (ParseValue(token, field) != std::errc()) Fail("expected an integer");
    pos_ += token.size();
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

const char* TraceEventKindName(TraceEventKind kind) {
  const auto index = static_cast<std::size_t>(kind);
  return index < kNumTraceEventKinds ? kKindNames[index] : "?";
}

std::optional<TraceEventKind> ParseTraceEventKind(std::string_view name) {
  for (int i = 0; i < kNumTraceEventKinds; ++i) {
    if (name == kKindNames[i]) return static_cast<TraceEventKind>(i);
  }
  return std::nullopt;
}

EventTrace::EventTrace(const EventTraceOptions& options) : options_(options) {
  if (options_.only.empty()) {
    wants_.fill(true);
  } else {
    for (TraceEventKind kind : options_.only) {
      const auto index = static_cast<std::size_t>(kind);
      if (index < wants_.size()) wants_[index] = true;
    }
  }
}

void EventTrace::Append(TraceEvent event) {
  ++total_;
  const auto index = static_cast<std::size_t>(event.kind);
  if (index < counts_.size()) ++counts_[index];
  if (!Wants(event.kind)) return;
  if (events_.size() >= options_.max_events) {
    // Stop-at-cap: the record is wanted but lost.
    if (index < dropped_.size()) ++dropped_[index];
    return;
  }
  events_.push_back(std::move(event));
}

std::size_t EventTrace::CountOf(TraceEventKind kind) const {
  const auto index = static_cast<std::size_t>(kind);
  return index < counts_.size() ? counts_[index] : 0;
}

std::size_t EventTrace::DroppedOf(TraceEventKind kind) const {
  const auto index = static_cast<std::size_t>(kind);
  return index < dropped_.size() ? dropped_[index] : 0;
}

std::size_t EventTrace::TotalDropped() const {
  std::size_t total = 0;
  for (std::size_t n : dropped_) total += n;
  return total;
}

void EventTrace::Clear() {
  events_.clear();
  counts_.fill(0);
  dropped_.fill(0);
  total_ = 0;
}

void EventTrace::WriteJsonl(std::ostream& os) const {
  if (TotalDropped() > 0) {
    // Truncation is never silent: lead with the per-kind dropped counts.
    os << "{\"meta\":\"event_trace\",\"dropped\":" << TotalDropped()
       << ",\"dropped_by_kind\":{";
    bool first = true;
    for (int i = 0; i < kNumTraceEventKinds; ++i) {
      if (dropped_[static_cast<std::size_t>(i)] == 0) continue;
      if (!first) os << ",";
      first = false;
      os << "\"" << kKindNames[i]
         << "\":" << dropped_[static_cast<std::size_t>(i)];
    }
    os << "}}\n";
  }
  for (const TraceEvent& event : events_) {
    AppendEventJson(os, event);
    os << "\n";
  }
}

std::string EventTrace::ToJsonl() const {
  std::ostringstream os;
  WriteJsonl(os);
  return os.str();
}

std::vector<TraceEvent> EventTrace::ReadJsonl(std::istream& is) {
  std::vector<TraceEvent> events;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    if (line.rfind("{\"meta\"", 0) == 0) continue;  // Dropped-count header.
    events.push_back(LineParser(line).Parse());
  }
  return events;
}

void EventTrace::WriteChromeTrace(std::ostream& os) const {
  // One timeline row per node; world-level events (mic transitions) land
  // on row -1 so they bracket everything.  Span begin/end pairs render as
  // "B"/"E" duration slices; any event carrying a flow_id additionally
  // emits a flow step ("s" at the first occurrence of the id, "f" at the
  // last, "t" in between) so causal chains draw as arrows across rows.
  std::map<std::int64_t, std::pair<std::size_t, std::size_t>> flow_span;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const std::int64_t flow = events_[i].flow_id;
    if (flow == 0) continue;
    auto [it, inserted] = flow_span.try_emplace(flow, i, i);
    if (!inserted) it->second.second = i;
  }
  os << "[";
  bool first = true;
  auto begin_record = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };
  if (TotalDropped() > 0) {
    begin_record();
    const std::int64_t ts = events_.empty() ? 0 : events_.front().at_us;
    os << "{\"name\":\"trace_dropped\",\"cat\":\"meta\",\"ph\":\"i\","
          "\"s\":\"g\",\"pid\":0,\"tid\":-1,\"ts\":"
       << ts << ",\"args\":{\"dropped\":" << TotalDropped();
    for (int i = 0; i < kNumTraceEventKinds; ++i) {
      if (dropped_[static_cast<std::size_t>(i)] == 0) continue;
      os << ",\"" << kKindNames[i]
         << "\":" << dropped_[static_cast<std::size_t>(i)];
    }
    os << "}}";
  }
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const TraceEvent& e = events_[i];
    begin_record();
    const bool span_begin = e.kind == TraceEventKind::kSpanBegin;
    const bool span_end = e.kind == TraceEventKind::kSpanEnd;
    os << "{\"name\":\"";
    if (span_begin || span_end) {
      os << (e.detail.empty() ? "span" : JsonEscape(e.detail));
    } else if (!e.frame_type.empty()) {
      os << JsonEscape(e.frame_type) << " " << TraceEventKindName(e.kind);
    } else {
      os << TraceEventKindName(e.kind);
    }
    os << "\",\"cat\":\""
       << (span_begin || span_end ? "span" : TraceEventKindName(e.kind))
       << "\",\"ph\":\""
       << (span_begin ? "B" : span_end ? "E" : "i") << "\"";
    if (!span_begin && !span_end) os << ",\"s\":\"t\"";
    os << ",\"pid\":0,\"tid\":" << e.node << ",\"ts\":" << e.at_us
       << ",\"args\":{";
    bool first_arg = true;
    auto arg = [&](const char* key, const std::string& value, bool quote) {
      if (!first_arg) os << ",";
      first_arg = false;
      os << "\"" << key << "\":";
      if (quote) {
        os << "\"" << JsonEscape(value) << "\"";
      } else {
        os << value;
      }
    };
    if (e.src != -1) arg("src", std::to_string(e.src), false);
    if (e.dst != -1) arg("dst", std::to_string(e.dst), false);
    if (e.bytes != 0) arg("bytes", std::to_string(e.bytes), false);
    if (e.span_id != 0) arg("span", std::to_string(e.span_id), false);
    if (e.parent_span != 0) arg("parent", std::to_string(e.parent_span), false);
    if (e.flow_id != 0) arg("flow", std::to_string(e.flow_id), false);
    if ((span_begin || span_end) && !e.detail.empty()) {
      // Name already carries the detail; skip the redundant arg.
    } else if (!e.detail.empty()) {
      arg("detail", e.detail, true);
    }
    os << "}}";
    if (e.flow_id != 0) {
      const auto [first_idx, last_idx] = flow_span.at(e.flow_id);
      const char* ph = i == first_idx ? "s" : i == last_idx ? "f" : "t";
      begin_record();
      os << "{\"name\":\"flow\",\"cat\":\"flow\",\"ph\":\"" << ph
         << "\",\"id\":" << e.flow_id << ",\"pid\":0,\"tid\":" << e.node
         << ",\"ts\":" << e.at_us;
      if (*ph == 'f') os << ",\"bp\":\"e\"";
      os << "}";
    }
  }
  os << "\n]\n";
}

}  // namespace whitefi
