// EventTrace — typed, structured simulation events.
//
// The simulator's one trace system: every interesting protocol moment is
// a typed record keyed on simulated time — frame TX/RX/drop, MAC backoff and
// retry, channel switches, incumbent (mic) appearances, chirps, discovery
// probes.  Records serialize as JSONL (one JSON object per line, exact
// round-trip via ReadJsonl) and as the Chrome trace-event format, so a run
// can be dropped straight into chrome://tracing with one timeline row per
// node.
//
// The trace is attached through WorldConfig (see Observability in
// obs/obs.h); a null trace pointer costs instrumentation sites one branch.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace whitefi {

/// What happened.
enum class TraceEventKind {
  kFrameTx = 0,      ///< A transmission completed on air.
  kFrameRx,          ///< A frame was decoded and delivered at a node.
  kFrameDrop,        ///< A frame was lost (SINR failure / retry limit).
  kMacBackoff,       ///< A MAC drew a fresh backoff for a frame.
  kMacRetry,         ///< A unicast attempt timed out and will be retried.
  kChannelSwitch,    ///< A node retuned its main radio.
  kIncumbentOn,      ///< An incumbent (wireless mic) switched on.
  kIncumbentOff,     ///< An incumbent switched off.
  kChirp,            ///< A disconnection chirp was sent or heard.
  kDiscoveryProbe,   ///< A discovery scan probe (SIFT dwell / beacon listen).
  kFaultInjected,    ///< A fault-injection point fired (see src/fault).
  kFaultCleared,     ///< A windowed fault ended / burst state recovered.
  kInvariantViolation,  ///< The InvariantAuditor flagged a violation.
  kNote,             ///< Free-form milestone.
  kSpanBegin,        ///< A causal span opened (detail = span name).
  kSpanEnd,          ///< A causal span closed (same span_id as the begin).
  kStateEnter,       ///< A node entered a protocol state (detail = state).
  kGeoDbDegraded,    ///< A geo-db session fell back to conservative data.
  kGeoDbRecovered,   ///< A geo-db session returned to fresh data.
};

inline constexpr int kNumTraceEventKinds = 19;

/// Stable wire name, e.g. "frame_tx".
const char* TraceEventKindName(TraceEventKind kind);

/// Inverse of TraceEventKindName; nullopt for unknown names.
std::optional<TraceEventKind> ParseTraceEventKind(std::string_view name);

/// One structured record.  Unused fields keep their defaults and are
/// omitted from the JSONL encoding.
struct TraceEvent {
  std::int64_t at_us = 0;  ///< Simulated time, microsecond ticks.
  TraceEventKind kind = TraceEventKind::kNote;
  int node = -1;           ///< Acting node id (-1: the world itself).
  int src = -1;            ///< Frame source (frame events).
  int dst = -1;            ///< Frame destination (-1 = broadcast).
  int bytes = 0;           ///< Frame size / event magnitude.
  // Causal identifiers (0 = unset).  A span is a named interval on one
  // node (kSpanBegin/kSpanEnd share span_id; parent_span nests child
  // phases under it).  A flow threads one causal chain across nodes —
  // e.g. mic-on -> client disconnect -> chirps -> AP rescue -> reconnect
  // all carry the same flow_id, and the Chrome export renders the chain
  // as arrows.  Ids come from World::NextTraceId (deterministic).
  std::int64_t span_id = 0;
  std::int64_t parent_span = 0;
  std::int64_t flow_id = 0;
  std::string frame_type;  ///< FrameTypeName for frame events, else empty.
  std::string detail;      ///< Channel string or free text.

  bool operator==(const TraceEvent&) const = default;
};

/// Capture options.
struct EventTraceOptions {
  /// Record cap: recording stops there.  Per-kind counts stay exact
  /// beyond it.
  std::size_t max_events = 1 << 20;
  /// Kinds to record; empty = all.  Counts still include filtered kinds.
  std::vector<TraceEventKind> only;
};

/// The trace buffer.
class EventTrace {
 public:
  explicit EventTrace(const EventTraceOptions& options = {});

  /// Appends one record (subject to the kind filter and the cap).
  void Append(TraceEvent event);

  /// True when the kind filter admits `kind`.  Hot instrumentation sites
  /// check this before building detail strings; when it returns false
  /// they call CountSkipped instead, which keeps the exact per-kind
  /// counts identical to a full Append of a filtered-out event.
  bool Wants(TraceEventKind kind) const {
    const auto index = static_cast<std::size_t>(kind);
    return index < wants_.size() && wants_[index];
  }

  /// Accounts for an event of `kind` that a hot site chose not to build
  /// because Wants(kind) is false.  Equivalent to Append for counting.
  void CountSkipped(TraceEventKind kind) {
    ++total_;
    const auto index = static_cast<std::size_t>(kind);
    if (index < counts_.size()) ++counts_[index];
  }

  /// Records held: the first `max_events` the filter admitted.
  const std::deque<TraceEvent>& events() const { return events_; }

  /// Number of events offered to Append since construction (exact, not
  /// affected by the cap or the kind filter).
  std::size_t TotalSeen() const { return total_; }

  /// Exact per-kind count (also unaffected by cap and filter).
  std::size_t CountOf(TraceEventKind kind) const;

  /// Events of `kind` that passed the filter but arrived after the cap.
  /// Kinds rejected by the filter are not drops: the caller opted out of
  /// them.
  std::size_t DroppedOf(TraceEventKind kind) const;

  /// Total events lost to the cap across all kinds.
  std::size_t TotalDropped() const;

  /// Drops all buffered records and zeroes the counts.
  void Clear();

  /// JSONL: one compact JSON object per line.  When the cap dropped
  /// records, the first line is a `{"meta":"event_trace",...}` header
  /// carrying the per-kind dropped counts so truncation is never silent;
  /// ReadJsonl skips it.
  void WriteJsonl(std::ostream& os) const;
  std::string ToJsonl() const;

  /// Parses WriteJsonl output back into records (exact round-trip).
  /// Skips meta header lines.  Throws std::runtime_error on malformed
  /// lines.
  static std::vector<TraceEvent> ReadJsonl(std::istream& is);

  /// Chrome trace-event format (JSON array, ts in microseconds of
  /// simulated time, one timeline row per node) — loads directly in
  /// chrome://tracing / Perfetto.  kSpanBegin/kSpanEnd become "B"/"E"
  /// duration slices; events with flow_id become flow arrows ("s"/"t"/
  /// "f" steps); everything else stays an instant event.  When the cap
  /// dropped records, a metadata instant event reports the counts.
  void WriteChromeTrace(std::ostream& os) const;

 private:
  EventTraceOptions options_;
  std::deque<TraceEvent> events_;
  std::array<std::size_t, kNumTraceEventKinds> counts_{};
  std::array<std::size_t, kNumTraceEventKinds> dropped_{};
  std::array<bool, kNumTraceEventKinds> wants_{};
  std::size_t total_ = 0;
};

}  // namespace whitefi
