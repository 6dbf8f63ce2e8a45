#include "obs/span.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace whitefi {
namespace {

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool IsApState(const std::string& state) {
  return state == "operating" || state == "collecting" ||
         state == "announcing" || state == "rescuing";
}

/// Per-state overlap of `window` with node's state intervals, derived
/// from its kStateEnter events (chronological).  Aggregated in
/// first-entry order so the chirping phase lists before escalation.
std::vector<RecoveryPhase> PhasesWithin(const std::vector<TraceEvent>& events,
                                        int node, std::int64_t begin_us,
                                        std::int64_t end_us) {
  std::vector<RecoveryPhase> phases;
  auto add = [&phases](const std::string& state, std::int64_t duration) {
    if (duration <= 0) return;
    for (RecoveryPhase& phase : phases) {
      if (phase.state == state) {
        phase.duration_us += duration;
        return;
      }
    }
    phases.push_back({state, duration});
  };
  // Walk the node's state entries; each holds until the next entry.
  const TraceEvent* current = nullptr;
  for (const TraceEvent& e : events) {
    if (e.kind != TraceEventKind::kStateEnter || e.node != node) continue;
    if (current != nullptr) {
      const std::int64_t lo = std::max(current->at_us, begin_us);
      const std::int64_t hi = std::min(e.at_us, end_us);
      add(current->detail, hi - lo);
    }
    current = &e;
  }
  if (current != nullptr) {
    // Final state runs to the end of the window.
    const std::int64_t lo = std::max(current->at_us, begin_us);
    add(current->detail, end_us - lo);
  }
  return phases;
}

}  // namespace

std::vector<Span> BuildSpans(const std::vector<TraceEvent>& events) {
  std::vector<Span> spans;
  std::map<std::int64_t, std::size_t> open;
  for (const TraceEvent& e : events) {
    if (e.kind == TraceEventKind::kSpanBegin) {
      Span span;
      span.id = e.span_id;
      span.parent = e.parent_span;
      span.flow = e.flow_id;
      span.node = e.node;
      span.name = e.detail;
      span.begin_us = e.at_us;
      open[span.id] = spans.size();
      spans.push_back(std::move(span));
    } else if (e.kind == TraceEventKind::kSpanEnd) {
      const auto it = open.find(e.span_id);
      if (it == open.end()) continue;  // End without begin (filtered out).
      spans[it->second].end_us = e.at_us;
      open.erase(it);
    }
  }
  return spans;
}

std::vector<std::vector<TraceEvent>> SplitRuns(
    const std::vector<TraceEvent>& events) {
  std::vector<std::vector<TraceEvent>> runs;
  for (const TraceEvent& e : events) {
    if (runs.empty() || e.at_us < runs.back().back().at_us) {
      runs.emplace_back();
    }
    runs.back().push_back(e);
  }
  return runs;
}

TraceAnalysis AnalyzeTrace(const std::vector<TraceEvent>& events,
                           const AnalyzeOptions& options) {
  TraceAnalysis analysis;
  analysis.spans = BuildSpans(events);

  for (const TraceEvent& e : events) {
    if (e.kind == TraceEventKind::kStateEnter && IsApState(e.detail) &&
        std::find(analysis.ap_nodes.begin(), analysis.ap_nodes.end(),
                  e.node) == analysis.ap_nodes.end()) {
      analysis.ap_nodes.push_back(e.node);
    }
  }
  for (const Span& span : analysis.spans) {
    if (StartsWith(span.name, "ap.") &&
        std::find(analysis.ap_nodes.begin(), analysis.ap_nodes.end(),
                  span.node) == analysis.ap_nodes.end()) {
      analysis.ap_nodes.push_back(span.node);
    }
  }
  std::sort(analysis.ap_nodes.begin(), analysis.ap_nodes.end());

  for (const Span& span : analysis.spans) {
    if (!StartsWith(span.name, "client.recovery")) continue;
    Recovery recovery;
    recovery.span = span;
    const auto slash = span.name.find('/');
    if (slash != std::string::npos) {
      recovery.declared_cause = span.name.substr(slash + 1);
    }
    if (span.Closed()) {
      recovery.phases =
          PhasesWithin(events, span.node, span.begin_us, span.end_us);
    }

    // Root cause.  A flow id is an exact join: the recovery continued the
    // flow the triggering incumbent event opened.
    if (span.flow != 0) {
      for (const TraceEvent& e : events) {
        if (e.kind == TraceEventKind::kIncumbentOn && e.flow_id == span.flow &&
            e.at_us <= span.begin_us) {
          recovery.cause_kind = "incumbent";
          recovery.cause_at_us = e.at_us;
          recovery.cause_detail = e.detail;
        }
      }
    }
    if (recovery.cause_kind == "unknown") {
      // Temporal join: the latest plausible trigger inside the window.
      // A lost-contact disconnect trails its cause by up to the contact
      // timeout plus one check period.
      int best_priority = -1;
      for (const TraceEvent& e : events) {
        if (e.at_us > span.begin_us) break;
        if (e.at_us + options.cause_window_us < span.begin_us) continue;
        int priority = -1;
        const char* kind = nullptr;
        if (e.kind == TraceEventKind::kFaultInjected) {
          priority = 2;
          kind = "fault";
        } else if (e.kind == TraceEventKind::kIncumbentOn) {
          priority = 1;
          kind = "incumbent";
        } else if (e.kind == TraceEventKind::kChannelSwitch &&
                   std::find(analysis.ap_nodes.begin(),
                             analysis.ap_nodes.end(),
                             e.node) != analysis.ap_nodes.end()) {
          priority = 0;
          kind = "ap_switch";
        }
        if (priority < 0) continue;
        if (e.at_us > recovery.cause_at_us ||
            (e.at_us == recovery.cause_at_us && priority > best_priority)) {
          recovery.cause_kind = kind;
          recovery.cause_at_us = e.at_us;
          recovery.cause_detail = e.detail;
          best_priority = priority;
        }
      }
    }
    analysis.recoveries.push_back(std::move(recovery));
  }
  return analysis;
}

double ExactPercentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size())));
  return values[index - 1];
}

}  // namespace whitefi
