// trace_lens — root-cause analyzer for WhiteFi flight-recorder traces.
//
// Reads a JSONL event trace (scenario_cli --trace-jsonl, or the
// bench_fig13_churn --trace-jsonl leg), rebuilds the causal spans the
// instrumentation emitted, and answers the question the raw trace can't:
// *why was this recovery slow?*
//
// Usage:
//   trace_lens TRACE.jsonl [--html OUT.html] [--cause-window-ms N]
//
// The trace comes first; the flags after it are parsed by bench/flags.h,
// as in scenario_cli and the bench drivers: `--flag VALUE` or
// `--flag=VALUE`, and --cause-window-ms takes whole ms in [0, INT_MAX].
//
// Output (stdout):
//   * per-node protocol-state summary (total time in each state);
//   * one row per client recovery: when it started, how long it took,
//     the per-phase breakdown (chirp on backup / secondary backup /
//     full sweep), and the root cause — joined by causal flow id when
//     the trigger was an incumbent, by a temporal window otherwise;
//   * aggregate recovery latency and per-phase p50/p95/p99;
//   * the attribution rate (fraction of recoveries with a known cause).
//
// A capture shared by several simulation runs (bench sweeps append every
// adaptive run into one trace) is split at the points where simulated
// time restarts and each run is analyzed on its own, so phase breakdowns
// never mix state intervals from different worlds.
//
// With --html it also writes a self-contained report (inline CSS + SVG,
// no external assets): a state timeline per run with incumbent on/off
// markers, plus the recovery table.
//
// Exit codes: 0 success, 1 runtime failure (an unreadable trace, or an
// --html report that cannot be written, which is then not announced),
// 2 bad flags or a missing operand — same contract as scenario_cli.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "flags.h"
#include "obs/event_trace.h"
#include "obs/span.h"
#include "obs/state_timeline.h"

using namespace whitefi;

namespace {

struct Options {
  std::string trace_path;
  std::string html_path;
  int cause_window_ms = 3000;
  bool help = false;
};

/// Parses argv through bench::ParseFlags, which exits 2 on a flag or value
/// it cannot use.  The trace is the leading operand; the flags follow it.
Options ParseOptions(int argc, char** argv) {
  Options options;
  const bool has_trace = argc > 1 && argv[1][0] != '-';
  if (has_trace) options.trace_path = argv[1];
  bench::ParseFlags(argc - has_trace, argv + has_trace,
                    {bench::Text("--html", options.html_path),
                     bench::Number("--cause-window-ms",
                                   options.cause_window_ms, 0),
                     bench::Switch("--help", options.help),
                     bench::Switch("-h", options.help)});
  if (!has_trace && !options.help) {
    bench::FlagError("missing TRACE.jsonl operand");
  }
  return options;
}

std::string FormatSeconds(std::int64_t us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(us) / 1e6);
  return buf;
}

std::string FormatMs(double us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", us / 1e3);
  return buf;
}

/// One run segment of the capture, fully analyzed.
struct RunView {
  std::vector<TraceEvent> events;
  TraceAnalysis analysis;
  StateTimeline timeline;
};

/// Rebuilds the per-node state timeline from the kStateEnter events the
/// instrumentation mirrors into the trace (identical, by construction,
/// to what a live StateTimeline sink would have recorded).
StateTimeline RebuildTimeline(const std::vector<TraceEvent>& events) {
  StateTimeline timeline;
  std::int64_t last = 0;
  for (const TraceEvent& e : events) {
    last = std::max(last, e.at_us);
    if (e.kind == TraceEventKind::kStateEnter) {
      timeline.Enter(e.at_us, e.node, e.detail);
    }
  }
  timeline.Close(last);
  return timeline;
}

void PrintStateSummary(const std::vector<RunView>& runs) {
  // Merged across runs: per (node, state) total time and visit count.
  std::set<int> nodes;
  std::set<int> aps;
  std::map<int, std::vector<std::string>> order;
  std::map<int, std::map<std::string, std::int64_t>> totals;
  std::map<int, std::map<std::string, int>> visits;
  for (const RunView& run : runs) {
    aps.insert(run.analysis.ap_nodes.begin(), run.analysis.ap_nodes.end());
    for (const StateInterval& iv : run.timeline.intervals()) {
      nodes.insert(iv.node);
      if (totals[iv.node].emplace(iv.state, 0).second) {
        order[iv.node].push_back(iv.state);
      }
      totals[iv.node][iv.state] += iv.DurationUs();
      ++visits[iv.node][iv.state];
    }
  }
  std::cout << "state summary (per node";
  if (runs.size() > 1) std::cout << ", summed over " << runs.size() << " runs";
  std::cout << "):\n";
  for (int node : nodes) {
    std::cout << "  node " << node << (aps.count(node) ? " (ap)" : "") << ":";
    for (const std::string& state : order[node]) {
      std::cout << "  " << state << "=" << FormatSeconds(totals[node][state])
                << "s x" << visits[node][state];
    }
    std::cout << "\n";
  }
}

void PrintRecoveries(const std::vector<RunView>& runs) {
  std::size_t total = 0;
  for (const RunView& run : runs) total += run.analysis.recoveries.size();
  std::cout << "\nrecoveries: " << total << "\n";
  for (std::size_t k = 0; k < runs.size(); ++k) {
    for (const Recovery& r : runs[k].analysis.recoveries) {
      std::cout << "  ";
      if (runs.size() > 1) std::cout << "run " << k << " ";
      std::cout << "node " << r.span.node << " at "
                << FormatSeconds(r.span.begin_us) << "s";
      if (r.span.Closed()) {
        std::cout << " took "
                  << FormatMs(static_cast<double>(r.span.DurationUs()))
                  << "ms";
      } else {
        std::cout << " (never reconnected before trace end)";
      }
      std::cout << " declared=" << r.declared_cause
                << " cause=" << r.cause_kind;
      if (r.cause_at_us >= 0) {
        std::cout << "@" << FormatSeconds(r.cause_at_us) << "s";
      }
      if (!r.cause_detail.empty()) std::cout << " [" << r.cause_detail << "]";
      std::cout << "\n";
      for (const RecoveryPhase& phase : r.phases) {
        std::cout << "    " << phase.state << ": "
                  << FormatMs(static_cast<double>(phase.duration_us))
                  << "ms\n";
      }
    }
  }
}

void PrintAggregates(const std::vector<RunView>& runs) {
  std::vector<double> totals;
  std::map<std::string, std::vector<double>> per_state;
  std::vector<std::string> state_order;
  for (const RunView& run : runs) {
    for (const Recovery& r : run.analysis.recoveries) {
      if (!r.span.Closed()) continue;
      totals.push_back(static_cast<double>(r.span.DurationUs()));
      for (const RecoveryPhase& phase : r.phases) {
        if (per_state.emplace(phase.state, std::vector<double>{}).second) {
          state_order.push_back(phase.state);
        }
        per_state[phase.state].push_back(
            static_cast<double>(phase.duration_us));
      }
    }
  }
  std::cout << "\nrecovery latency (closed recoveries: " << totals.size()
            << "):\n";
  auto row = [](const std::string& label, const std::vector<double>& v) {
    std::cout << "  " << label << ": p50=" << FormatMs(ExactPercentile(v, 50))
              << "ms p95=" << FormatMs(ExactPercentile(v, 95))
              << "ms p99=" << FormatMs(ExactPercentile(v, 99)) << "ms (n="
              << v.size() << ")\n";
  };
  if (!totals.empty()) row("total", totals);
  for (const std::string& state : state_order) {
    row("phase " + state, per_state[state]);
  }
}

void PrintAttribution(const std::vector<RunView>& runs) {
  std::map<std::string, int> by_kind;
  int attributed = 0;
  std::size_t total = 0;
  for (const RunView& run : runs) {
    for (const Recovery& r : run.analysis.recoveries) {
      ++total;
      ++by_kind[r.cause_kind];
      if (r.cause_kind != "unknown") ++attributed;
    }
  }
  std::cout << "\nroot causes:";
  for (const auto& [kind, count] : by_kind) {
    std::cout << "  " << kind << "=" << count;
  }
  std::cout << "\n";
  if (total > 0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f",
                  100.0 * attributed / static_cast<double>(total));
    std::cout << "attributed: " << attributed << "/" << total << " (" << buf
              << "%)\n";
  }
}

// ---------------------------------------------------------------------------
// HTML report: inline CSS + hand-built SVG, no external assets.

std::string EscapeHtml(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

const char* StateColor(const std::string& state) {
  if (state == "connected") return "#4caf50";
  if (state == "chirping") return "#f44336";
  if (state == "scanning") return "#ff9800";
  if (state == "operating") return "#2196f3";
  if (state == "collecting") return "#9c27b0";
  if (state == "announcing") return "#00bcd4";
  if (state == "rescuing") return "#e91e63";
  return "#9e9e9e";
}

void WriteRunSvg(std::ostream& os, const RunView& run) {
  std::int64_t t0 = 0, t1 = 1;
  if (!run.events.empty()) {
    t0 = run.events.front().at_us;
    t1 = t0 + 1;
    for (const TraceEvent& e : run.events) {
      t0 = std::min(t0, e.at_us);
      t1 = std::max(t1, e.at_us);
    }
    for (const StateInterval& iv : run.timeline.intervals()) {
      if (iv.end_us != StateInterval::kOpen) t1 = std::max(t1, iv.end_us);
    }
    if (t1 <= t0) t1 = t0 + 1;
  }
  const double kWidth = 1000.0;
  const int kRowH = 26;
  const int kLeft = 70;
  auto x_of = [&](std::int64_t us) {
    return kLeft + kWidth * static_cast<double>(us - t0) /
                       static_cast<double>(t1 - t0);
  };

  const std::vector<int> nodes = run.timeline.Nodes();
  std::map<int, int> row_of;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    row_of[nodes[i]] = static_cast<int>(i);
  }
  const int height = kRowH * static_cast<int>(nodes.size()) + 40;

  os << "<svg width=\"" << kLeft + kWidth + 10 << "\" height=\"" << height
     << "\" style=\"background:#fff;border:1px solid #ddd\">\n";
  for (int node : nodes) {
    const int y = 20 + row_of[node] * kRowH;
    os << "<text x=\"4\" y=\"" << y + 16 << "\" font-size=\"12\">node "
       << node << "</text>\n";
    for (const StateInterval& iv : run.timeline.intervals()) {
      if (iv.node != node) continue;
      const std::int64_t end =
          iv.end_us == StateInterval::kOpen ? t1 : iv.end_us;
      const double x = x_of(iv.begin_us);
      const double w = std::max(0.5, x_of(end) - x);
      os << "<rect x=\"" << x << "\" y=\"" << y + 4 << "\" width=\"" << w
         << "\" height=\"" << kRowH - 8 << "\" fill=\""
         << StateColor(iv.state) << "\"><title>node " << node << " "
         << EscapeHtml(iv.state) << " " << FormatSeconds(iv.begin_us) << "s-"
         << FormatSeconds(end) << "s</title></rect>\n";
    }
  }
  // Incumbent on/off markers span the whole chart.
  for (const TraceEvent& e : run.events) {
    if (e.kind != TraceEventKind::kIncumbentOn &&
        e.kind != TraceEventKind::kIncumbentOff) {
      continue;
    }
    const double x = x_of(e.at_us);
    const bool on = e.kind == TraceEventKind::kIncumbentOn;
    os << "<line x1=\"" << x << "\" y1=\"10\" x2=\"" << x << "\" y2=\""
       << height - 10 << "\" stroke=\"#000\" stroke-width=\"1\""
       << (on ? "" : " stroke-dasharray=\"3,3\"") << "><title>"
       << (on ? "incumbent on" : "incumbent off") << " @"
       << FormatSeconds(e.at_us) << "s " << EscapeHtml(e.detail)
       << "</title></line>\n";
  }
  os << "</svg>\n";
}

void WriteHtmlReport(std::ostream& os, std::size_t num_events,
                     const std::vector<RunView>& runs) {
  std::size_t num_spans = 0, num_recoveries = 0;
  for (const RunView& run : runs) {
    num_spans += run.analysis.spans.size();
    num_recoveries += run.analysis.recoveries.size();
  }
  os << "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n"
     << "<title>WhiteFi flight recorder</title>\n<style>\n"
     << "body{font-family:sans-serif;margin:20px;background:#fafafa}\n"
     << "h1{font-size:20px}h2{font-size:16px}\n"
     << "table{border-collapse:collapse;font-size:13px}\n"
     << "td,th{border:1px solid #ccc;padding:3px 8px;text-align:left}\n"
     << "th{background:#eee}\n"
     << ".legend span{display:inline-block;margin-right:12px;"
        "font-size:12px}\n"
     << ".legend i{display:inline-block;width:10px;height:10px;"
        "margin-right:4px}\n"
     << "</style></head><body>\n"
     << "<h1>WhiteFi flight recorder</h1>\n"
     << "<p>" << num_events << " events, " << runs.size() << " run"
     << (runs.size() == 1 ? "" : "s") << ", " << num_spans << " spans, "
     << num_recoveries << " client recoveries.</p>\n";

  // Legend over the states that actually appear.
  std::vector<std::string> states_seen;
  for (const RunView& run : runs) {
    for (const StateInterval& iv : run.timeline.intervals()) {
      if (std::find(states_seen.begin(), states_seen.end(), iv.state) ==
          states_seen.end()) {
        states_seen.push_back(iv.state);
      }
    }
  }
  os << "<div class=\"legend\">";
  for (const std::string& state : states_seen) {
    os << "<span><i style=\"background:" << StateColor(state) << "\"></i>"
       << EscapeHtml(state) << "</span>";
  }
  os << "<span><i style=\"background:#000\"></i>incumbent on/off</span>"
     << "</div>\n";

  for (std::size_t k = 0; k < runs.size(); ++k) {
    os << "<h2>State timeline";
    if (runs.size() > 1) os << " — run " << k;
    os << "</h2>\n";
    WriteRunSvg(os, runs[k]);
  }

  os << "<h2>Client recoveries</h2>\n<table>\n<tr>";
  if (runs.size() > 1) os << "<th>run</th>";
  os << "<th>node</th><th>start (s)</th><th>duration (ms)</th>"
     << "<th>declared</th><th>root cause</th><th>cause time (s)</th>"
     << "<th>phases</th></tr>\n";
  for (std::size_t k = 0; k < runs.size(); ++k) {
    for (const Recovery& r : runs[k].analysis.recoveries) {
      os << "<tr>";
      if (runs.size() > 1) os << "<td>" << k << "</td>";
      os << "<td>" << r.span.node << "</td><td>"
         << FormatSeconds(r.span.begin_us) << "</td><td>"
         << (r.span.Closed()
                 ? FormatMs(static_cast<double>(r.span.DurationUs()))
                 : std::string("open"))
         << "</td><td>" << EscapeHtml(r.declared_cause) << "</td><td>"
         << EscapeHtml(r.cause_kind)
         << (r.cause_detail.empty()
                 ? std::string()
                 : " (" + EscapeHtml(r.cause_detail) + ")")
         << "</td><td>"
         << (r.cause_at_us >= 0 ? FormatSeconds(r.cause_at_us)
                                : std::string("-"))
         << "</td><td>";
      for (std::size_t i = 0; i < r.phases.size(); ++i) {
        if (i) os << "; ";
        os << EscapeHtml(r.phases[i].state) << " "
           << FormatMs(static_cast<double>(r.phases[i].duration_us)) << "ms";
      }
      os << "</td></tr>\n";
    }
  }
  os << "</table>\n</body></html>\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = ParseOptions(argc, argv);
  if (options.help) {
    std::cout << "usage: trace_lens TRACE.jsonl [--html OUT.html] "
                 "[--cause-window-ms N]\n"
                 "flags take --flag VALUE or --flag=VALUE\n"
                 "exit codes: 0 success, 1 runtime failure (unreadable "
                 "trace, unwritable report), 2 bad flags\n";
    return 0;
  }

  try {
    std::ifstream in(options.trace_path);
    if (!in) {
      std::cerr << "error: cannot open " << options.trace_path << "\n";
      return 1;
    }
    const std::vector<TraceEvent> events = EventTrace::ReadJsonl(in);

    AnalyzeOptions analyze_options;
    analyze_options.cause_window_us =
        std::int64_t{options.cause_window_ms} * 1000;
    std::vector<RunView> runs;
    for (std::vector<TraceEvent>& segment : SplitRuns(events)) {
      RunView run;
      run.events = std::move(segment);
      run.analysis = AnalyzeTrace(run.events, analyze_options);
      run.timeline = RebuildTimeline(run.events);
      runs.push_back(std::move(run));
    }

    std::cout << "trace: " << options.trace_path << " (" << events.size()
              << " events, " << runs.size() << " run"
              << (runs.size() == 1 ? "" : "s") << ")\n";
    PrintStateSummary(runs);
    PrintRecoveries(runs);
    PrintAggregates(runs);
    PrintAttribution(runs);

    if (!options.html_path.empty()) {
      if (!bench::WriteOutput("html report", options.html_path,
                              [&](std::ostream& os) {
                                WriteHtmlReport(os, events.size(), runs);
                              })) {
        return 1;
      }
      std::cout << "\nhtml report written to " << options.html_path << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
