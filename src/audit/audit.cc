#include "audit/audit.h"

#include <algorithm>
#include <sstream>

#include "sim/medium.h"
#include "util/log.h"

namespace whitefi {

std::string Violation::ToString() const {
  std::ostringstream os;
  os << "[" << at << "us] " << invariant << " node=" << node
     << " ch=" << channel << ": " << detail;
  return os.str();
}

bool AuditBook::Advance(SimTime now) {
  if (now < clock_) return false;
  clock_ = now;
  return true;
}

void AuditBook::AddTransmission(SimTime start, const Channel& channel,
                                SimTime duration) {
  for (UhfIndex c = channel.Low(); c <= channel.High(); ++c) {
    unions_[static_cast<std::size_t>(c)].Add(start, start + duration);
  }
}

SimTime AuditBook::BusyAt(UhfIndex c, SimTime now) const {
  return unions_[static_cast<std::size_t>(c)].BusyAt(now);
}

void AuditBook::SetTune(SimTime now, int node, const Channel& channel) {
  tunes_[node] = Tune{channel, now};
}

const AuditBook::Tune* AuditBook::TuneOf(int node) const {
  const auto it = tunes_.find(node);
  return it == tunes_.end() ? nullptr : &it->second;
}

InvariantAuditor::InvariantAuditor(const AuditConfig& config, AuditBook* book)
    : config_(config), book_(book != nullptr ? book : &own_book_) {}

void InvariantAuditor::Attach(World& world) {
  world_ = &world;
  safety_budget_ = config_.safety_budget != 0
                       ? config_.safety_budget
                       : world.config().incumbent_detect_latency +
                             config_.safety_vacate_slack;
  world.sim().ScheduleAfter(config_.sweep_interval, [this] { Sweep(); });
}

void InvariantAuditor::RegisterAp(int node) { ap_node_ = node; }

void InvariantAuditor::SetGeoTruth(const GeoTruth* truth,
                                   SimTime suggested_budget) {
  geo_truth_ = truth;
  geo_since_.clear();
  if (truth == nullptr) {
    geo_budget_ = 0;
    return;
  }
  geo_budget_ =
      config_.geo_budget != 0 ? config_.geo_budget : suggested_budget;
}

void InvariantAuditor::RegisterClient(int node, const ClientParams& params) {
  ClientState state;
  // The widest legal chirp gap: the (possibly backed-off) period at its
  // maximum, stretched by the jitter's upper edge, plus slack.  Chirp()
  // always reschedules itself while disconnected, so the gap between
  // successive chirp *queueings* is bounded by this regardless of MAC
  // contention.
  const SimTime period =
      params.chirp_backoff ? params.chirp_interval_max : params.chirp_interval;
  state.chirp_bound =
      static_cast<SimTime>(static_cast<double>(period) *
                           (1.0 + params.chirp_jitter)) +
      config_.liveness_slack;
  // A connected client that misses every beacon still declares
  // disconnection within contact_timeout (+ one check interval), so its
  // channel view cannot lag the AP's longer than that while "connected".
  state.convergence_budget =
      config_.convergence_budget != 0
          ? config_.convergence_budget
          : params.contact_timeout + 2 * params.contact_check_interval +
                1 * kTicksPerSec;
  clients_[node] = state;
}

void InvariantAuditor::Report(SimTime at, const char* invariant, int node,
                              int channel, std::string detail) {
  ++violation_count_;
  if (violations_.size() < config_.max_recorded) {
    violations_.push_back(Violation{at, invariant, node, channel, detail});
  }
  WHITEFI_LOG_TAGGED(LogLevel::kError, "audit")
      << invariant << " node=" << node << " ch=" << channel << ": " << detail;
  if (world_ != nullptr) {
    if (EventTrace* trace = world_->trace(); trace != nullptr) {
      TraceEvent event;
      event.at_us = at;
      event.kind = TraceEventKind::kInvariantViolation;
      event.node = node;
      event.bytes = channel;
      event.detail = std::string(invariant) + ": " + detail;
      trace->Append(std::move(event));
    }
  }
}

void InvariantAuditor::CheckMonotonic(SimTime now, const char* where) {
  const SimTime last = book_->clock();
  if (!book_->Advance(now)) ReportClockBackwards(now, last, where);
}

void InvariantAuditor::ReportClockBackwards(SimTime now, SimTime last,
                                            const char* where) {
  std::ostringstream os;
  os << where << " at " << now << " after " << last;
  Report(now, "monotonicity", -1, -1, os.str());
}

bool InvariantAuditor::Audits(int node) const {
  return node == ap_node_ || clients_.find(node) != clients_.end();
}

void AuditBook::ChannelUnion::Add(SimTime start, SimTime end) {
  if (!open) {
    seg_start = start;
    seg_end = end;
    open = true;
    return;
  }
  if (start > seg_end) {
    closed += seg_end - seg_start;
    seg_start = start;
    seg_end = end;
    return;
  }
  seg_end = std::max(seg_end, end);
}

SimTime AuditBook::ChannelUnion::BusyAt(SimTime now) const {
  if (!open) return closed;
  return closed + std::max<SimTime>(0, std::min(now, seg_end) - seg_start);
}

void InvariantAuditor::OnTransmitStart(SimTime now, const RadioPort& tx,
                                       const Channel& channel,
                                       SimTime duration) {
  CheckMonotonic(now, "transmit");
  book_->AddTransmission(now, channel, duration);
  CheckTransmission(now, tx.NodeId(), channel);
}

void InvariantAuditor::CheckTransmission(SimTime now, int node,
                                         const Channel& channel) {
  if (!Audits(node)) return;
  if (world_ != nullptr) {
    for (UhfIndex c = channel.Low(); c <= channel.High(); ++c) {
      const auto since = world_->MicAudibleOnSince(c, node);
      if (!since.has_value()) continue;
      // The clock starts at the later of mic-on and the node's arrival on
      // this channel: a node landing on a channel whose mic predates it
      // still gets a full detection window.
      SimTime exposed = *since;
      if (const AuditBook::Tune* tune = book_->TuneOf(node); tune != nullptr) {
        exposed = std::min(exposed, now - tune->at);
      }
      if (exposed > safety_budget_) {
        std::ostringstream os;
        os << "tx over mic active+audible for " << exposed
           << "us (budget " << safety_budget_ << "us)";
        Report(now, "incumbent-safety", node, c, os.str());
      }
    }
  }
  // The geometric check runs off its own clock set: ground truth at the
  // node's current position, independent of any scheduled world mic.
  if (geo_truth_ == nullptr) return;
  for (UhfIndex c = channel.Low(); c <= channel.High(); ++c) {
    const SimTime exposed = GeoExposure(now, node, c);
    if (exposed > geo_budget_) {
      std::ostringstream os;
      os << "tx on geo-protected channel for " << exposed
         << "us at current position (geo budget " << geo_budget_ << "us)";
      Report(now, "incumbent-safety", node, c, os.str());
      // Re-arm: one violation per budget of continued exposure.
      geo_since_[{node, static_cast<int>(c)}] = now;
    }
  }
}

SimTime InvariantAuditor::GeoExposure(SimTime now, int node, UhfIndex channel) {
  const std::pair<int, int> key{node, static_cast<int>(channel)};
  if (!geo_truth_->ProtectedAt(node, channel, now)) {
    geo_since_.erase(key);
    return 0;
  }
  const auto [it, inserted] = geo_since_.emplace(key, now);
  SimTime exposed = now - it->second;
  // Like the mic check, the clock starts no earlier than the node's
  // arrival on the channel: a node that just retuned gets a full window.
  if (const AuditBook::Tune* tune = book_->TuneOf(node); tune != nullptr) {
    exposed = std::min(exposed, now - tune->at);
  }
  return exposed;
}

void InvariantAuditor::SweepGeoClocks(SimTime now) {
  auto sweep_node = [&](int node) {
    const AuditBook::Tune* tune = book_->TuneOf(node);
    if (tune == nullptr) return;
    for (UhfIndex c = tune->channel.Low(); c <= tune->channel.High(); ++c) {
      GeoExposure(now, node, c);  // Maintains the clocks; no report here.
    }
  };
  if (ap_node_ >= 0) sweep_node(ap_node_);
  for (const auto& [node, state] : clients_) sweep_node(node);
}

void InvariantAuditor::OnMacTiming(const RadioPort& radio,
                                   const PhyTiming& timing) {
  // Internal consistency at any width...
  const Us difs = timing.Sifs() + 2.0 * timing.Slot();
  if (timing.Difs() != difs) {
    std::ostringstream os;
    os << "DIFS " << timing.Difs() << " != SIFS+2*slot " << difs;
    Report(book_->clock(), "mac-timing", radio.NodeId(), -1, os.str());
  }
  // ...and agreement with the width the radio is actually tuned to.  The
  // device updates its channel before reprogramming the MAC, so a mismatch
  // means a stale-timing bug (a MAC contending with wrong-width DIFS).
  const ChannelWidth tuned = radio.TunedChannel().width;
  if (timing.width() != tuned) {
    std::ostringstream os;
    os << "timing width " << WidthMHz(timing.width()) << "MHz but tuned "
       << WidthMHz(tuned) << "MHz";
    Report(book_->clock(), "mac-timing", radio.NodeId(),
           radio.TunedChannel().Low(), os.str());
  }
}

void InvariantAuditor::OnNodeTuned(SimTime now, int node,
                                   const Channel& channel) {
  CheckMonotonic(now, "tune");
  book_->SetTune(now, node, channel);
}

void InvariantAuditor::OnClientDisconnected(SimTime now, int node) {
  CheckMonotonic(now, "disconnect");
  NoteDisconnected(now, node);
}

void InvariantAuditor::OnClientReconnected(SimTime now, int node) {
  CheckMonotonic(now, "reconnect");
  NoteReconnected(node);
}

void InvariantAuditor::OnChirp(SimTime now, int node) {
  CheckMonotonic(now, "chirp");
  NoteChirp(now, node);
}

void InvariantAuditor::NoteDisconnected(SimTime now, int node) {
  const auto it = clients_.find(node);
  if (it == clients_.end()) return;
  it->second.connected = false;
  it->second.disconnected_at = now;
  it->second.last_chirp = now;
  it->second.mismatch_since = -1;
}

void InvariantAuditor::NoteReconnected(int node) {
  const auto it = clients_.find(node);
  if (it == clients_.end()) return;
  it->second.connected = true;
  it->second.mismatch_since = -1;
}

void InvariantAuditor::NoteChirp(SimTime now, int node) {
  const auto it = clients_.find(node);
  if (it == clients_.end()) return;
  it->second.last_chirp = now;
}

void InvariantAuditor::Sweep() {
  const SimTime now = world_->sim().Now();
  CheckMonotonic(now, "sweep");
  CheckLiveness(now);
  CheckConvergence(now);
  if (geo_truth_ != nullptr) SweepGeoClocks(now);
  if (config_.check_books) CheckBooks(now);
  world_->sim().ScheduleAfter(config_.sweep_interval, [this] { Sweep(); });
}

void InvariantAuditor::CheckLiveness(SimTime now) {
  for (auto& [node, state] : clients_) {
    if (state.connected) continue;
    const SimTime gap = now - std::max(state.disconnected_at, state.last_chirp);
    if (gap > state.chirp_bound) {
      std::ostringstream os;
      os << "disconnected and silent for " << gap << "us (chirp bound "
         << state.chirp_bound << "us)";
      Report(now, "chirp-liveness", node, -1, os.str());
      // Re-arm so a stuck client produces one violation per bound, not
      // one per sweep.
      state.last_chirp = now;
    }
  }
}

void InvariantAuditor::CheckConvergence(SimTime now) {
  if (ap_node_ < 0) return;
  const AuditBook::Tune* ap_tune = book_->TuneOf(ap_node_);
  if (ap_tune == nullptr) return;
  const Channel& ap_channel = ap_tune->channel;
  for (auto& [node, state] : clients_) {
    if (!state.connected) {
      state.mismatch_since = -1;
      continue;
    }
    const AuditBook::Tune* tune = book_->TuneOf(node);
    if (tune == nullptr) continue;
    const Channel& channel = tune->channel;
    if (channel == ap_channel) {
      state.mismatch_since = -1;
      continue;
    }
    if (state.mismatch_since < 0) {
      state.mismatch_since = now;
      continue;
    }
    if (now - state.mismatch_since > state.convergence_budget) {
      std::ostringstream os;
      os << "connected on " << channel.ToString() << " but AP on "
         << ap_channel.ToString() << " for " << now - state.mismatch_since
         << "us";
      Report(now, "convergence", node, channel.Low(), os.str());
      state.mismatch_since = now;  // Re-arm (one violation per budget).
    }
  }
}

void InvariantAuditor::CheckBooks(SimTime now) {
  for (UhfIndex c = 0; c < kNumUhfChannels; ++c) {
    const Us busy = world_->medium().ChannelBooksAt(c).busy;
    // ToUs is exact for integer ticks and the medium's busy sum is a sum
    // of integer-valued doubles, so the comparison is exact, not epsilon.
    const Us expected = ToUs(book_->BusyAt(c, now));
    if (busy != expected) {
      std::ostringstream os;
      os << "medium busy book " << busy
         << "us != interval-union reference " << expected << "us";
      Report(now, "book-conservation", -1, c, os.str());
    }
  }
}

}  // namespace whitefi
