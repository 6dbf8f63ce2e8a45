#include "core/ap.h"

#include <algorithm>

#include "util/log.h"

namespace whitefi {

ApNode::ApNode(World& world, int id, const DeviceConfig& device_config,
               const ApParams& params, Channel initial_main,
               Channel initial_backup)
    : Device(world, id, [&] {
        DeviceConfig c = device_config;
        c.is_ap = true;
        c.initial_channel = initial_main;
        return c;
      }()),
      params_(params),
      assigner_(params.assignment),
      scanner_(*this, params.scanner),
      main_(initial_main),
      backup_(initial_backup) {}

void ApNode::Start() {
  world_.RecordState(NodeId(), "operating");
  scanner_.StartSweep();
  scanner_.StartChirpWatch(backup_, ssid(),
                           [this](const ChirpInfo& info, const Channel& on) {
                             OnChirpHeard(info, on);
                           });
  UpdateSecondaryWatch();
  SendBeacon();
  if (params_.adaptive) {
    world_.sim().ScheduleAfter(params_.first_assignment_delay,
                               [this] { EvaluateAssignment(); });
  }
  SampleRate();
}

void ApNode::SampleRate() {
  rate_samples_.emplace_back(world_.sim().Now(),
                             world_.AppBytesInSsid(ssid()));
  if (rate_samples_.size() > 64) {
    rate_samples_.erase(rate_samples_.begin(), rate_samples_.begin() + 32);
  }
  world_.sim().ScheduleAfter(kTicksPerSec, [this] { SampleRate(); });
}

void ApNode::SendBeacon() {
  world_.sim().ScheduleAfter(params_.beacon_interval, [this] { SendBeacon(); });
  // Beacons are time-critical and must not pile up behind a data backlog:
  // jump the queue, and skip this interval if one is still waiting.
  if (mac().CountQueued(FrameType::kBeacon) > 0) return;
  Frame beacon;
  beacon.type = FrameType::kBeacon;
  beacon.dst = kBroadcastId;
  beacon.bytes = kBeaconBytes;
  beacon.payload = BeaconInfo{main_, backup_, ssid()};
  mac().EnqueueFront(beacon);
}

void ApNode::OnFrameReceived(const Frame& frame, Dbm) {
  if (frame.type == FrameType::kReport) {
    if (const auto* report = std::get_if<ReportInfo>(&frame.payload)) {
      ClientInfo& info = clients_[frame.src];
      info.map = report->map;
      info.observation = report->observation;
      info.last_seen = world_.sim().Now();
    }
  } else if (frame.type == FrameType::kChirp) {
    // Main radio happened to be on the chirp channel (e.g. while
    // collecting on the backup channel) — treat like the scanner path.
    if (const auto* chirp = std::get_if<ChirpInfo>(&frame.payload)) {
      if (chirp->ssid == ssid()) OnChirpHeard(*chirp, TunedChannel());
    }
  }
}

AssignmentInputs ApNode::BuildInputs() {
  ExpireClients();
  AssignmentInputs inputs;
  inputs.ap_map = ObservedMap();
  inputs.ap_observation = scanner_.Observation();
  for (const auto& [id, info] : clients_) {
    inputs.client_maps.push_back(info.map);
    inputs.client_observations.push_back(info.observation);
  }
  return inputs;
}

void ApNode::ExpireClients() {
  const SimTime now = world_.sim().Now();
  for (auto it = clients_.begin(); it != clients_.end();) {
    it = now - it->second.last_seen > params_.client_expiry
             ? clients_.erase(it)
             : std::next(it);
  }
}

double ApNode::RecentThroughputBps(SimTime window) const {
  if (rate_samples_.empty()) return 0.0;
  const SimTime now = world_.sim().Now();
  const std::uint64_t bytes_now = world_.AppBytesInSsid(ssid());
  // Find the newest sample at least `window` old.
  const auto it = std::find_if(
      rate_samples_.rbegin(), rate_samples_.rend(),
      [&](const auto& s) { return now - s.first >= window; });
  const auto& base = it == rate_samples_.rend() ? rate_samples_.front() : *it;
  const SimTime elapsed = now - base.first;
  if (elapsed <= 0) return 0.0;
  return 8.0 * static_cast<double>(bytes_now - base.second) /
         ToSeconds(elapsed);
}

void ApNode::EvaluateAssignment() {
  world_.sim().ScheduleAfter(params_.assignment_interval,
                             [this] { EvaluateAssignment(); });
  if (state_ != State::kOperating || announce_pending_) return;

  const AssignmentInputs inputs = BuildInputs();
  const AssignmentDecision decision = [&] {
    ScopedPhaseTimer timer(world_.profiler(), "mcham.evaluate");
    return assigner_.Reevaluate(inputs, main_);
  }();
  last_metric_ = decision.metric;
  MetricsRegistry::Set(world_.metrics(), "whitefi.ap.last_metric",
                       last_metric_);
  if (!decision.channel.has_value()) return;
  if (!decision.switched) {
    // Keep the backup channel fresh (it may have been lost to a mic).
    if (!inputs.CombinedMap().CanUse(backup_)) {
      if (const auto backup = assigner_.SelectBackup(inputs, main_)) {
        backup_ = *backup;
        scanner_.SetChirpChannel(backup_);
        UpdateSecondaryWatch();
      }
    }
    return;
  }

  const Channel next = *decision.channel;
  const auto next_backup = assigner_.SelectBackup(inputs, next);
  ++voluntary_switches_;
  MetricsRegistry::Count(world_.metrics(), "whitefi.ap.voluntary_switches");
  revert_channel_ = main_;
  revert_backup_ = backup_;
  pre_switch_rate_bps_ = RecentThroughputBps(params_.revert_check_delay);
  revert_armed_ = pre_switch_rate_bps_ > 0.0;
  // Flight recorder: the MCham decision chain (scan -> scoring ->
  // switch) as one episode span, closed when the switch applies.
  BeginEpisode("ap.assignment", world_.NextTraceId());
  if (world_.trace() != nullptr) {
    TraceEvent note;
    note.kind = TraceEventKind::kNote;
    note.node = NodeId();
    note.span_id = episode_span_;
    note.flow_id = episode_flow_;
    note.detail = "mcham switch -> " + next.ToString() +
                  " metric=" + std::to_string(decision.metric);
    world_.TraceEventNow(std::move(note));
  }
  AnnounceAndSwitch(next, next_backup.value_or(backup_), /*voluntary=*/true);
}

void ApNode::AnnounceAndSwitch(const Channel& next_main,
                               const Channel& next_backup, bool voluntary) {
  if (!params_.adaptive || announce_pending_) return;
  announce_pending_ = true;
  announces_outstanding_ = params_.switch_announces;
  pending_main_ = next_main;
  pending_backup_ = next_backup;
  pending_voluntary_ = voluntary;
  announce_span_ = world_.NextTraceId();
  world_.TraceSpanBegin(NodeId(), announce_span_, episode_span_,
                        episode_flow_, "ap.announce");
  world_.RecordState(NodeId(), "announcing");

  Frame announce;
  announce.type = FrameType::kChannelSwitch;
  announce.dst = kBroadcastId;
  announce.bytes = kBeaconBytes;
  announce.payload = ChannelSwitchInfo{next_main, next_backup};
  for (int i = 0; i < params_.switch_announces; ++i) {
    world_.sim().ScheduleAfter(
        static_cast<SimTime>(i) * params_.switch_announce_gap,
        [this, announce] {
          if (announce_pending_) mac().EnqueueFront(announce);
        });
  }
  // Fallback: never hold the switch longer than the cap (a retune clears
  // the MAC queue, so unsent copies would be lost anyway).
  announce_timer_ = world_.sim().ScheduleAfter(
      params_.switch_announce_max_wait, [this] {
        announce_timer_ = kInvalidEventId;
        if (announce_pending_) ApplyPendingSwitch();
      });
}

void ApNode::OnSendComplete(const Frame& frame, bool) {
  if (frame.type != FrameType::kChannelSwitch || !announce_pending_) return;
  if (--announces_outstanding_ > 0) return;
  world_.sim().Cancel(announce_timer_);
  announce_timer_ = kInvalidEventId;
  // Give receivers a beat to process, then move.
  world_.sim().ScheduleAfter(5 * kTicksPerMs, [this] {
    if (announce_pending_) ApplyPendingSwitch();
  });
}

void ApNode::ApplyPendingSwitch() {
  announce_pending_ = false;
  main_ = pending_main_;
  backup_ = pending_backup_;
  ++switches_;
  MetricsRegistry::Count(world_.metrics(), "whitefi.ap.switches");
  state_ = State::kOperating;
  if (announce_span_ != 0) {
    world_.TraceSpanEnd(NodeId(), announce_span_, 0, "ap.announce");
    announce_span_ = 0;
  }
  scanner_.SetChirpChannel(backup_);
  UpdateSecondaryWatch();
  SwitchChannel(main_);
  EndEpisode();
  world_.RecordState(NodeId(), "operating");
  WHITEFI_LOG_TAGGED(LogLevel::kInfo, "core/ap" + std::to_string(NodeId()))
      << "now on " << main_.ToString() << " backup " << backup_.ToString();
  if (pending_voluntary_ && revert_armed_) {
    world_.sim().ScheduleAfter(params_.revert_check_delay, [this] {
      if (!revert_armed_ || state_ != State::kOperating) return;
      revert_armed_ = false;
      const double post = RecentThroughputBps(params_.revert_check_delay);
      if (post < params_.revert_tolerance * pre_switch_rate_bps_) {
        MetricsRegistry::Count(world_.metrics(), "whitefi.ap.reverts");
        BeginEpisode("ap.assignment/revert", world_.NextTraceId());
        AnnounceAndSwitch(revert_channel_, revert_backup_,
                          /*voluntary=*/false);
      }
    });
  } else {
    revert_armed_ = false;
  }
}

void ApNode::OnIncumbentDetected(UhfIndex channel) {
  Device::OnIncumbentDetected(channel);
  if (!params_.adaptive) return;
  if (state_ == State::kCollecting && TunedChannel().Contains(channel)) {
    // Vacated INTO an active incumbent: a churn storm can cover the backup
    // as well as the channel we just fled.  Hop the collect to a fresh
    // channel immediately — waiting for FinishCollect would keep beaconing
    // over the mic for the rest of the collect window.  The observation
    // already marks the hot channel (Device::OnIncumbentDetected above),
    // so the assigner avoids it.
    const auto fresh = assigner_.SelectBackup(BuildInputs(), main_);
    if (fresh.has_value() && !fresh->Contains(channel) && *fresh != backup_) {
      backup_ = *fresh;
      scanner_.SetChirpChannel(backup_);
      UpdateSecondaryWatch();
      SwitchChannel(backup_);
      WHITEFI_LOG_TAGGED(LogLevel::kInfo,
                         "core/ap" + std::to_string(NodeId()))
          << "collect channel hot (mic ch" << TvChannelNumber(channel)
          << "), hopping collect to " << backup_.ToString();
    }
    return;
  }
  if (main_.Contains(channel)) {
    if (state_ == State::kOperating && !announce_pending_) {
      BeginCollect("incumbent", world_.MicFlowId(channel, NodeId()));
    } else {
      // Busy announcing/collecting/rescuing: the vacate must not be lost.
      // Re-check shortly; if the incumbent still sits inside whatever the
      // operating channel is by then, the normal path fires.
      world_.sim().ScheduleAfter(200 * kTicksPerMs, [this, channel] {
        if (world_.MicAudible(channel, NodeId()) && main_.Contains(channel)) {
          OnIncumbentDetected(channel);
        }
      });
    }
    return;
  }
  if (backup_.Contains(channel) && state_ == State::kOperating) {
    // Pick a fresh backup; clients learn it from subsequent beacons.
    const auto backup = assigner_.SelectBackup(BuildInputs(), main_);
    if (backup.has_value()) {
      backup_ = *backup;
      scanner_.SetChirpChannel(backup_);
      UpdateSecondaryWatch();
    }
  }
}

void ApNode::BeginCollect(const char* why, std::int64_t flow) {
  state_ = State::kCollecting;
  revert_armed_ = false;
  // Flight recorder: one episode span covering vacate -> collect ->
  // reassign -> announce -> re-beacon, on the trigger's causal flow.
  BeginEpisode(std::string("ap.vacate/") + why,
               flow != 0 ? flow : world_.NextTraceId());
  world_.RecordState(NodeId(), "collecting");
  SwitchChannel(backup_);  // Beacon loop keeps beaconing, now on backup.
  world_.sim().ScheduleAfter(params_.collect_window, [this] { FinishCollect(); });
  WHITEFI_LOG_TAGGED(LogLevel::kInfo, "core/ap" + std::to_string(NodeId()))
      << "vacated " << main_.ToString() << ", collecting on backup "
      << backup_.ToString();
}

void ApNode::FinishCollect() {
  if (state_ != State::kCollecting) return;
  const AssignmentInputs inputs = BuildInputs();
  const AssignmentDecision decision = [&] {
    ScopedPhaseTimer timer(world_.profiler(), "mcham.evaluate");
    return assigner_.SelectInitial(inputs);
  }();
  last_metric_ = decision.metric;
  MetricsRegistry::Set(world_.metrics(), "whitefi.ap.last_metric",
                       last_metric_);
  if (!decision.channel.has_value()) {
    // Nothing usable yet; keep collecting (rare: whole band occupied).
    world_.sim().ScheduleAfter(params_.collect_window,
                               [this] { FinishCollect(); });
    return;
  }
  const Channel next = *decision.channel;
  const auto next_backup = assigner_.SelectBackup(inputs, next);
  AnnounceAndSwitch(next, next_backup.value_or(backup_), /*voluntary=*/false);
}

void ApNode::OnChirpHeard(const ChirpInfo& info, const Channel& heard_on) {
  if (!params_.adaptive) return;
  MetricsRegistry::Count(world_.metrics(), "whitefi.ap.chirps_heard");
  {
    TraceEvent event;
    event.kind = TraceEventKind::kChirp;
    event.node = NodeId();
    event.src = info.sender;
    // Continue the chirper's recovery flow: this is the client -> AP hop
    // of the causal chain.
    event.flow_id = info.trace_flow;
    event.detail = "heard on " + heard_on.ToString();
    world_.TraceEventNow(std::move(event));
  }
  // Merge the chirper's availability.
  ClientInfo& client = clients_[info.sender];
  client.map = info.map;
  client.observation = info.observation;
  client.last_seen = world_.sim().Now();

  if (state_ != State::kOperating || announce_pending_) return;
  if (!info.map.CanUse(main_)) {
    // The chirper sees an incumbent inside our operating channel: full
    // vacate-collect-reassign flow.
    BeginCollect("chirp", info.trace_flow);
  } else {
    // The chirper merely lost us (e.g. missed a switch): re-announce the
    // current channels on the channel the chirp came from — which may be a
    // stale backup or the chirper's secondary backup.
    RescueAnnounce(heard_on, info.trace_flow);
  }
}

void ApNode::UpdateSecondaryWatch() {
  if (!params_.watch_secondary_backup) return;
  // Same deterministic rule an escalated client applies to its own map
  // (ClientNode stage 1); never watch a secondary that merely duplicates
  // the primary.
  auto secondary = LowestFreeChannel(ObservedMap());
  if (secondary.has_value() && secondary->Overlaps(backup_)) {
    secondary = std::nullopt;
  }
  scanner_.SetSecondaryChirpChannel(secondary);
}

void ApNode::RescueAnnounce(const Channel& where, std::int64_t flow) {
  state_ = State::kRescuing;
  BeginEpisode("ap.rescue", flow != 0 ? flow : world_.NextTraceId());
  world_.RecordState(NodeId(), "rescuing");
  const Channel home = main_;
  SwitchChannel(where);
  Frame announce;
  announce.type = FrameType::kChannelSwitch;
  announce.dst = kBroadcastId;
  announce.bytes = kBeaconBytes;
  announce.payload = ChannelSwitchInfo{main_, backup_};
  for (int i = 1; i <= 3; ++i) {
    world_.sim().ScheduleAfter(static_cast<SimTime>(i) * 25 * kTicksPerMs,
                               [this, announce] {
                                 if (state_ == State::kRescuing) {
                                   mac().EnqueueFront(announce);
                                 }
                               });
  }
  world_.sim().ScheduleAfter(300 * kTicksPerMs, [this, home] {
    if (state_ == State::kRescuing) {
      state_ = State::kOperating;
      SwitchChannel(home);
      EndEpisode();
      world_.RecordState(NodeId(), "operating");
    }
  });
}

void ApNode::BeginEpisode(std::string name, std::int64_t flow) {
  EndEpisode();  // A stale episode must not leave an unbalanced span.
  episode_span_ = world_.NextTraceId();
  episode_flow_ = flow;
  episode_name_ = std::move(name);
  world_.TraceSpanBegin(NodeId(), episode_span_, 0, episode_flow_,
                        episode_name_);
}

void ApNode::EndEpisode() {
  if (episode_span_ == 0) return;
  world_.TraceSpanEnd(NodeId(), episode_span_, episode_flow_, episode_name_);
  episode_span_ = 0;
  episode_flow_ = 0;
  episode_name_.clear();
}

}  // namespace whitefi
