#include "core/client.h"

#include <algorithm>
#include <stdexcept>

#include "sim/audit_hooks.h"
#include "util/log.h"

namespace whitefi {

void ValidateClientParams(const ClientParams& params) {
  if (params.contact_timeout <= 0 || params.contact_check_interval <= 0) {
    throw std::invalid_argument(
        "client contact timeout and check interval must be positive");
  }
  if (params.chirp_interval <= 0 || params.report_interval <= 0) {
    throw std::invalid_argument(
        "client chirp and report intervals must be positive");
  }
  if (params.chirp_bytes <= 0) {
    throw std::invalid_argument("client chirp_bytes must be positive");
  }
  if (params.chirp_jitter < 0.0 || params.chirp_jitter >= 1.0) {
    throw std::invalid_argument("client chirp_jitter must lie in [0, 1)");
  }
  if (params.chirp_backoff_factor <= 1.0) {
    throw std::invalid_argument(
        "client chirp_backoff_factor must exceed 1");
  }
  if (params.chirp_interval_max < params.chirp_interval) {
    throw std::invalid_argument(
        "client chirp_interval_max must be >= chirp_interval");
  }
  if (params.reconnect_stage_timeout <= 0) {
    throw std::invalid_argument(
        "client reconnect_stage_timeout must be positive");
  }
  ValidateScannerParams(params.scanner);
}

ClientNode::ClientNode(World& world, int id, const DeviceConfig& device_config,
                       const ClientParams& params, Channel initial_main,
                       Channel initial_backup, int ap_id)
    : Device(world, id, [&] {
        ValidateClientParams(params);
        DeviceConfig c = device_config;
        c.is_ap = false;
        c.initial_channel = initial_main;
        return c;
      }()),
      params_(params),
      scanner_(*this, params.scanner),
      rng_(world.NewRng()),
      backup_(initial_backup),
      ap_id_(ap_id),
      chirp_period_(params.chirp_interval) {}

void ClientNode::Start() {
  last_contact_ = world_.sim().Now();
  world_.RecordState(NodeId(), "connected");
  scanner_.StartSweep();
  world_.sim().ScheduleAfter(params_.contact_check_interval,
                             [this] { CheckContact(); });
  world_.sim().ScheduleAfter(params_.report_interval, [this] { SendReport(); });
}

void ClientNode::OnFrameReceived(const Frame& frame, Dbm) {
  switch (frame.type) {
    case FrameType::kBeacon: {
      const auto* beacon = std::get_if<BeaconInfo>(&frame.payload);
      if (beacon == nullptr || beacon->ssid != ssid()) return;
      last_contact_ = world_.sim().Now();
      backup_ = beacon->backup;
      // Hearing our AP's beacon on the channel we are tuned to means we
      // are in contact (possibly on the backup channel during a collect
      // phase — stay until the ChannelSwitch arrives).
      if (!connected_ && beacon->main == TunedChannel()) Reconnect();
      break;
    }
    case FrameType::kChannelSwitch: {
      const auto* info = std::get_if<ChannelSwitchInfo>(&frame.payload);
      if (info == nullptr) return;
      last_contact_ = world_.sim().Now();
      backup_ = info->new_backup;
      if (!(TunedChannel() == info->new_channel)) {
        SwitchChannel(info->new_channel);
      }
      if (!connected_) Reconnect();
      break;
    }
    case FrameType::kData:
      last_contact_ = world_.sim().Now();
      break;
    default:
      break;
  }
}

void ClientNode::CheckContact() {
  world_.sim().ScheduleAfter(params_.contact_check_interval,
                             [this] { CheckContact(); });
  if (!connected_) return;
  if (world_.sim().Now() - last_contact_ > params_.contact_timeout) {
    WHITEFI_LOG_TAGGED(LogLevel::kInfo,
                       "core/client" + std::to_string(NodeId()))
        << "lost contact, vacating to " << backup_.ToString();
    Disconnect();
  }
}

void ClientNode::Disconnect(const char* cause, std::int64_t cause_flow) {
  if (!connected_) return;
  connected_ = false;
  ++disconnects_;
  ++reconnect_epoch_;
  reconnect_stage_ = 0;
  chirp_period_ = params_.chirp_interval;
  MetricsRegistry::Count(world_.metrics(), "whitefi.client.disconnects");
  disconnected_at_ = world_.sim().Now();
  if (AuditHooks* auditor = world_.obs().auditor; auditor != nullptr) {
    auditor->OnClientDisconnected(disconnected_at_, NodeId());
  }
  // Flight recorder: open the recovery span before the vacate so the
  // channel switch and first chirp land inside it.  An incumbent-caused
  // disconnect continues the mic's flow; otherwise the recovery starts a
  // flow of its own (chirps thread it through the AP's rescue).
  recovery_flow_ = cause_flow != 0 ? cause_flow : world_.NextTraceId();
  recovery_span_ = world_.NextTraceId();
  recovery_name_ = std::string("client.recovery/") + cause;
  world_.TraceSpanBegin(NodeId(), recovery_span_, 0, recovery_flow_,
                        recovery_name_);
  BeginRecoveryPhase("client.phase.chirp_backup");
  world_.RecordState(NodeId(), "chirping");
  SwitchChannel(backup_);
  Chirp();
  if (params_.reconnect_escalation) ScheduleEscalation();
}

void ClientNode::Reconnect() {
  if (connected_) return;
  connected_ = true;
  ++reconnect_epoch_;
  reconnect_stage_ = 0;
  // Close the phase and recovery spans at the reconnect instant; the
  // recovery end carries the flow so the causal arrow terminates here.
  if (phase_span_ != 0) {
    world_.TraceSpanEnd(NodeId(), phase_span_, 0, phase_name_);
    phase_span_ = 0;
    phase_name_.clear();
  }
  if (recovery_span_ != 0) {
    world_.TraceSpanEnd(NodeId(), recovery_span_, recovery_flow_,
                        recovery_name_);
    recovery_span_ = 0;
    recovery_flow_ = 0;
    recovery_name_.clear();
  }
  world_.RecordState(NodeId(), "connected");
  outages_.push_back(world_.sim().Now() - disconnected_at_);
  MetricsRegistry::Observe(world_.metrics(), "whitefi.client.outage_s",
                           ToSeconds(outages_.back()));
  if (AuditHooks* auditor = world_.obs().auditor; auditor != nullptr) {
    auditor->OnClientReconnected(world_.sim().Now(), NodeId());
  }
  WHITEFI_LOG_TAGGED(LogLevel::kInfo, "core/client" + std::to_string(NodeId()))
      << "reconnected after " << ToSeconds(outages_.back()) << " s";
  // Give the AP a fresh view promptly — but not before the AP has applied
  // its own switch (it keeps announcing on the rendezvous channel for a
  // few tens of milliseconds after we have already moved).
  world_.sim().ScheduleAfter(250 * kTicksPerMs, [this] {
    if (connected_) SendReport();
  });
}

void ClientNode::Chirp() {
  if (connected_) return;
  // The chirp's air time length-codes the SSID (see sift::ChirpCodec);
  // the scanner-side filter models that code.
  Frame chirp;
  chirp.type = FrameType::kChirp;
  chirp.dst = kBroadcastId;
  chirp.bytes = params_.chirp_bytes;
  chirp.payload = ChirpInfo{ObservedMap(), scanner_.Observation(), ssid(),
                            NodeId(), recovery_flow_};
  MetricsRegistry::Count(world_.metrics(), "whitefi.client.chirps");
  if (EventTrace* trace = world_.trace();
      trace != nullptr && trace->Wants(TraceEventKind::kChirp)) {
    TraceEvent event;
    event.kind = TraceEventKind::kChirp;
    event.node = NodeId();
    event.src = NodeId();
    event.bytes = chirp.bytes;
    event.span_id = phase_span_;
    event.flow_id = recovery_flow_;
    event.detail = "sent on " + TunedChannel().ToString();
    world_.TraceEventNow(std::move(event));
  } else if (trace != nullptr) {
    trace->CountSkipped(TraceEventKind::kChirp);
  }
  // Jump the queue: application traffic (e.g. a still-running backlogged
  // uplink) must not starve the distress signal.
  mac().EnqueueFront(chirp);
  if (AuditHooks* auditor = world_.obs().auditor; auditor != nullptr) {
    auditor->OnChirp(world_.sim().Now(), NodeId());
  }
  // Jitter the period: without it, a deterministic chirp cycle can phase-
  // lock against the AP scanner's dwell cycle and systematically miss the
  // rescue window (real radio clocks drift; the simulator's don't).
  const auto jittered = static_cast<SimTime>(
      static_cast<double>(chirp_period_) *
      rng_.Uniform(1.0 - params_.chirp_jitter, 1.0 + params_.chirp_jitter));
  // Hardening: exponential backoff de-synchronizes clients disconnected by
  // the same incumbent — at a fixed period their chirps contend with each
  // other on the backup channel every cycle.
  if (params_.chirp_backoff) {
    chirp_period_ = std::min(
        params_.chirp_interval_max,
        static_cast<SimTime>(static_cast<double>(chirp_period_) *
                             params_.chirp_backoff_factor));
  }
  world_.sim().ScheduleAfter(jittered, [this] { Chirp(); });
}

void ClientNode::BeginRecoveryPhase(std::string_view name) {
  if (phase_span_ != 0) {
    world_.TraceSpanEnd(NodeId(), phase_span_, 0, phase_name_);
  }
  phase_span_ = world_.NextTraceId();
  phase_name_ = std::string(name);
  world_.TraceSpanBegin(NodeId(), phase_span_, recovery_span_, recovery_flow_,
                        phase_name_);
}

void ClientNode::ScheduleEscalation() {
  const std::uint64_t epoch = reconnect_epoch_;
  world_.sim().ScheduleAfter(params_.reconnect_stage_timeout, [this, epoch] {
    if (connected_ || epoch != reconnect_epoch_) return;
    EscalateReconnect();
  });
}

void ClientNode::EscalateReconnect() {
  ++reconnect_stage_;
  MetricsRegistry::Count(world_.metrics(),
                         "whitefi.client.reconnect_escalations");
  if (reconnect_stage_ == 1) {
    // Stage 1: the backup channel is not producing a rescue — fall back to
    // the deterministic secondary backup.
    BeginRecoveryPhase("client.phase.secondary_backup");
    world_.RecordState(NodeId(), "scanning");
    SelectSecondaryBackup();
  } else {
    if (reconnect_stage_ == 2) {
      // Later sweep hops stay within this one phase span.
      BeginRecoveryPhase("client.phase.sweep");
      world_.RecordState(NodeId(), "scanning");
    }
    // Stage >= 2: full sweep — hop to the next observed free channel and
    // keep chirping; the AP's band sweep doubles as an all-channel rescue
    // scan, so any free channel is a potential rendezvous.
    const SpectrumMap map = ObservedMap();
    const UhfIndex start = backup_.Low();
    for (int i = 1; i <= kNumUhfChannels; ++i) {
      const auto c = static_cast<UhfIndex>((start + i) % kNumUhfChannels);
      if (map.Free(c)) {
        backup_ = Channel{c, ChannelWidth::kW5};
        SwitchChannel(backup_);
        break;
      }
    }
  }
  {
    TraceEvent event;
    event.kind = TraceEventKind::kNote;
    event.node = NodeId();
    event.span_id = phase_span_;
    event.flow_id = recovery_flow_;
    event.detail = "reconnect escalate stage " +
                   std::to_string(reconnect_stage_) + " -> " +
                   backup_.ToString();
    world_.TraceEventNow(std::move(event));
  }
  ScheduleEscalation();
}

void ClientNode::SendReport() {
  world_.sim().ScheduleAfter(params_.report_interval, [this] { SendReport(); });
  if (!connected_) return;
  Frame report;
  report.type = FrameType::kReport;
  report.dst = ap_id_;
  report.bytes = 120;  // Map + airtime vector.
  report.payload = ReportInfo{ObservedMap(), scanner_.Observation()};
  mac().Enqueue(report);
}

void ClientNode::OnIncumbentDetected(UhfIndex channel) {
  Device::OnIncumbentDetected(channel);
  if (connected_ && TunedChannel().Contains(channel)) {
    WHITEFI_LOG_TAGGED(LogLevel::kInfo,
                       "core/client" + std::to_string(NodeId()))
        << "detected incumbent on ch" << TvChannelNumber(channel)
        << ", vacating";
    Disconnect("incumbent", world_.MicFlowId(channel, NodeId()));
    return;
  }
  if (!connected_ && backup_.Contains(channel)) SelectSecondaryBackup();
}

void ClientNode::SelectSecondaryBackup() {
  // The shared deterministic rule (LowestFreeChannel) — the AP's
  // secondary chirp watch evaluates the same rule over its own map, so
  // matching maps mean a rendezvous.
  if (const auto secondary = LowestFreeChannel(ObservedMap())) {
    backup_ = *secondary;
    SwitchChannel(backup_);
  }
}

}  // namespace whitefi
