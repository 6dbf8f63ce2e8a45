#include "sim/node.h"

#include "sim/audit_hooks.h"
#include "sim/world.h"

namespace whitefi {

Device::Device(World& world, int id, const DeviceConfig& config)
    : world_(world),
      id_(id),
      config_(config),
      channel_(config.initial_channel),
      mac_(world.sim(), world.medium(), *this, *this, config.tx_power,
           config.mac, world.NewRng()) {
  // Observability first: the initial SetTiming below must already be
  // visible to an attached auditor.
  mac_.SetObservability(world.obs());
  mac_.SetTiming(PhyTiming::ForWidth(channel_.width));
  world_.medium().Register(this);
  if (AuditHooks* auditor = world.obs().auditor; auditor != nullptr) {
    auditor->OnNodeTuned(world.sim().Now(), id_, channel_);
  }
}

Device::~Device() { world_.medium().Unregister(this); }

bool Device::RxEnabled() const {
  return world_.sim().Now() >= rx_enabled_at_;
}

void Device::DeliverFrame(const Frame& frame, Dbm rx_power) {
  mac_.OnDeliver(frame, rx_power);
}

void Device::MediumChanged() { mac_.OnMediumChanged(); }

void Device::MacReceived(const Frame& frame, Dbm rx_power) {
  if (frame.type == FrameType::kData && frame.dst == id_) {
    world_.RecordAppBytes(id_, frame.bytes - kMacOverheadBytes);
  }
  OnFrameReceived(frame, rx_power);
  for (const auto& hook : receive_hooks_) hook(frame);
}

void Device::MacSendComplete(const Frame& frame, bool success) {
  OnSendComplete(frame, success);
  for (const auto& hook : send_hooks_) hook(frame, success);
}

void Device::SwitchChannel(const Channel& channel) {
  if (channel == channel_ && RxEnabled()) return;
  MetricsRegistry::Count(world_.metrics(), "whitefi.node.channel_switches");
  if (world_.trace() != nullptr) {
    TraceEvent event;
    event.kind = TraceEventKind::kChannelSwitch;
    event.node = id_;
    event.detail = channel_.ToString() + " -> " + channel.ToString();
    world_.TraceEventNow(std::move(event));
  }
  mac_.Reset();
  channel_ = channel;
  mac_.SetTiming(PhyTiming::ForWidth(channel.width));
  if (AuditHooks* auditor = world_.obs().auditor; auditor != nullptr) {
    auditor->OnNodeTuned(world_.sim().Now(), id_, channel_);
  }
  rx_enabled_at_ = world_.sim().Now() + config_.tune_delay;
  world_.medium().Retune(this, channel_, rx_enabled_at_);
  const SimTime generation = rx_enabled_at_;
  world_.sim().Schedule(rx_enabled_at_, [this, generation, channel] {
    // Only fire if no further switch superseded this one.
    if (rx_enabled_at_ == generation && channel_ == channel) {
      world_.SenseOnTune(*this);
    }
  });
}

void Device::OnIncumbentDetected(UhfIndex channel) {
  if (detected_mics_.find(channel) == detected_mics_.end()) {
    // Fresh detection: record how long the incumbent had been on air
    // before this node reacted (microsecond ticks).
    MetricsRegistry::Count(world_.metrics(), "whitefi.sift.detections");
    if (const auto since = world_.MicAudibleOnSince(channel, id_);
        since.has_value()) {
      MetricsRegistry::Observe(world_.metrics(),
                               "whitefi.sift.detect_latency_us",
                               static_cast<double>(*since));
    }
    TraceEvent event;
    event.kind = TraceEventKind::kNote;
    event.node = id_;
    event.detail = "incumbent detected ch" + std::to_string(channel);
    world_.TraceEventNow(std::move(event));
  }
  NoteMicObservation(channel, true);
}

void Device::NoteMicObservation(UhfIndex channel, bool present) {
  if (present) {
    detected_mics_.insert(channel);
  } else {
    detected_mics_.erase(channel);
  }
}

SpectrumMap Device::ObservedMap() const {
  SpectrumMap map = config_.tv_map;
  for (UhfIndex c : detected_mics_) map.SetOccupied(c);
  return map;
}

void Device::AddSendCompleteHook(
    std::function<void(const Frame&, bool)> hook) {
  send_hooks_.push_back(std::move(hook));
}

void Device::AddReceiveHook(std::function<void(const Frame&)> hook) {
  receive_hooks_.push_back(std::move(hook));
}

void Device::OnFrameReceived(const Frame&, Dbm) {}
void Device::OnSendComplete(const Frame&, bool) {}

}  // namespace whitefi
