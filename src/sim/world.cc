#include "sim/world.h"

#include <algorithm>
#include <string>

namespace whitefi {

World::World(const WorldConfig& config)
    : config_(config),
      rng_(config.seed),
      medium_(sim_, config.medium),
      next_id_(config.first_node_id) {
  medium_.SetObservability(config_.obs);
  medium_.SetFaultInjector(config_.faults);
  if (config_.faults != nullptr) {
    config_.faults->SetObservability(config_.obs);
  }
}

World::~World() = default;

Device* World::FindDevice(int id) {
  for (const auto& device : devices_) {
    if (device->NodeId() == id) return device.get();
  }
  return nullptr;
}

std::vector<int> World::NodesInSsid(int ssid) const {
  std::vector<int> ids;
  for (const auto& device : devices_) {
    if (device->ssid() == ssid) ids.push_back(device->NodeId());
  }
  return ids;
}

void World::StartAll() {
  for (const auto& device : devices_) device->Start();
  // Bracket every windowed fault with trace records so a JSONL export
  // shows exactly when each degradation began and ended.
  if (config_.faults != nullptr && config_.obs.trace != nullptr) {
    for (const FaultInjector::WindowEvent& w : config_.faults->WindowEvents()) {
      sim_.Schedule(w.at, [this, w] {
        TraceEvent event;
        event.kind = w.inject ? TraceEventKind::kFaultInjected
                              : TraceEventKind::kFaultCleared;
        event.detail = w.what;
        TraceEventNow(std::move(event));
      });
    }
  }
}

void World::SetMicSchedule(std::vector<MicActivation> mics) {
  for (const MicActivation& mic : mics) AddMic(mic);
}

void World::AddMic(const MicActivation& mic, std::vector<int> audible_to) {
  WorldMic entry{mic, std::move(audible_to), ToTicks(mic.on_time),
                 ToTicks(mic.off_time), NextTraceId()};
  mics_.push_back(entry);
  // Copy by value: mics_ may reallocate before the events fire.
  sim_.Schedule(entry.on_ticks,
                [this, entry] { ApplyMicTransition(entry, true); });
  sim_.Schedule(entry.off_ticks,
                [this, entry] { ApplyMicTransition(entry, false); });
}

void World::TraceEventNow(TraceEvent event) {
  if (config_.obs.trace == nullptr) return;
  event.at_us = sim_.Now();
  config_.obs.trace->Append(std::move(event));
}

void World::RecordState(int node, std::string_view state) {
  if (StateTimeline* timeline = config_.obs.timeline; timeline != nullptr) {
    timeline->Enter(sim_.Now(), node, state);
  }
  if (config_.obs.trace != nullptr) {
    TraceEvent event;
    event.kind = TraceEventKind::kStateEnter;
    event.node = node;
    event.detail = std::string(state);
    TraceEventNow(std::move(event));
  }
}

void World::TraceSpanBegin(int node, std::int64_t id, std::int64_t parent,
                           std::int64_t flow, std::string_view name) {
  if (config_.obs.trace == nullptr) return;
  TraceEvent event;
  event.kind = TraceEventKind::kSpanBegin;
  event.node = node;
  event.span_id = id;
  event.parent_span = parent;
  event.flow_id = flow;
  event.detail = std::string(name);
  TraceEventNow(std::move(event));
}

void World::TraceSpanEnd(int node, std::int64_t id, std::int64_t flow,
                         std::string_view name) {
  if (config_.obs.trace == nullptr) return;
  TraceEvent event;
  event.kind = TraceEventKind::kSpanEnd;
  event.node = node;
  event.span_id = id;
  event.flow_id = flow;
  event.detail = std::string(name);
  TraceEventNow(std::move(event));
}

bool World::WorldMic::AudibleTo(int node_id) const {
  return audible_to.empty() ||
         std::find(audible_to.begin(), audible_to.end(), node_id) !=
             audible_to.end();
}

const World::WorldMic* World::LatestActiveMic(
    UhfIndex c, std::optional<int> listener) const {
  const SimTime now = sim_.Now();
  const WorldMic* latest = nullptr;
  for (const WorldMic& m : mics_) {
    if (m.mic.channel != c || !m.ActiveAtTick(now)) continue;
    if (listener.has_value() && !m.AudibleTo(*listener)) continue;
    if (latest == nullptr || m.on_ticks > latest->on_ticks) latest = &m;
  }
  return latest;
}

std::int64_t World::MicFlowId(UhfIndex c, int node_id) const {
  const WorldMic* mic = LatestActiveMic(c, node_id);
  return mic != nullptr ? mic->flow : 0;
}

bool World::MicActiveNow(UhfIndex c) const {
  return LatestActiveMic(c, std::nullopt) != nullptr;
}

bool World::MicAudible(UhfIndex c, int node_id) const {
  return LatestActiveMic(c, node_id) != nullptr;
}

std::optional<SimTime> World::MicAudibleOnSince(UhfIndex c,
                                                int node_id) const {
  const WorldMic* mic = LatestActiveMic(c, node_id);
  if (mic == nullptr) return std::nullopt;
  return sim_.Now() - mic->on_ticks;
}

void World::ScheduleDetection(Device& device, UhfIndex c) {
  sim_.ScheduleAfter(config_.incumbent_detect_latency, [this, &device, c] {
    if (MicAudible(c, device.NodeId()) && device.TunedChannel().Contains(c)) {
      device.OnIncumbentDetected(c);
    }
  });
}

void World::ApplyMicTransition(const WorldMic& mic, bool on) {
  {
    TraceEvent event;
    event.kind = on ? TraceEventKind::kIncumbentOn : TraceEventKind::kIncumbentOff;
    event.detail = "mic ch" + std::to_string(mic.mic.channel);
    event.flow_id = mic.flow;
    TraceEventNow(std::move(event));
  }
  if (!on) return;
  // The mic-on edge: every device tuned over the mic that can hear it.
  for (const auto& device : devices_) {
    if (device->TunedChannel().Contains(mic.mic.channel) &&
        mic.AudibleTo(device->NodeId())) {
      ScheduleDetection(*device, mic.mic.channel);
    }
  }
}

void World::SenseOnTune(Device& device) {
  const Channel& tuned = device.TunedChannel();
  for (UhfIndex c = tuned.Low(); c <= tuned.High(); ++c) {
    if (MicAudible(c, device.NodeId())) ScheduleDetection(device, c);
  }
}

void World::RecordAppBytes(int dst, int bytes) {
  if (bytes > 0) app_bytes_[dst] += static_cast<std::uint64_t>(bytes);
}

void World::ResetAppBytes() { app_bytes_.clear(); }

std::uint64_t World::AppBytes(int dst) const {
  const auto it = app_bytes_.find(dst);
  return it == app_bytes_.end() ? 0 : it->second;
}

std::uint64_t World::AppBytesInSsid(int ssid) const {
  std::uint64_t total = 0;
  for (int id : NodesInSsid(ssid)) total += AppBytes(id);
  return total;
}

void World::RunFor(double seconds) {
  sim_.Run(sim_.Now() + static_cast<SimTime>(seconds * kTicksPerSec));
}

}  // namespace whitefi
