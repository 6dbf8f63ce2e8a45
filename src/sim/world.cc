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

std::int64_t World::MicFlowId(UhfIndex c, int node_id) const {
  const SimTime now = sim_.Now();
  std::int64_t flow = 0;
  SimTime latest = 0;
  for (const WorldMic& m : mics_) {
    if (m.mic.channel != c || !m.ActiveAtTick(now)) continue;
    if (!m.audible_to.empty() &&
        std::find(m.audible_to.begin(), m.audible_to.end(), node_id) ==
            m.audible_to.end()) {
      continue;
    }
    if (flow == 0 || m.on_ticks > latest) {
      flow = m.flow;
      latest = m.on_ticks;
    }
  }
  return flow;
}

std::optional<SimTime> World::MicOnSince(UhfIndex c) const {
  const SimTime now = sim_.Now();
  std::optional<SimTime> latest;
  for (const WorldMic& m : mics_) {
    if (m.mic.channel != c || !m.ActiveAtTick(now)) continue;
    if (!latest.has_value() || m.on_ticks > *latest) latest = m.on_ticks;
  }
  if (!latest.has_value()) return std::nullopt;
  return now - *latest;
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
  // Fast sensing path: nodes whose operating channel covers the mic (and
  // who can hear it) detect it after the configured latency.  Audibility
  // is re-checked at fire time, not here: the mic is active from this
  // instant by construction.
  for (const auto& device : devices_) {
    if (!device->TunedChannel().Contains(mic.mic.channel)) continue;
    Device* dev = device.get();
    if (!mic.audible_to.empty() &&
        std::find(mic.audible_to.begin(), mic.audible_to.end(),
                  dev->NodeId()) == mic.audible_to.end()) {
      continue;
    }
    const UhfIndex channel = mic.mic.channel;
    sim_.ScheduleAfter(config_.incumbent_detect_latency, [this, dev, channel] {
      if (MicAudible(channel, dev->NodeId()) &&
          dev->TunedChannel().Contains(channel)) {
        dev->OnIncumbentDetected(channel);
      }
    });
  }
}

bool World::MicActiveNow(UhfIndex c) const {
  const SimTime now = sim_.Now();
  for (const WorldMic& m : mics_) {
    if (m.mic.channel == c && m.ActiveAtTick(now)) return true;
  }
  return false;
}

bool World::MicAudible(UhfIndex c, int node_id) const {
  const SimTime now = sim_.Now();
  for (const WorldMic& m : mics_) {
    if (m.mic.channel != c || !m.ActiveAtTick(now)) continue;
    if (m.audible_to.empty()) return true;
    if (std::find(m.audible_to.begin(), m.audible_to.end(), node_id) !=
        m.audible_to.end()) {
      return true;
    }
  }
  return false;
}

std::optional<SimTime> World::MicAudibleOnSince(UhfIndex c,
                                                int node_id) const {
  const SimTime now = sim_.Now();
  std::optional<SimTime> latest;
  for (const WorldMic& m : mics_) {
    if (m.mic.channel != c || !m.ActiveAtTick(now)) continue;
    if (!m.audible_to.empty() &&
        std::find(m.audible_to.begin(), m.audible_to.end(), node_id) ==
            m.audible_to.end()) {
      continue;
    }
    if (!latest.has_value() || m.on_ticks > *latest) latest = m.on_ticks;
  }
  if (!latest.has_value()) return std::nullopt;
  return now - *latest;
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
