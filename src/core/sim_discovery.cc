#include "core/sim_discovery.h"

namespace whitefi {

SimulatedScanEnvironment::SimulatedScanEnvironment(World& world,
                                                   Device& searcher,
                                                   int target_ssid,
                                                   SimTime sift_dwell,
                                                   SimTime listen_dwell)
    : world_(world),
      searcher_(searcher),
      target_ssid_(target_ssid),
      sift_dwell_(sift_dwell),
      listen_dwell_(listen_dwell) {
  searcher_.AddReceiveHook([this](const Frame& frame) {
    if (frame.type != FrameType::kBeacon) return;
    const auto* beacon = std::get_if<BeaconInfo>(&frame.payload);
    if (beacon != nullptr && beacon->ssid == target_ssid_) ++beacons_heard_;
  });
}

std::optional<SiftDetection> SimulatedScanEnvironment::SiftScan(UhfIndex c) {
  ScopedPhaseTimer timer(world_.profiler(), "discovery.scan");
  MetricsRegistry::Count(world_.metrics(), "whitefi.discovery.probes");
  {
    TraceEvent event;
    event.kind = TraceEventKind::kDiscoveryProbe;
    event.node = searcher_.NodeId();
    event.detail = "sift ch" + std::to_string(c);
    world_.TraceEventNow(std::move(event));
  }
  // The secondary radio samples channel `c` for one dwell; SIFT detects
  // any WhiteFi transmission overlapping it without decoding.
  const ChannelBooks before = world_.medium().ChannelBooksAt(c);
  world_.RunFor(ToSeconds(sift_dwell_));
  spent_ += sift_dwell_;
  const ChannelBooks& after = world_.medium().ChannelBooksAt(c);

  const std::vector<int> members = world_.NodesInSsid(target_ssid_);
  const auto& b = before.per_node;
  const auto& a = after.per_node;
  for (int id : members) {
    const auto bt = b.find(id);
    const auto at = a.find(id);
    const Us before_time = bt == b.end() ? 0.0 : bt->second;
    const Us after_time = at == a.end() ? 0.0 : at->second;
    if (after_time <= before_time) continue;
    // Energy from the target network seen on `c`: SIFT reports the exact
    // width from the Data/ACK (or beacon/CTS) timings.
    const Device* device = world_.FindDevice(id);
    if (device == nullptr) continue;
    return SiftDetection{device->TunedChannel().width, 1};
  }
  return std::nullopt;
}

bool SimulatedScanEnvironment::TryDecodeBeacon(const Channel& channel) {
  ScopedPhaseTimer timer(world_.profiler(), "discovery.listen");
  MetricsRegistry::Count(world_.metrics(), "whitefi.discovery.probes");
  {
    TraceEvent event;
    event.kind = TraceEventKind::kDiscoveryProbe;
    event.node = searcher_.NodeId();
    event.detail = "listen " + channel.ToString();
    world_.TraceEventNow(std::move(event));
  }
  searcher_.SwitchChannel(channel);
  const int before = beacons_heard_;
  world_.RunFor(ToSeconds(listen_dwell_));
  spent_ += listen_dwell_;
  return beacons_heard_ > before;
}

}  // namespace whitefi
