#include "sim/scanner.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "sim/world.h"

namespace whitefi {

void ValidateScannerParams(const ScannerParams& params) {
  if (params.dwell <= 0) {
    throw std::invalid_argument("scanner dwell must be positive");
  }
  if (params.airtime_noise_stddev < 0.0) {
    throw std::invalid_argument(
        "scanner airtime noise stddev must be non-negative");
  }
  if (params.chirp_scan_interval <= 0 || params.chirp_scan_dwell <= 0) {
    throw std::invalid_argument(
        "scanner chirp scan interval and dwell must be positive");
  }
  if (params.outage_retry_interval <= 0) {
    throw std::invalid_argument(
        "scanner outage retry interval must be positive");
  }
}

Scanner::Scanner(Device& device, const ScannerParams& params)
    : device_(device),
      params_(params),
      rng_(device.world().NewRng()),
      observation_(EmptyBandObservation()) {
  ValidateScannerParams(params_);
}

void Scanner::StartSweep() {
  if (sweeping_) return;
  sweeping_ = true;
  cursor_ = 0;
  BeginDwell();
}

void Scanner::BeginDwell() {
  World& world = device_.world();
  FaultInjector* const faults = world.faults();
  if (faults != nullptr && faults->ScannerDown(world.sim().Now())) {
    // Scanner hardware outage: nothing can be measured; idle one dwell
    // and retry (the sweep neither advances nor serves data).
    MetricsRegistry::Count(world.metrics(), "whitefi.scanner.outage_dwells");
    world.sim().ScheduleAfter(params_.dwell, [this] { BeginDwell(); });
    return;
  }
  // Incumbent-occupied channels are flagged immediately (feature detection
  // is fast); airtime dwell is only spent on channels worth measuring.
  for (int hops = 0; hops <= kNumUhfChannels; ++hops) {
    if (hops == kNumUhfChannels) {
      // Entire band incumbent-occupied: idle one dwell and retry.
      world.sim().ScheduleAfter(params_.dwell, [this] { BeginDwell(); });
      return;
    }
    const auto idx = static_cast<std::size_t>(cursor_);
    const bool tv = device_.config().tv_map.Occupied(cursor_);
    bool mic = world.MicAudible(cursor_, device_.NodeId());
    // SIFT missed detection: the feature detector overlooks a real mic,
    // so the channel proceeds to a normal airtime dwell instead.
    if (mic && faults != nullptr && faults->MissIncumbent(world.sim().Now())) {
      mic = false;
    }
    if (tv || mic) {
      observation_[idx].incumbent = true;
      observation_[idx].airtime = 0.0;
      observation_[idx].ap_count = 0;
      if (!tv) device_.NoteMicObservation(cursor_, true);
      cursor_ = (cursor_ + 1) % kNumUhfChannels;
      if (cursor_ == 0) ++sweeps_;
      continue;
    }
    break;
  }
  MetricsRegistry::Count(world.metrics(), "whitefi.scanner.dwells");
  dwell_start_books_ = world.medium().ChannelBooksAt(cursor_);
  world.sim().ScheduleAfter(params_.dwell, [this] { EndDwell(); });
}

void Scanner::EndDwell() {
  World& world = device_.world();
  FaultInjector* const faults = world.faults();
  if (faults != nullptr) {
    if (faults->ScannerDown(world.sim().Now())) {
      // The hardware died mid-dwell: the measurement is void.  Do not
      // advance; BeginDwell idles through the outage and retries here.
      BeginDwell();
      return;
    }
    if (faults->StaleScan(world.sim().Now())) {
      // The dwell silently served stale data: keep the previous
      // observation for this channel and move on.
      MetricsRegistry::Count(world.metrics(), "whitefi.scanner.stale_dwells");
      cursor_ = (cursor_ + 1) % kNumUhfChannels;
      if (cursor_ == 0) ++sweeps_;
      BeginDwell();
      return;
    }
  }
  const auto idx = static_cast<std::size_t>(cursor_);
  const ChannelBooks& before = dwell_start_books_;
  const ChannelBooks& after = world.medium().ChannelBooksAt(cursor_);

  // Busy fraction of *foreign* traffic (SIFT can filter the network's own
  // transmissions by width/pattern).  Summing foreign transmitters' own
  // air time — rather than subtracting our air time from the union busy
  // time — stays accurate even when our transmissions overlap foreign
  // ones in time (we may be mutually deaf across widths): the union would
  // hide exactly the foreign traffic we need to measure.
  const std::vector<int> own = world.NodesInSsid(device_.ssid());
  Us busy_delta = 0.0;
  for (const auto& [node, total] : after.per_node) {
    if (std::find(own.begin(), own.end(), node) != own.end()) continue;
    const auto b = before.per_node.find(node);
    const Us bt = b == before.per_node.end() ? 0.0 : b->second;
    busy_delta += total - bt;
  }
  const Us dwell_us = ToUs(params_.dwell);
  double airtime = busy_delta / dwell_us;
  if (params_.airtime_noise_stddev > 0.0) {
    airtime += rng_.Normal(0.0, params_.airtime_noise_stddev);
  }
  observation_[idx].airtime = std::clamp(airtime, 0.0, 1.0);

  // Foreign APs with energy on this channel during the dwell.
  std::vector<int> ap_ids = world.medium().ApIds();
  ap_ids.erase(std::remove_if(ap_ids.begin(), ap_ids.end(),
                              [&](int id) {
                                return std::find(own.begin(), own.end(), id) !=
                                       own.end();
                              }),
               ap_ids.end());
  observation_[idx].ap_count =
      static_cast<int>(Medium::ActiveApsBetween(before, after, ap_ids).size());

  // Incumbents may have appeared or vanished during the dwell.
  bool mic = world.MicAudible(cursor_, device_.NodeId());
  if (faults != nullptr) {
    // SIFT detection faults: overlook a real mic or flag a phantom one.
    if (mic && faults->MissIncumbent(world.sim().Now())) {
      mic = false;
    } else if (!mic && faults->FalseIncumbent(world.sim().Now())) {
      mic = true;
    }
  }
  observation_[idx].incumbent =
      device_.config().tv_map.Occupied(cursor_) || mic;
  device_.NoteMicObservation(cursor_, mic);

  // Flight recorder: one probe record per measured dwell — the "scan"
  // leg of the MCham chain.  Guarded by Wants so a filtered trace never
  // pays for the detail string.
  if (EventTrace* trace = world.trace(); trace != nullptr) {
    if (trace->Wants(TraceEventKind::kDiscoveryProbe)) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "dwell ch%d airtime=%.3f aps=%d%s",
                    cursor_, observation_[idx].airtime,
                    observation_[idx].ap_count,
                    observation_[idx].incumbent ? " incumbent" : "");
      TraceEvent event;
      event.kind = TraceEventKind::kDiscoveryProbe;
      event.node = device_.NodeId();
      event.detail = buf;
      world.TraceEventNow(std::move(event));
    } else {
      trace->CountSkipped(TraceEventKind::kDiscoveryProbe);
    }
  }

  cursor_ = (cursor_ + 1) % kNumUhfChannels;
  if (cursor_ == 0) ++sweeps_;
  BeginDwell();
}

void Scanner::StartChirpWatch(Channel backup, int ssid,
                              ChirpCallback on_chirp) {
  chirp_channel_ = backup;
  chirp_ssid_ = ssid;
  on_chirp_ = std::move(on_chirp);
  if (!chirp_watch_) {
    chirp_watch_ = true;
    device_.world().medium().AddFrameTap(
        [this](const Channel& channel, const Frame& frame, const RadioPort&) {
          if (frame.type != FrameType::kChirp) return;
          const auto* info = std::get_if<ChirpInfo>(&frame.payload);
          if (info != nullptr) OfferChirp(channel, *info);
        });
    ChirpVisit();
  }
}

void Scanner::ChirpVisit() {
  chirp_dwelling_ = true;
  // With a secondary rendezvous channel set, visits alternate between the
  // primary backup and the secondary; without one every visit watches the
  // primary (the pre-hardening behavior, bit for bit).
  secondary_dwell_ = secondary_chirp_channel_.has_value() &&
                     next_visit_secondary_;
  if (secondary_dwell_) secondary_watch_ = *secondary_chirp_channel_;
  next_visit_secondary_ = !next_visit_secondary_;
  World& world = device_.world();
  world.sim().ScheduleAfter(params_.chirp_scan_dwell, [this] {
    chirp_dwelling_ = false;
    secondary_dwell_ = false;
  });
  // Hardening: a visit that falls inside a scanner outage hears nothing.
  // Instead of leaving chirpers unheard until the next regular visit,
  // probe at a short cadence and dwell as soon as the hardware is back.
  FaultInjector* const faults = world.faults();
  if (faults != nullptr && params_.outage_retry && !retry_pending_ &&
      faults->ScannerDown(world.sim().Now()) &&
      params_.outage_retry_interval < params_.chirp_scan_interval) {
    retry_pending_ = true;
    MetricsRegistry::Count(world.metrics(),
                           "whitefi.scanner.chirp_outage_retries");
    world.sim().ScheduleAfter(params_.outage_retry_interval,
                              [this] { ChirpRetryVisit(); });
  }
  world.sim().ScheduleAfter(params_.chirp_scan_interval,
                            [this] { ChirpVisit(); });
}

void Scanner::ChirpRetryVisit() {
  World& world = device_.world();
  FaultInjector* const faults = world.faults();
  if (faults != nullptr && faults->ScannerDown(world.sim().Now())) {
    world.sim().ScheduleAfter(params_.outage_retry_interval,
                              [this] { ChirpRetryVisit(); });
    return;
  }
  retry_pending_ = false;
  chirp_dwelling_ = true;
  secondary_dwell_ = false;  // Outage retries always probe the primary.
  world.sim().ScheduleAfter(params_.chirp_scan_dwell, [this] {
    chirp_dwelling_ = false;
    secondary_dwell_ = false;
  });
}

void Scanner::OfferChirp(const Channel& channel, const ChirpInfo& info) {
  if (!on_chirp_) return;
  if (info.ssid != chirp_ssid_) return;  // SIFT length-code filter.
  const bool on_watched_backup =
      chirp_dwelling_ &&
      channel.Overlaps(secondary_dwell_ ? secondary_watch_ : chirp_channel_);
  // The band sweep doubles as the paper's all-channel rescue scan: a chirp
  // transmitted on whatever channel the sweep currently dwells on is heard.
  const bool on_swept_channel = sweeping_ && channel.Contains(cursor_);
  if (!on_watched_backup && !on_swept_channel) return;
  FaultInjector* const faults = device_.world().faults();
  if (faults != nullptr) {
    const SimTime now = device_.world().sim().Now();
    if (faults->ScannerDown(now)) return;  // Deaf hardware.
    if (faults->MissChirp(now)) return;    // SIFT detection miss.
  }
  on_chirp_(info, channel);
}

}  // namespace whitefi
