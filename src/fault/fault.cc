#include "fault/fault.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.h"
#include "util/config.h"

namespace whitefi {
namespace {

/// Metric names, resolved lazily per injection kind.
constexpr char kInjectedMetric[] = "whitefi.fault.injected";

bool AnyWindow(const std::vector<FaultWindow>& windows, SimTime t) {
  for (const FaultWindow& w : windows) {
    if (w.Covers(t)) return true;
  }
  return false;
}

/// Parses the window list at `key`: comma-separated `from-until` items,
/// each side seconds in [0, kMaxDurationS], possibly fractional.
std::vector<FaultWindow> ParseWindows(const ConfigFile& config,
                                      const std::string& key) {
  const auto ticks = [&](std::string_view seconds) {
    return static_cast<SimTime>(
        config.Number<double>(key, seconds, 0.0, kMaxDurationS) * kTicksPerSec);
  };
  std::vector<FaultWindow> windows;
  for (const std::string& item : config.GetList(key)) {
    const auto dash = item.find('-');
    if (dash == std::string::npos || dash == 0 || dash + 1 >= item.size()) {
      throw ConfigError("fault window '" + item + "' in " + key +
                            " must be from-until in seconds",
                        config.source(), config.LineOf(key));
    }
    const FaultWindow w{ticks(item.substr(0, dash)),
                        ticks(item.substr(dash + 1))};
    if (w.until <= w.from) {
      throw std::runtime_error("fault window '" + item + "' in " + key +
                               " must end after it starts");
    }
    windows.push_back(w);
  }
  return windows;
}

}  // namespace

bool FaultPlan::Empty() const {
  return !frame_loss.has_value() && beacon_drop_p == 0.0 &&
         chirp_drop_p == 0.0 && control_corrupt_p == 0.0 &&
         scanner_outages.empty() && stale_scan_p == 0.0 &&
         miss_chirp_p == 0.0 && false_incumbent_p == 0.0 &&
         miss_incumbent_p == 0.0 && geodb_outages.empty() &&
         geodb_staleness == 0.0 && storms.empty() && push_storms.empty();
}

FaultPlan ParseFaultPlan(const ConfigFile& config) {
  // Probabilities, counts and storm shapes are bounded by FaultInjector;
  // times here only have to fit SimTime.
  const auto ticks = [&config](const std::string& key, double fallback_s) {
    return static_cast<SimTime>(
        config.Get<double>(key, fallback_s, -kMaxDurationS, kMaxDurationS) *
        kTicksPerSec);
  };
  FaultPlan plan;
  if (config.Has("fault.ge_p_enter_bad") || config.Has("fault.ge_p_exit_bad") ||
      config.Has("fault.ge_loss_good") || config.Has("fault.ge_loss_bad")) {
    GilbertElliottParams ge;
    ge.p_enter_bad = config.Get<double>("fault.ge_p_enter_bad", ge.p_enter_bad);
    ge.p_exit_bad = config.Get<double>("fault.ge_p_exit_bad", ge.p_exit_bad);
    ge.loss_good = config.Get<double>("fault.ge_loss_good", ge.loss_good);
    ge.loss_bad = config.Get<double>("fault.ge_loss_bad", ge.loss_bad);
    plan.frame_loss = ge;
  }
  plan.frame_loss_windows = ParseWindows(config, "fault.frame_loss_windows");
  plan.beacon_drop_p = config.Get<double>("fault.beacon_drop_p", 0.0);
  plan.chirp_drop_p = config.Get<double>("fault.chirp_drop_p", 0.0);
  plan.control_corrupt_p = config.Get<double>("fault.control_corrupt_p", 0.0);
  plan.scanner_outages = ParseWindows(config, "fault.scanner_outages");
  plan.stale_scan_p = config.Get<double>("fault.stale_scan_p", 0.0);
  plan.miss_chirp_p = config.Get<double>("fault.miss_chirp_p", 0.0);
  plan.false_incumbent_p = config.Get<double>("fault.false_incumbent_p", 0.0);
  plan.miss_incumbent_p = config.Get<double>("fault.miss_incumbent_p", 0.0);
  plan.geodb_outages = ParseWindows(config, "fault.geodb_outages");
  plan.geodb_staleness = config.Get<double>("fault.geodb_staleness_s", 0.0,
                                            0.0, kMaxDurationS) *
                         kSecond;
  if (config.Has("fault.storm_start_s") || config.Has("fault.storm_mics")) {
    ChurnStorm storm;
    storm.start = ticks("fault.storm_start_s", 0.0);
    storm.duration = ticks("fault.storm_duration_s", 10.0);
    storm.mics = config.Get<int>("fault.storm_mics", 1);
    storm.mean_on = ticks("fault.storm_mean_on_s", 2.0);
    storm.mean_off = ticks("fault.storm_mean_off_s", 3.0);
    plan.storms.push_back(storm);
  }
  if (config.Has("fault.push_storm_start_s") ||
      config.Has("fault.push_storm_venues")) {
    PushStorm storm;
    storm.start = ticks("fault.push_storm_start_s", 0.0);
    storm.duration = ticks("fault.push_storm_duration_s", 10.0);
    storm.venues = config.Get<int>("fault.push_storm_venues", 1);
    storm.mean_on = ticks("fault.push_storm_mean_on_s", 2.0);
    storm.mean_off = ticks("fault.push_storm_mean_off_s", 3.0);
    storm.radius_km = config.Get<double>("fault.push_storm_radius_km", 1.0);
    storm.spread_km = config.Get<double>("fault.push_storm_spread_km", 2.0);
    plan.push_storms.push_back(storm);
  }
  return plan;
}

FaultInjector::FaultInjector(const FaultPlan& plan, std::uint64_t seed)
    : plan_(plan), rng_(seed) {
  if (plan_.frame_loss) {
    const GilbertElliottParams& ge = *plan_.frame_loss;
    for (double p : {ge.p_enter_bad, ge.p_exit_bad, ge.loss_good, ge.loss_bad}) {
      if (p < 0.0 || p > 1.0) {
        throw std::invalid_argument(
            "Gilbert-Elliott probabilities must lie in [0, 1]");
      }
    }
  }
  for (double p : {plan_.beacon_drop_p, plan_.chirp_drop_p,
                   plan_.control_corrupt_p, plan_.stale_scan_p,
                   plan_.miss_chirp_p, plan_.false_incumbent_p,
                   plan_.miss_incumbent_p}) {
    if (p < 0.0 || p > 1.0) {
      throw std::invalid_argument("fault probabilities must lie in [0, 1]");
    }
  }
  for (const ChurnStorm& storm : plan_.storms) {
    if (storm.mics < 0) {
      throw std::invalid_argument("storm mic count must be non-negative");
    }
    if (storm.mics > 0 && (storm.duration <= 0 || storm.mean_on <= 0)) {
      throw std::invalid_argument(
          "storm duration and mean_on must be positive");
    }
  }
  for (const PushStorm& storm : plan_.push_storms) {
    if (storm.venues < 0) {
      throw std::invalid_argument("push storm venue count must be non-negative");
    }
    if (storm.venues > 0 && (storm.duration <= 0 || storm.mean_on <= 0)) {
      throw std::invalid_argument(
          "push storm duration and mean_on must be positive");
    }
    if (storm.radius_km <= 0.0 || storm.spread_km < 0.0) {
      throw std::invalid_argument(
          "push storm radius must be positive and spread non-negative");
    }
  }
}

void FaultInjector::SetObservability(const Observability& obs) { obs_ = obs; }

const char* FaultInjector::Note(SimTime now, const char* what, int node) {
  ++injected_;
  MetricsRegistry::Count(obs_.metrics, kInjectedMetric);
  if (obs_.trace != nullptr) {
    TraceEvent event;
    event.at_us = now;
    event.kind = TraceEventKind::kFaultInjected;
    event.node = node;
    event.detail = what;
    obs_.trace->Append(event);
  }
  return what;
}

bool FaultInjector::InFrameLossWindow(SimTime now) const {
  return plan_.frame_loss_windows.empty() ||
         AnyWindow(plan_.frame_loss_windows, now);
}

const char* FaultInjector::FrameFault(SimTime now, FrameType type,
                                      int rx_node) {
  // Targeted control-plane drops come first: they model interference
  // specific to the frame's role, independent of the burst channel.
  if (type == FrameType::kBeacon && plan_.beacon_drop_p > 0.0 &&
      rng_.Bernoulli(plan_.beacon_drop_p)) {
    return Note(now, "beacon_drop", rx_node);
  }
  if (type == FrameType::kChirp && plan_.chirp_drop_p > 0.0 &&
      rng_.Bernoulli(plan_.chirp_drop_p)) {
    return Note(now, "chirp_drop", rx_node);
  }
  if (plan_.control_corrupt_p > 0.0 && type != FrameType::kData &&
      type != FrameType::kAck && rng_.Bernoulli(plan_.control_corrupt_p)) {
    return Note(now, "control_corrupt", rx_node);
  }
  if (plan_.frame_loss && InFrameLossWindow(now)) {
    const GilbertElliottParams& ge = *plan_.frame_loss;
    bool& bad = ge_bad_[rx_node];
    const bool was_bad = bad;
    if (bad) {
      if (rng_.Bernoulli(ge.p_exit_bad)) bad = false;
    } else {
      if (rng_.Bernoulli(ge.p_enter_bad)) bad = true;
    }
    if (bad != was_bad && obs_.trace != nullptr) {
      TraceEvent event;
      event.at_us = now;
      event.kind =
          bad ? TraceEventKind::kFaultInjected : TraceEventKind::kFaultCleared;
      event.node = rx_node;
      event.detail = bad ? "ge_bad_state" : "ge_good_state";
      obs_.trace->Append(event);
    }
    const double loss = bad ? ge.loss_bad : ge.loss_good;
    if (loss > 0.0 && rng_.Bernoulli(loss)) {
      return Note(now, "ge_loss", rx_node);
    }
  }
  return nullptr;
}

bool FaultInjector::ScannerDown(SimTime now) const {
  return AnyWindow(plan_.scanner_outages, now);
}

bool FaultInjector::StaleScan(SimTime now) {
  if (plan_.stale_scan_p <= 0.0 || !rng_.Bernoulli(plan_.stale_scan_p)) {
    return false;
  }
  Note(now, "stale_scan", -1);
  return true;
}

bool FaultInjector::MissChirp(SimTime now) {
  if (plan_.miss_chirp_p <= 0.0 || !rng_.Bernoulli(plan_.miss_chirp_p)) {
    return false;
  }
  Note(now, "miss_chirp", -1);
  return true;
}

bool FaultInjector::FalseIncumbent(SimTime now) {
  if (plan_.false_incumbent_p <= 0.0 ||
      !rng_.Bernoulli(plan_.false_incumbent_p)) {
    return false;
  }
  Note(now, "false_incumbent", -1);
  return true;
}

bool FaultInjector::MissIncumbent(SimTime now) {
  if (plan_.miss_incumbent_p <= 0.0 ||
      !rng_.Bernoulli(plan_.miss_incumbent_p)) {
    return false;
  }
  Note(now, "miss_incumbent", -1);
  return true;
}

bool FaultInjector::GeoDbAvailable(Us now) const {
  return !AnyWindow(plan_.geodb_outages, static_cast<SimTime>(now));
}

Us FaultInjector::GeoDbServedTime(Us now) const {
  const Us served = now - plan_.geodb_staleness;
  return served < 0.0 ? 0.0 : served;
}

std::vector<MicActivation> FaultInjector::ExpandStorms(
    const std::vector<UhfIndex>& channels) {
  std::vector<MicActivation> mics;
  if (channels.empty()) return mics;
  for (const ChurnStorm& storm : plan_.storms) {
    for (int m = 0; m < storm.mics; ++m) {
      SimTime t = storm.start;
      const SimTime end = storm.start + storm.duration;
      while (t < end) {
        MicActivation mic;
        mic.channel = channels[rng_.Index(channels.size())];
        const auto on = static_cast<SimTime>(
            rng_.Exponential(static_cast<double>(storm.mean_on)));
        mic.on_time = static_cast<Us>(t);
        mic.off_time = static_cast<Us>(std::min(end, t + std::max<SimTime>(
                                                          on, kTicksPerMs)));
        if (mic.off_time > mic.on_time) mics.push_back(mic);
        const auto off = static_cast<SimTime>(
            rng_.Exponential(static_cast<double>(storm.mean_off)));
        t = static_cast<SimTime>(mic.off_time) + std::max<SimTime>(off, 1);
      }
    }
  }
  std::sort(mics.begin(), mics.end(),
            [](const MicActivation& a, const MicActivation& b) {
              return a.on_time < b.on_time;
            });
  return mics;
}

std::vector<StormVenue> FaultInjector::ExpandPushStorms(
    const std::vector<UhfIndex>& channels) {
  std::vector<StormVenue> venues;
  if (channels.empty()) return venues;
  for (const PushStorm& storm : plan_.push_storms) {
    for (int v = 0; v < storm.venues; ++v) {
      // One fixed location and channel per churner: the same venue keeps
      // re-activating, which is how real schedules (performances at one
      // theater) behave — and what makes a push storm distinguishable
      // from random noise at the subscribers.
      StormVenue venue;
      venue.channel = channels[rng_.Index(channels.size())];
      const double r = storm.spread_km * std::sqrt(rng_.Uniform01());
      const double theta = rng_.Uniform(0.0, 2.0 * M_PI);
      venue.x_km = r * std::cos(theta);
      venue.y_km = r * std::sin(theta);
      venue.radius_km = storm.radius_km;
      SimTime t = storm.start;
      const SimTime end = storm.start + storm.duration;
      while (t < end) {
        const auto on = static_cast<SimTime>(
            rng_.Exponential(static_cast<double>(storm.mean_on)));
        StormVenue window = venue;
        window.from = static_cast<Us>(t);
        window.until = static_cast<Us>(
            std::min(end, t + std::max<SimTime>(on, kTicksPerMs)));
        if (window.until > window.from) venues.push_back(window);
        const auto off = static_cast<SimTime>(
            rng_.Exponential(static_cast<double>(storm.mean_off)));
        t = static_cast<SimTime>(window.until) + std::max<SimTime>(off, 1);
      }
    }
  }
  std::sort(venues.begin(), venues.end(),
            [](const StormVenue& a, const StormVenue& b) {
              return a.from < b.from;
            });
  return venues;
}

std::vector<FaultInjector::WindowEvent> FaultInjector::WindowEvents() const {
  std::vector<WindowEvent> events;
  auto add = [&events](const std::vector<FaultWindow>& windows,
                       const char* what) {
    for (const FaultWindow& w : windows) {
      events.push_back({w.from, true, what});
      events.push_back({w.until, false, what});
    }
  };
  add(plan_.scanner_outages, "scanner_outage");
  add(plan_.geodb_outages, "geodb_outage");
  add(plan_.frame_loss_windows, "frame_loss_window");
  for (const ChurnStorm& storm : plan_.storms) {
    if (storm.mics <= 0) continue;
    events.push_back({storm.start, true, "churn_storm"});
    events.push_back({storm.start + storm.duration, false, "churn_storm"});
  }
  for (const PushStorm& storm : plan_.push_storms) {
    if (storm.venues <= 0) continue;
    events.push_back({storm.start, true, "push_storm"});
    events.push_back({storm.start + storm.duration, false, "push_storm"});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const WindowEvent& a, const WindowEvent& b) {
                     return a.at < b.at;
                   });
  return events;
}

}  // namespace whitefi
