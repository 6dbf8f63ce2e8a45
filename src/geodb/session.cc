#include "geodb/session.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace whitefi {

GeoDbSession::GeoDbSession(World& world, Device& device, GeoDbService& service,
                           GeoPoint origin_km, SpectrumMap base_map,
                           const GeoDbSessionParams& params,
                           std::uint64_t seed)
    : world_(world), device_(device), service_(service),
      origin_km_(origin_km), base_map_(base_map), params_(params),
      rng_(seed) {}

GeoPoint GeoDbSession::CurrentGeoPoint() const {
  const Position p = device_.Location();
  return GeoPoint{origin_km_.x_km + p.x / 1000.0,
                  origin_km_.y_km + p.y / 1000.0};
}

void GeoDbSession::Start() {
  // Provisioning query: synchronous, always served (wired bootstrap path).
  const GeoPoint here = CurrentGeoPoint();
  const GeoQueryResult boot = service_.Bootstrap(here, params_.guard_km);
  last_query_point_ = here;
  stations_ = boot.stations;
  conservative_ = boot.conservative;
  directory_ = boot.venues;
  data_time_ = boot.data_time;
  world_.RecordState(device_.NodeId(), "geodb-fresh");
  RecomputeRespected();
  ApplyToDevice();
  if (params_.subscribe_push) {
    service_.Subscribe(device_.NodeId(),
                       [this](const GeoPushUpdate& update) { OnPush(update); });
  }
  // Staleness watchdog for the bootstrap data (data_time = 0: an outage
  // that outlives stale_after degrades even if no refresh ever failed
  // visibly — though the timeout path will normally get there first).
  const std::uint64_t sg = ++stale_gen_;
  world_.sim().Schedule(
      ToTicks(data_time_ + params_.stale_after) + 1, [this, sg] {
        if (sg != stale_gen_) return;
        SetMode(GeoDbMode::kDegraded, "stale");
      });
  const SimTime first = static_cast<SimTime>(
      static_cast<double>(params_.refresh_interval) *
      (1.0 + params_.refresh_jitter * rng_.Uniform01()));
  ScheduleRefreshIn(first);
  world_.sim().ScheduleAfter(params_.enforce_interval,
                             [this] { EnforceTick(); });
}

void GeoDbSession::ScheduleRefreshIn(SimTime delay) {
  const std::uint64_t g = ++refresh_gen_;
  world_.sim().ScheduleAfter(std::max<SimTime>(1, delay), [this, g] {
    if (g != refresh_gen_) return;
    StartRefresh();
  });
}

void GeoDbSession::StartRefresh() {
  if (query_pending_) return;
  // A refresh attempted while the breaker is open is the half-open probe.
  if (breaker_ == GeoDbBreaker::kOpen) breaker_ = GeoDbBreaker::kHalfOpen;
  query_pending_ = true;
  const std::uint64_t g = ++query_gen_;
  const GeoPoint here = CurrentGeoPoint();
  service_.Query(device_.NodeId(), here, params_.guard_km,
                 [this, g, here](const GeoQueryResult& result) {
                   OnQueryResult(g, here, result);
                 });
  world_.sim().ScheduleAfter(params_.refresh_timeout,
                             [this, g] { OnQueryTimeout(g); });
}

void GeoDbSession::OnQueryResult(std::uint64_t generation, const GeoPoint& at,
                                 const GeoQueryResult& result) {
  if (generation != query_gen_ || !query_pending_) return;  // Timed out.
  query_pending_ = false;
  ++query_gen_;  // Invalidate the pending timeout.
  if (!result.ok) {
    Failure("shed");
    return;
  }
  Success(at, result);
}

void GeoDbSession::OnQueryTimeout(std::uint64_t generation) {
  if (generation != query_gen_ || !query_pending_) return;  // Answered.
  query_pending_ = false;
  ++query_gen_;  // A response arriving later is stale; drop it.
  Failure("timeout");
}

void GeoDbSession::Success(const GeoPoint& at, const GeoQueryResult& result) {
  failures_ = 0;
  breaker_ = GeoDbBreaker::kClosed;
  ++refreshes_;
  last_query_point_ = at;
  stations_ = result.stations;
  conservative_ = result.conservative;
  directory_ = result.venues;
  data_time_ = result.data_time;

  const SimTime now = world_.sim().Now();
  // Strict staleness boundary (see the header): age exactly at stale_after
  // is trusted, one tick past it is not.
  const SimTime stale_at = ToTicks(data_time_ + params_.stale_after) + 1;
  if (stale_at <= now) {
    // The service itself served data past the horizon: degraded even
    // though the query "succeeded".
    SetMode(GeoDbMode::kDegraded, "served-stale");
  } else {
    // Fresh data at a known position clears degraded AND blackout.
    SetMode(GeoDbMode::kFresh, "refresh");
    const std::uint64_t sg = ++stale_gen_;
    world_.sim().Schedule(stale_at, [this, sg] {
      if (sg != stale_gen_) return;
      SetMode(GeoDbMode::kDegraded, "stale");
    });
  }
  RecomputeRespected();
  ApplyToDevice();
  const SimTime next = static_cast<SimTime>(
      static_cast<double>(params_.refresh_interval) *
      (1.0 + params_.refresh_jitter * rng_.Uniform01()));
  ScheduleRefreshIn(next);
}

SimTime GeoDbSession::Backoff() {
  double delay = static_cast<double>(params_.backoff_base) *
                 std::pow(params_.backoff_factor,
                          std::max(0, failures_ - 1));
  delay = std::min(delay, static_cast<double>(params_.backoff_max));
  delay *= 1.0 + params_.backoff_jitter * (2.0 * rng_.Uniform01() - 1.0);
  last_backoff_ = std::max<SimTime>(1, static_cast<SimTime>(delay));
  return last_backoff_;
}

void GeoDbSession::Failure(const char* reason) {
  ++failures_;
  MetricsRegistry::Count(world_.metrics(), "whitefi.geodb.refresh_failures");
  if (breaker_ == GeoDbBreaker::kHalfOpen) {
    // The probe failed: back to open, next probe after another cooldown.
    breaker_ = GeoDbBreaker::kOpen;
    ScheduleRefreshIn(params_.breaker_cooldown);
    return;
  }
  if (failures_ >= params_.breaker_failures) {
    // Trip: stop hammering the service and stop trusting the cached map's
    // currency — fall back to the conservative set *now*, well before the
    // stale_after horizon would force it.
    breaker_ = GeoDbBreaker::kOpen;
    SetMode(GeoDbMode::kDegraded,
            (std::string("breaker-open:") + reason).c_str());
    ScheduleRefreshIn(params_.breaker_cooldown);
    return;
  }
  ScheduleRefreshIn(Backoff());
}

void GeoDbSession::OnPush(const GeoPushUpdate& update) {
  if (update.venue < 0) return;
  const auto index = static_cast<std::size_t>(update.venue);
  if (index >= directory_.size()) {
    // A venue registered after our last refresh: adopt it from the push
    // (pushes carry full geometry precisely so late subscribers converge).
    directory_.resize(index + 1);
  }
  GeoVenueInfo& info = directory_[index];
  info.index = update.venue;
  info.channel = update.channel;
  info.location = update.location;
  info.radius_km = update.radius_km;
  info.active = update.active;
  MetricsRegistry::Count(world_.metrics(), "whitefi.geodb.push_applied");
  RecomputeRespected();
  ApplyToDevice();
}

void GeoDbSession::OnMoved() {
  const double drift = GeoDistanceKm(CurrentGeoPoint(), last_query_point_);
  if (drift > params_.guard_km) {
    // The guarded map's validity proof is broken: nothing cached can be
    // trusted at this position.  Respect everything until a query lands.
    if (mode_ != GeoDbMode::kBlackout) {
      SetMode(GeoDbMode::kBlackout, "guard-exceeded");
    }
    if (!query_pending_ && breaker_ != GeoDbBreaker::kOpen) StartRefresh();
    return;
  }
  if (drift > params_.requery_km && !query_pending_ &&
      breaker_ == GeoDbBreaker::kClosed) {
    StartRefresh();
  }
}

void GeoDbSession::SetMode(GeoDbMode mode, const char* reason) {
  if (mode == mode_) return;
  const bool was_fresh = mode_ == GeoDbMode::kFresh;
  const bool now_fresh = mode == GeoDbMode::kFresh;
  mode_ = mode;
  const int node = device_.NodeId();
  const char* state = now_fresh ? "geodb-fresh"
                      : mode == GeoDbMode::kBlackout ? "geodb-blackout"
                                                     : "geodb-degraded";
  world_.RecordState(node, state);
  if (was_fresh && !now_fresh) {
    ++degraded_count_;
    MetricsRegistry::Count(world_.metrics(), "whitefi.geodb.degraded");
    episode_span_ = world_.NextTraceId();
    world_.TraceSpanBegin(node, episode_span_, 0, 0, "geodb.degraded");
    TraceEvent event;
    event.kind = TraceEventKind::kGeoDbDegraded;
    event.node = node;
    event.span_id = episode_span_;
    event.detail = reason;
    world_.TraceEventNow(std::move(event));
  } else if (!was_fresh && now_fresh) {
    ++recovered_count_;
    MetricsRegistry::Count(world_.metrics(), "whitefi.geodb.recovered");
    TraceEvent event;
    event.kind = TraceEventKind::kGeoDbRecovered;
    event.node = node;
    event.span_id = episode_span_;
    event.detail = reason;
    world_.TraceEventNow(std::move(event));
    world_.TraceSpanEnd(node, episode_span_, 0, "geodb.degraded");
    episode_span_ = 0;
  } else {
    // Deepening / easing within the non-fresh episode (degraded <->
    // blackout): annotate the open span, keep the counters quiet.
    TraceEvent event;
    event.kind = TraceEventKind::kGeoDbDegraded;
    event.node = node;
    event.span_id = episode_span_;
    event.detail = reason;
    world_.TraceEventNow(std::move(event));
  }
  // Every mode change alters what the device must respect.
  RecomputeRespected();
  ApplyToDevice();
}

void GeoDbSession::RecomputeRespected() {
  SpectrumMap next;
  switch (mode_) {
    case GeoDbMode::kBlackout:
      for (UhfIndex c = 0; c < kNumUhfChannels; ++c) next.SetOccupied(c, true);
      break;
    case GeoDbMode::kFresh:
    case GeoDbMode::kDegraded: {
      // Degraded widens the station base to the conservative map (which
      // also bakes in every venue near the *query* point); the directory
      // overlay below handles venues that came into range via movement or
      // activated via push, in both modes.
      next = mode_ == GeoDbMode::kFresh ? stations_ : conservative_;
      const GeoPoint here = CurrentGeoPoint();
      for (const GeoVenueInfo& v : directory_) {
        const bool respect =
            mode_ == GeoDbMode::kDegraded ? true : v.active;
        if (respect && GeoDistanceKm(here, v.location) <=
                           v.radius_km + params_.guard_km) {
          next.SetOccupied(v.channel, true);
        }
      }
      break;
    }
  }
  respected_ = next;
}

void GeoDbSession::ApplyToDevice() {
  const SpectrumMap previous = device_.config().tv_map;
  const SpectrumMap combined = base_map_.UnionWith(respected_);
  if (combined == previous) return;
  device_.SetTvMap(combined);
  const Channel& tuned = device_.TunedChannel();
  for (UhfIndex c = tuned.Low(); c <= tuned.High(); ++c) {
    if (combined.Occupied(c) && !previous.Occupied(c)) {
      device_.OnIncumbentDetected(c);
    }
  }
}

void GeoDbSession::EnforceTick() {
  // The AP's deferred-vacate re-check and World::SenseOnTune consult
  // World::MicAudible, which a geo-only protection never satisfies, so a
  // single OnIncumbentDetected can legitimately be swallowed (e.g. the AP
  // defers past an announce and then re-checks the mic).  Re-assert until
  // the device actually moves off the respected channel.
  const Channel& tuned = device_.TunedChannel();
  for (UhfIndex c = tuned.Low(); c <= tuned.High(); ++c) {
    if (respected_.Occupied(c)) {
      device_.OnIncumbentDetected(c);
      break;
    }
  }
  world_.sim().ScheduleAfter(params_.enforce_interval,
                             [this] { EnforceTick(); });
}

}  // namespace whitefi
