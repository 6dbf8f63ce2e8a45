#include "geodb/service.h"

#include <algorithm>
#include <utility>

namespace whitefi {

GeoDbService::GeoDbService(Simulator& sim, const GeoDatabase& db,
                           const GeoDbServiceParams& params,
                           std::uint64_t seed, FaultInjector* faults,
                           const Observability& obs)
    : sim_(sim), db_(db), params_(params), rng_(seed), faults_(faults),
      obs_(obs) {}

bool GeoDbService::Reachable(SimTime now) const {
  return faults_ == nullptr || faults_->GeoDbAvailable(ToUs(now));
}

Us GeoDbService::ServedTime(Us now) const {
  Us served = now - params_.staleness;
  if (faults_ != nullptr) served = std::min(served, faults_->GeoDbServedTime(now));
  return std::max(0.0, served);
}

GeoQueryResult GeoDbService::Compute(const GeoPoint& where, double guard_km,
                                     Us data_time, Us active_at) const {
  GeoQueryResult result;
  result.ok = true;
  result.data_time = data_time;
  // Station contours only: venue occupancy travels as the directory below
  // so the client can track activations/deactivations against its own
  // (possibly moved) position.
  result.stations = db_.StationContoursAt(where, guard_km);
  result.conservative = db_.QueryConservativeAt(where, guard_km);
  const auto& venues = db_.venues();
  result.venues.reserve(venues.size());
  for (std::size_t i = 0; i < venues.size(); ++i) {
    const ProtectedVenue& v = venues[i];
    GeoVenueInfo info;
    info.index = static_cast<int>(i);
    info.channel = v.channel;
    info.location = v.location;
    info.radius_km = v.radius_km;
    // Activity is evaluated at *serve* time, not data_time: venue windows
    // are scheduled DB content, current even when contour data lags.
    info.active = v.ActiveAt(active_at);
    result.venues.push_back(info);
  }
  return result;
}

GeoQueryResult GeoDbService::Bootstrap(const GeoPoint& where,
                                       double guard_km) const {
  return Compute(where, guard_km, 0.0, 0.0);
}

void GeoDbService::Query(int /*node*/, const GeoPoint& where, double guard_km,
                         std::function<void(const GeoQueryResult&)> done) {
  ++queries_;
  MetricsRegistry::Count(obs_.metrics, "whitefi.geodb.queries");
  const SimTime now = sim_.Now();
  if (!Reachable(now)) {
    // Outage swallows the request; the client discovers it by timeout.
    ++lost_;
    MetricsRegistry::Count(obs_.metrics, "whitefi.geodb.lost");
    return;
  }
  if (pending_ >= params_.max_queue) {
    // Overload shed: a fast rejection, distinct from a timeout.
    ++shed_;
    MetricsRegistry::Count(obs_.metrics, "whitefi.geodb.shed");
    sim_.ScheduleAfter(params_.shed_latency,
                       [done = std::move(done)] { done(GeoQueryResult{}); });
    return;
  }
  // Load dependence counts the requests ALREADY pending: an unloaded
  // query costs exactly base_latency (modulo jitter).
  const double jitter =
      1.0 + params_.latency_jitter * (2.0 * rng_.Uniform01() - 1.0);
  const SimTime latency = std::max<SimTime>(
      1, static_cast<SimTime>(
             static_cast<double>(params_.base_latency +
                                 params_.per_pending_latency * pending_) *
             jitter));
  ++pending_;
  sim_.ScheduleAfter(latency, [this, where, guard_km,
                               done = std::move(done)] {
    --pending_;
    const SimTime at = sim_.Now();
    if (!Reachable(at)) {
      // The response was in flight when the outage hit: lost.
      ++lost_;
      MetricsRegistry::Count(obs_.metrics, "whitefi.geodb.lost");
      return;
    }
    const Us now_us = ToUs(at);
    done(Compute(where, guard_km, ServedTime(now_us), now_us));
  });
}

void GeoDbService::Subscribe(int node,
                             std::function<void(const GeoPushUpdate&)> on_push) {
  subscribers_.push_back(Subscriber{node, std::move(on_push)});
}

void GeoDbService::Start() {
  // Schedule the venue timeline: one push fan-out per activation edge.
  // Windows opening at t=0 still fire (Schedule clamps to Now()).
  const auto& venues = db_.venues();
  for (std::size_t i = 0; i < venues.size(); ++i) {
    const ProtectedVenue& v = venues[i];
    const int index = static_cast<int>(i);
    sim_.Schedule(ToTicks(v.from), [this, index] { EmitVenueEvent(index, true); });
    sim_.Schedule(ToTicks(v.until),
                  [this, index] { EmitVenueEvent(index, false); });
  }
}

void GeoDbService::EmitVenueEvent(int venue_index, bool active) {
  if (!params_.push_enabled) return;
  const ProtectedVenue& v = db_.venues()[static_cast<std::size_t>(venue_index)];
  GeoPushUpdate update;
  update.venue = venue_index;
  update.channel = v.channel;
  update.location = v.location;
  update.radius_km = v.radius_km;
  update.active = active;
  // Per-subscriber latency draws in subscription order (deterministic),
  // then the delivery itself checks reachability: a push launched into an
  // outage is lost, exactly like a query response.
  for (const Subscriber& sub : subscribers_) {
    const SimTime latency = static_cast<SimTime>(
        rng_.Uniform(static_cast<double>(params_.push_latency_min),
                     static_cast<double>(params_.push_latency_max)));
    sim_.ScheduleAfter(latency, [this, update, on_push = sub.on_push] {
      if (!Reachable(sim_.Now())) {
        ++lost_;
        MetricsRegistry::Count(obs_.metrics, "whitefi.geodb.lost");
        return;
      }
      ++pushes_;
      MetricsRegistry::Count(obs_.metrics, "whitefi.geodb.pushes");
      on_push(update);
    });
  }
}

}  // namespace whitefi
