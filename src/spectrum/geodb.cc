#include "spectrum/geodb.h"

#include <cmath>
#include <stdexcept>

namespace whitefi {

double GeoDistanceKm(const GeoPoint& a, const GeoPoint& b) {
  const double dx = a.x_km - b.x_km;
  const double dy = a.y_km - b.y_km;
  return std::sqrt(dx * dx + dy * dy);
}

double ProtectedRadiusKm(const TvStation& station) {
  // Anchored: 100 kW -> 60 km; field strength ~ sqrt(ERP)/d, so the
  // contour radius scales with sqrt(ERP).
  return 60.0 * std::sqrt(station.erp_kw / 100.0);
}

void GeoDatabase::RegisterStation(const TvStation& station) {
  if (!IsValidUhfIndex(station.channel)) {
    throw std::out_of_range("station channel out of range");
  }
  stations_.push_back(station);
}

void GeoDatabase::RegisterVenue(const ProtectedVenue& venue) {
  if (!IsValidUhfIndex(venue.channel)) {
    throw std::out_of_range("venue channel out of range");
  }
  if (venue.until <= venue.from) {
    throw std::invalid_argument("venue window must be non-empty");
  }
  venues_.push_back(venue);
}

SpectrumMap GeoDatabase::QueryAt(const GeoPoint& where, Us t) const {
  // Bit-equal to an unguarded scan: R + 0.0 == R.
  return QueryGuardedAt(where, t, 0.0);
}

SpectrumMap GeoDatabase::StationContoursAt(const GeoPoint& where,
                                           double guard_km) const {
  SpectrumMap map;
  for (const TvStation& station : stations_) {
    if (GeoDistanceKm(where, station.location) <=
        ProtectedRadiusKm(station) + guard_km) {
      map.SetOccupied(station.channel);
    }
  }
  return map;
}

SpectrumMap GeoDatabase::QueryGuardedAt(const GeoPoint& where, Us t,
                                        double guard_km) const {
  SpectrumMap map = StationContoursAt(where, guard_km);
  for (const ProtectedVenue& venue : venues_) {
    if (venue.ActiveAt(t) &&
        GeoDistanceKm(where, venue.location) <= venue.radius_km + guard_km) {
      map.SetOccupied(venue.channel);
    }
  }
  return map;
}

SpectrumMap GeoDatabase::QueryConservativeAt(const GeoPoint& where,
                                             double guard_km) const {
  SpectrumMap map = StationContoursAt(where, guard_km);
  for (const ProtectedVenue& venue : venues_) {
    // Schedules may have changed since the data was fetched; assume the
    // protection is live.
    if (GeoDistanceKm(where, venue.location) <= venue.radius_km + guard_km) {
      map.SetOccupied(venue.channel);
    }
  }
  return map;
}

bool GeoDatabase::ProtectedAt(const GeoPoint& where, UhfIndex channel,
                              Us t) const {
  for (const TvStation& station : stations_) {
    if (station.channel == channel &&
        GeoDistanceKm(where, station.location) <= ProtectedRadiusKm(station)) {
      return true;
    }
  }
  for (const ProtectedVenue& venue : venues_) {
    if (venue.channel == channel && venue.ActiveAt(t) &&
        GeoDistanceKm(where, venue.location) <= venue.radius_km) {
      return true;
    }
  }
  return false;
}

std::vector<TvStation> GeoDatabase::StationsCovering(
    const GeoPoint& where) const {
  std::vector<TvStation> covering;
  for (const TvStation& station : stations_) {
    if (GeoDistanceKm(where, station.location) <= ProtectedRadiusKm(station)) {
      covering.push_back(station);
    }
  }
  return covering;
}

GeoDatabase SynthesizeMetro(const MetroModel& model, Rng& rng) {
  GeoDatabase db;
  std::vector<UhfIndex> channels(kNumUhfChannels);
  for (UhfIndex c = 0; c < kNumUhfChannels; ++c) {
    channels[static_cast<std::size_t>(c)] = c;
  }
  rng.Shuffle(channels);
  const int stations = std::min(model.stations, kNumUhfChannels);
  for (int i = 0; i < stations; ++i) {
    TvStation station;
    station.call_sign = "W" + std::to_string(10 + i) + "XX";
    station.channel = channels[static_cast<std::size_t>(i)];
    const double r = model.core_radius_km * std::sqrt(rng.Uniform01());
    const double theta = rng.Uniform(0.0, 2.0 * M_PI);
    station.location = {r * std::cos(theta), r * std::sin(theta)};
    // Log-uniform power: a few blowtorches, many low-power stations.
    station.erp_kw = model.min_erp_kw *
                     std::pow(model.max_erp_kw / model.min_erp_kw,
                              rng.Uniform01());
    db.RegisterStation(station);
  }
  for (int i = 0; i < model.venues; ++i) {
    ProtectedVenue venue;
    venue.name = "venue-" + std::to_string(i);
    venue.channel = channels[static_cast<std::size_t>(
        (stations + i) % kNumUhfChannels)];
    venue.location = {rng.Uniform(-3.0, 3.0), rng.Uniform(-3.0, 3.0)};
    venue.radius_km = rng.Uniform(0.3, 1.5);
    venue.from = rng.Uniform(0.0, 3600.0) * kSecond;
    venue.until = venue.from + rng.Uniform(1800.0, 7200.0) * kSecond;
    db.RegisterVenue(venue);
  }
  return db;
}

std::vector<SpectrumMap> MapsAlongRadial(const GeoDatabase& db,
                                         double max_distance_km, int points,
                                         Us t) {
  std::vector<SpectrumMap> maps;
  for (int i = 0; i < points; ++i) {
    const double d = points > 1
                         ? max_distance_km * static_cast<double>(i) /
                               static_cast<double>(points - 1)
                         : 0.0;
    maps.push_back(db.QueryAt(GeoPoint{d, 0.0}, t));
  }
  return maps;
}

}  // namespace whitefi
