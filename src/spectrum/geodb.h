// Geo-location incumbent database.
//
// The paper (Section 3) notes the FCC's plan to "use a geo-location
// database to regulate and inform clients about the presence of primary
// users" — the mechanism that ultimately shipped in the TV-white-space
// rules and IEEE 802.11af.  This module implements that service: a
// registry of TV stations (protected contours derived from their
// transmit power) and schedulable protected wireless-mic venues, queryable
// by position and time to produce the SpectrumMap a device at that
// location must respect.
//
// It also provides a geometric alternative to the hand-calibrated campus
// model: spatial variation (Section 2.1) emerges naturally when nearby
// query points straddle protection contours.
#pragma once

#include <string>
#include <vector>

#include "spectrum/spectrum_map.h"
#include "util/rng.h"
#include "util/units.h"

namespace whitefi {

/// A point on the map, in kilometers.
struct GeoPoint {
  double x_km = 0.0;
  double y_km = 0.0;
};

/// Distance in kilometers.
double GeoDistanceKm(const GeoPoint& a, const GeoPoint& b);

/// A licensed TV transmitter.
struct TvStation {
  std::string call_sign;
  UhfIndex channel = 0;
  GeoPoint location;
  /// Effective radiated power in kW; sets the protected contour.
  double erp_kw = 100.0;
};

/// Radius (km) of a station's protected contour: the noise-limited service
/// area grows with the square root of radiated power (free-space field
/// strength falls off as 1/d), anchored at ~60 km for a full-power 100 kW
/// UHF station.
double ProtectedRadiusKm(const TvStation& station);

/// A registered wireless-mic venue: a channel protected within a small
/// radius during scheduled windows (e.g. a theater's performances).
struct ProtectedVenue {
  std::string name;
  UhfIndex channel = 0;
  GeoPoint location;
  double radius_km = 1.0;
  Us from = 0.0;
  Us until = 0.0;

  /// True iff the protection window covers time `t`.
  bool ActiveAt(Us t) const { return t >= from && t < until; }
};

/// The queryable database.
class GeoDatabase {
 public:
  GeoDatabase() = default;

  /// Registers a TV station.  Throws std::out_of_range for bad channels.
  void RegisterStation(const TvStation& station);

  /// Registers a protected mic venue.
  void RegisterVenue(const ProtectedVenue& venue);

  /// Channels a device at `where` must treat as incumbent-occupied at time
  /// `t` (TV contours plus active venue protections).
  SpectrumMap QueryAt(const GeoPoint& where, Us t = 0.0) const;

  /// Channels of the TV stations whose contour, inflated by `guard_km`,
  /// covers `where` — the station half of every map query below.
  SpectrumMap StationContoursAt(const GeoPoint& where, double guard_km) const;

  /// Movement-tolerant variant of QueryAt: both TV contours and the venues
  /// active at `t` are inflated by `guard_km`.  A mobile device that
  /// re-queries whenever it has moved more than `guard_km` from its last
  /// query point can treat this map as valid at its *current* position:
  /// any channel the exact query would protect there is already marked.
  SpectrumMap QueryGuardedAt(const GeoPoint& where, Us t,
                             double guard_km) const;

  /// Conservative variant for degraded operation on stale data: TV
  /// contours are inflated by `guard_km` and every registered venue is
  /// treated as active regardless of its schedule.  A device that cannot
  /// refresh must widen, not narrow, the set of channels it avoids.
  SpectrumMap QueryConservativeAt(const GeoPoint& where,
                                  double guard_km = 10.0) const;

  /// Point query: true iff `channel` is protected at `where` at time `t`
  /// (a station contour covers it, or an active venue does).  Equivalent
  /// to QueryAt(where, t).Occupied(channel) without building the map —
  /// the auditor's per-transmission ground-truth check calls this.
  bool ProtectedAt(const GeoPoint& where, UhfIndex channel, Us t) const;

  /// Stations whose protected contour covers `where`.
  std::vector<TvStation> StationsCovering(const GeoPoint& where) const;

  std::size_t NumStations() const { return stations_.size(); }
  std::size_t NumVenues() const { return venues_.size(); }

  /// Registered venues, in registration order (the index is the venue's
  /// stable identifier for push notifications).
  const std::vector<ProtectedVenue>& venues() const { return venues_; }

  /// Registered stations, in registration order.
  const std::vector<TvStation>& stations() const { return stations_; }

 private:
  std::vector<TvStation> stations_;
  std::vector<ProtectedVenue> venues_;
};

/// Parameters for synthesizing a metropolitan-area database.
struct MetroModel {
  int stations = 18;            ///< Transmitters in the metro core.
  double core_radius_km = 15.0; ///< Stations cluster near the core.
  double min_erp_kw = 10.0;
  double max_erp_kw = 1000.0;
  int venues = 3;               ///< Protected mic venues downtown.
};

/// Builds a synthetic metro database: stations on distinct channels around
/// the core, a few protected venues downtown.
GeoDatabase SynthesizeMetro(const MetroModel& model, Rng& rng);

/// Spectrum maps seen at increasing distances from the metro core — the
/// urban-to-rural gradient of Figure 2, derived from geometry.
std::vector<SpectrumMap> MapsAlongRadial(const GeoDatabase& db,
                                         double max_distance_km, int points,
                                         Us t = 0.0);

}  // namespace whitefi
