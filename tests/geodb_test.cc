// Tests for the geo-location incumbent database.
#include <gtest/gtest.h>

#include "geodb/service.h"
#include "geodb/session.h"
#include "sim/world.h"
#include "spectrum/geodb.h"
#include "util/stats.h"

namespace whitefi {
namespace {

TEST(GeoDb, DistanceAndContours) {
  EXPECT_DOUBLE_EQ(GeoDistanceKm({0, 0}, {3, 4}), 5.0);
  TvStation full_power{"WAAA", 5, {0, 0}, 100.0};
  EXPECT_DOUBLE_EQ(ProtectedRadiusKm(full_power), 60.0);
  TvStation quarter{"WBBB", 5, {0, 0}, 25.0};
  EXPECT_DOUBLE_EQ(ProtectedRadiusKm(quarter), 30.0);
}

TEST(GeoDb, QueryInsideAndOutsideContour) {
  GeoDatabase db;
  db.RegisterStation(TvStation{"WAAA", 7, {0, 0}, 100.0});  // 60 km contour.
  EXPECT_TRUE(db.QueryAt({10, 0}).Occupied(7));
  EXPECT_TRUE(db.QueryAt({60, 0}).Occupied(7));  // On the contour: protected.
  EXPECT_FALSE(db.QueryAt({61, 0}).Occupied(7));
  EXPECT_EQ(db.QueryAt({61, 0}).NumOccupied(), 0);
  EXPECT_EQ(db.StationsCovering({10, 0}).size(), 1u);
  EXPECT_TRUE(db.StationsCovering({100, 0}).empty());
}

TEST(GeoDb, OverlappingStationsUnion) {
  GeoDatabase db;
  db.RegisterStation(TvStation{"WAAA", 3, {0, 0}, 100.0});
  db.RegisterStation(TvStation{"WBBB", 9, {20, 0}, 100.0});
  const SpectrumMap map = db.QueryAt({10, 0});
  EXPECT_TRUE(map.Occupied(3));
  EXPECT_TRUE(map.Occupied(9));
  EXPECT_EQ(map.NumOccupied(), 2);
}

TEST(GeoDb, VenueProtectionIsTimeWindowed) {
  GeoDatabase db;
  ProtectedVenue venue{"theater", 12, {1, 1}, 2.0, 100.0 * kSecond,
                       200.0 * kSecond};
  db.RegisterVenue(venue);
  EXPECT_FALSE(db.QueryAt({1, 1}, 50.0 * kSecond).Occupied(12));
  EXPECT_TRUE(db.QueryAt({1, 1}, 150.0 * kSecond).Occupied(12));
  EXPECT_FALSE(db.QueryAt({1, 1}, 250.0 * kSecond).Occupied(12));
  // Outside the venue radius: unprotected even during the window.
  EXPECT_FALSE(db.QueryAt({10, 10}, 150.0 * kSecond).Occupied(12));
}

TEST(GeoDb, RejectsBadInput) {
  GeoDatabase db;
  EXPECT_THROW(db.RegisterStation(TvStation{"X", 30, {0, 0}, 10.0}),
               std::out_of_range);
  EXPECT_THROW(db.RegisterVenue(ProtectedVenue{"v", -1, {0, 0}, 1.0, 0, 1}),
               std::out_of_range);
  EXPECT_THROW(
      db.RegisterVenue(ProtectedVenue{"v", 3, {0, 0}, 1.0, 5.0, 5.0}),
      std::invalid_argument);
}

TEST(GeoDb, StaleBoundaryIsStrict) {
  // The staleness boundary is pinned STRICT: the FCC-style contract is
  // "re-query within T", so data whose age is exactly T is still trusted
  // and the session degrades only one tick past data_time + stale_after.
  World world;
  GeoDatabase db;
  db.RegisterStation(TvStation{"WAAA", 7, {0, 0}, 100.0});
  GeoDbService service(world.sim(), db, GeoDbServiceParams{}, 7, nullptr, {});
  Device& device = world.Create<Device>(DeviceConfig{});
  GeoDbSessionParams params;
  params.stale_after = 10.0 * kSecond;
  // No refresh falls due before the horizon, so no query can fail and
  // open the breaker: only the stale watchdog can degrade the session.
  params.refresh_interval = 60 * kTicksPerSec;
  params.refresh_jitter = 0.0;
  GeoDbSession session(world, device, service, {0, 0}, SpectrumMap{}, params,
                       21);
  service.Start();
  session.Start();
  ASSERT_EQ(session.data_time(), 0.0);  // Bootstrap data.
  world.sim().Run(10 * kTicksPerSec);
  EXPECT_EQ(session.mode(), GeoDbMode::kFresh);  // Exactly at: trusted.
  world.sim().Run(10 * kTicksPerSec + 1);
  EXPECT_EQ(session.mode(), GeoDbMode::kDegraded);  // One tick past: stale.
  EXPECT_EQ(session.breaker(), GeoDbBreaker::kClosed);
  EXPECT_EQ(session.refreshes(), 0);
}

TEST(GeoDb, ConservativeQueryWidensContoursAndIgnoresSchedules) {
  // Degraded mode on stale data must avoid more channels, never fewer.
  GeoDatabase db;
  db.RegisterStation(TvStation{"WAAA", 7, {0, 0}, 100.0});  // 60 km contour.
  // A venue whose protection window is closed at query time.
  db.RegisterVenue(ProtectedVenue{"hall", 12, {65, 0}, 2.0, 100.0 * kSecond,
                                  200.0 * kSecond});
  // 65 km out: outside the 60 km contour, inside the 70 km guarded one.
  const SpectrumMap exact = db.QueryAt({65, 0}, 0.0);
  const SpectrumMap conservative = db.QueryConservativeAt({65, 0}, 10.0);
  EXPECT_FALSE(exact.Occupied(7));
  EXPECT_FALSE(exact.Occupied(12));
  EXPECT_TRUE(conservative.Occupied(7));
  EXPECT_TRUE(conservative.Occupied(12));  // Closed venue treated as active.
}

TEST(GeoDb, ProtectedAtPointQuery) {
  // The point query backing the auditor's position-aware ground truth:
  // contour membership is inclusive, venue protection is gated on the
  // activity window.
  GeoDatabase db;
  db.RegisterStation(TvStation{"WAAA", 7, {0, 0}, 100.0});  // 60 km.
  db.RegisterVenue(ProtectedVenue{"theater", 12, {1, 1}, 2.0,
                                  100.0 * kSecond, 200.0 * kSecond});
  EXPECT_TRUE(db.ProtectedAt({60, 0}, 7, 0.0));
  EXPECT_FALSE(db.ProtectedAt({61, 0}, 7, 0.0));
  EXPECT_FALSE(db.ProtectedAt({60, 0}, 8, 0.0));
  EXPECT_FALSE(db.ProtectedAt({1, 1}, 12, 50.0 * kSecond));
  EXPECT_TRUE(db.ProtectedAt({1, 1}, 12, 150.0 * kSecond));
  EXPECT_FALSE(db.ProtectedAt({10, 10}, 12, 150.0 * kSecond));
}

TEST(GeoDb, MetroSynthesisShape) {
  Rng rng(42);
  const GeoDatabase db = SynthesizeMetro(MetroModel{}, rng);
  EXPECT_EQ(db.NumStations(), 18u);
  EXPECT_EQ(db.NumVenues(), 3u);
  // Downtown is crowded; 150 km out is nearly clear.
  const SpectrumMap downtown = db.QueryAt({0, 0});
  const SpectrumMap exurb = db.QueryAt({150, 0});
  EXPECT_GT(downtown.NumOccupied(), 8);
  EXPECT_LT(exurb.NumOccupied(), downtown.NumOccupied() / 2);
}

TEST(GeoDb, RadialGradientReproducesUrbanRuralDivide) {
  // The Figure 2 urban-to-rural gradient, from geometry: free spectrum
  // (and the widest fragment) grows with distance from the metro core.
  Rng rng(43);
  const GeoDatabase db = SynthesizeMetro(MetroModel{}, rng);
  const auto maps = MapsAlongRadial(db, 200.0, 9);
  ASSERT_EQ(maps.size(), 9u);
  EXPECT_GE(maps.back().NumFree(), maps.front().NumFree());
  EXPECT_GE(maps.back().WidestFragment(), maps.front().WidestFragment());
  // Averaged over several metros, the gradient is strict.
  RunningStats core_free, edge_free;
  for (int trial = 0; trial < 20; ++trial) {
    const GeoDatabase metro = SynthesizeMetro(MetroModel{}, rng);
    core_free.Add(metro.QueryAt({0, 0}).NumFree());
    edge_free.Add(metro.QueryAt({200, 0}).NumFree());
  }
  EXPECT_GT(edge_free.Mean(), core_free.Mean() + 5.0);
}

TEST(GeoDb, SpatialVariationEmergesNearContourEdges) {
  // Section 2.1, geometrically: query points a few km apart straddle
  // protection contours and observe different maps.  (Building-scale
  // variation additionally needs obstruction shadowing, which the campus
  // model covers with its calibrated per-building flips.)
  Rng rng(44);
  RunningStats hamming;
  for (int trial = 0; trial < 40; ++trial) {
    const GeoDatabase db = SynthesizeMetro(MetroModel{}, rng);
    const double d = rng.Uniform(30.0, 70.0);  // The urban fringe.
    const SpectrumMap a = db.QueryAt({d, 0.0});
    const SpectrumMap b = db.QueryAt({d + 5.0, 2.0});
    hamming.Add(SpectrumMap::HammingDistance(a, b));
  }
  // Clearly nonzero on average: geometry alone produces spatial variation.
  EXPECT_GT(hamming.Mean(), 0.5);
}

}  // namespace
}  // namespace whitefi
