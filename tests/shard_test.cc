// Tests for the city-scale sharded federation (src/shard): the spatial
// partition and its interference-cutoff tile floor, the cross-shard
// event boundary (canonical order, CS-floor crossing predicate), the
// ghost-energy semantics in Medium, and the engine's central contract —
// byte-identical science at every shard count.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "shard/boundary.h"
#include "shard/city.h"
#include "shard/engine.h"
#include "shard/partition.h"
#include "sim/events.h"
#include "sim/medium.h"
#include "sim/propagation.h"
#include "util/units.h"

namespace whitefi::shard {
namespace {

// ---------------------------------------------------------------------------
// Partition and lookahead.

TEST(PartitionTest, CutoffMatchesPathLossInverse) {
  PropagationParams prop;  // ref 28 dB, exponent 2.2, min distance 1 m.
  const double cutoff = InterferenceCutoffMeters(16.0, -85.0, prop);
  // Path loss at the cutoff brings 16 dBm exactly to the floor.
  const PropagationModel model(prop);
  EXPECT_NEAR(model.ReceivedPower(16.0, cutoff), -85.0, 1e-9);
  // And the closed form: d = 10^((tx - floor - ref) / (10 * exp)).
  EXPECT_NEAR(cutoff, std::pow(10.0, (16.0 + 85.0 - 28.0) / 22.0), 1e-6);
}

TEST(PartitionTest, MinTileEdgeUsesTheLowerCarrierSenseFloor) {
  MediumParams medium;  // same_channel -85 dBm, energy_detect -62 dBm.
  const double edge = MinTileEdgeMeters(medium, 16.0);
  EXPECT_NEAR(edge, InterferenceCutoffMeters(16.0, -85.0, medium.propagation),
              1e-9);
  // The -85 floor is the binding one: it admits energy from farther away.
  EXPECT_GT(edge, InterferenceCutoffMeters(16.0, -62.0, medium.propagation));
}

TEST(PartitionTest, LookaheadCoversAMaxFrameAtTheNarrowestWidth) {
  const SimTime bound = PhysicalLookaheadBound();
  EXPECT_GT(bound, 0);
  // 1500 bytes at kW5 — the longest airtime any single frame can take.
  EXPECT_GE(static_cast<double>(bound),
            PhyTiming::ForWidth(ChannelWidth::kW5).FrameDuration(1500));
}

TEST(PartitionTest, TilesCoverTheExtentAndClampOutOfRangePositions) {
  const Partition part(10000.0, 6000.0, 2100.0);
  EXPECT_EQ(part.cols(), 4);  // floor(10000 / 2100)
  EXPECT_EQ(part.rows(), 2);
  EXPECT_EQ(part.NumTiles(), 8);
  EXPECT_GE(part.tile_width_m(), 2100.0);
  EXPECT_GE(part.tile_height_m(), 2100.0);
  EXPECT_EQ(part.TileOf({0.0, 0.0}), 0);
  EXPECT_EQ(part.TileOf({9999.0, 5999.0}), part.NumTiles() - 1);
  // Clamped, never out of range.
  EXPECT_EQ(part.TileOf({-50.0, -50.0}), 0);
  EXPECT_EQ(part.TileOf({20000.0, 20000.0}), part.NumTiles() - 1);
  for (int t = 0; t < part.NumTiles(); ++t) {
    const TileRect r = part.Rect(t);
    EXPECT_LT(r.x0, r.x1);
    EXPECT_LT(r.y0, r.y1);
    EXPECT_EQ(part.TileOf({(r.x0 + r.x1) / 2.0, (r.y0 + r.y1) / 2.0}), t);
  }
}

TEST(PartitionTest, NeighborsAreThe8NeighborhoodSorted) {
  const Partition part(9000.0, 9000.0, 3000.0);  // 3 x 3 tiles.
  EXPECT_EQ(part.Neighbors(4), (std::vector<int>{0, 1, 2, 3, 5, 6, 7, 8}));
  EXPECT_EQ(part.Neighbors(0), (std::vector<int>{1, 3, 4}));
  EXPECT_EQ(part.Neighbors(8), (std::vector<int>{4, 5, 7}));
}

TEST(PartitionTest, DistanceToRectIsZeroInsideAndClampedOutside) {
  const TileRect rect{100.0, 100.0, 200.0, 200.0};
  EXPECT_EQ(DistanceToRect({150.0, 150.0}, rect), 0.0);
  EXPECT_NEAR(DistanceToRect({50.0, 150.0}, rect), 50.0, 1e-12);
  EXPECT_NEAR(DistanceToRect({250.0, 260.0}, rect),
              std::sqrt(50.0 * 50.0 + 60.0 * 60.0), 1e-12);
}

// ---------------------------------------------------------------------------
// Boundary predicate and canonical order.

TEST(BoundaryTest, EnergyExactlyAtTheFloorCrosses) {
  MediumParams medium;
  const PropagationModel prop(medium.propagation);
  const double cutoff =
      InterferenceCutoffMeters(16.0, medium.same_channel_cs_dbm,
                               medium.propagation);
  // A destination rect whose nearest edge sits exactly at the cutoff:
  // received power == the floor, and the medium's carrier sense uses >=,
  // so the boundary must ship it.
  const TileRect at{cutoff, -100.0, cutoff + 1000.0, 100.0};
  EXPECT_TRUE(EnergyCrossesBoundary(prop, 16.0, {0.0, 0.0}, at,
                                    medium.same_channel_cs_dbm));
  // One meter farther: below the floor, never shipped.
  const TileRect beyond{cutoff + 1.0, -100.0, cutoff + 1000.0, 100.0};
  EXPECT_FALSE(EnergyCrossesBoundary(prop, 16.0, {0.0, 0.0}, beyond,
                                     medium.same_channel_cs_dbm));
}

TEST(BoundaryTest, CanonicalOrderIsTimeTileNodeSeq) {
  auto make = [](SimTime t, int tile, int node, std::uint64_t seq) {
    CrossShardEvent e;
    e.time = t;
    e.src_tile = tile;
    e.node = node;
    e.seq = seq;
    return e;
  };
  // Staged across sender slots in an order the drain must not keep.
  ShardInbox inbox(3);
  inbox.Push(0, make(200, 0, 5, 0));
  inbox.Push(2, make(100, 1, 9, 3));
  inbox.Push(1, make(100, 0, 9, 2));
  inbox.Push(1, make(100, 0, 3, 7));
  std::vector<CrossShardEvent> events;
  inbox.Drain([&](const CrossShardEvent& e) { events.push_back(e); });
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].node, 3);   // (100, 0, 3, 7)
  EXPECT_EQ(events[1].seq, 2u);   // (100, 0, 9, 2)
  EXPECT_EQ(events[2].src_tile, 1);
  EXPECT_EQ(events[3].time, 200);
  // Draining empties every slot.
  inbox.Drain([](const CrossShardEvent&) { FAIL(); });
}

TEST(BoundaryTest, OutboxStampsTileAndMonotonicSeq) {
  ShardOutbox outbox(7);
  ShardInbox east(2);
  ShardInbox west(1);
  CrossShardEvent e;
  e.kind = CrossShardEvent::Kind::kRemoteEnergy;
  outbox.Send(e, east, 1);
  outbox.Send(e, west, 0);
  std::vector<CrossShardEvent> taken;
  const auto take = [&taken](const CrossShardEvent& event) {
    taken.push_back(event);
  };
  east.Drain(take);
  west.Drain(take);
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0].src_tile, 7);
  EXPECT_EQ(taken[0].seq, 0u);
  EXPECT_EQ(taken[1].src_tile, 7);
  EXPECT_EQ(taken[1].seq, 1u);
  // One stream across destinations and drains — seqs never repeat.
  taken.clear();
  outbox.Send(e, east, 0);
  east.Drain(take);
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0].seq, 2u);
}

// ---------------------------------------------------------------------------
// Ghost energy in the medium.

class GhostRadio : public RadioPort {
 public:
  GhostRadio(int id, Position pos, Channel channel, bool is_ap = false)
      : id_(id), pos_(pos), channel_(channel), is_ap_(is_ap) {}
  int NodeId() const override { return id_; }
  Position Location() const override { return pos_; }
  const Channel& TunedChannel() const override { return channel_; }
  bool RxEnabled() const override { return true; }
  bool IsAp() const override { return is_ap_; }
  void DeliverFrame(const Frame& frame, Dbm) override {
    delivered.push_back(frame);
  }
  void MediumChanged() override {}
  std::vector<Frame> delivered;

 private:
  int id_;
  Position pos_;
  Channel channel_;
  bool is_ap_;
};

TEST(GhostEnergyTest, SensedBookedNeverDeliveredNeverReExported) {
  Simulator sim;
  Medium medium(sim, MediumParams{});
  const Channel ch{10, ChannelWidth::kW5};
  GhostRadio rx(1, {0.0, 0.0}, ch);
  medium.Register(&rx);
  int energy_taps = 0;
  medium.AddEnergyTap([&](const Medium::EnergyTapInfo&) { ++energy_taps; });
  int frame_taps = 0;
  medium.AddFrameTap(
      [&](const Channel&, const Frame&, const RadioPort&) { ++frame_taps; });

  Frame f;
  f.type = FrameType::kData;
  f.src = 900001;
  f.dst = 900002;
  f.bytes = 1000;
  medium.InjectForeignEnergy(900001, /*is_ap=*/true, {50.0, 0.0}, ch, f,
                             16.0, 400);
  // Carrier present while the ghost is on the air...
  EXPECT_TRUE(medium.CarrierSensed(rx, ch));
  sim.Run(1000);
  // ...never delivered (the frame terminates in its owning shard),
  EXPECT_TRUE(rx.delivered.empty());
  // ...but visible to frame taps (scanners/chirp watches measure it),
  EXPECT_EQ(frame_taps, 1);
  // ...and the energy tap stays silent: a ghost must never be
  // re-exported, or two shards would echo energy forever.
  EXPECT_EQ(energy_taps, 0);
  // Booked airtime under the foreign node id, and ApIds includes the
  // foreign AP so B_c estimation counts it.
  const ChannelBooks& books = medium.ChannelBooksAt(10);
  ASSERT_TRUE(books.per_node.count(900001));
  EXPECT_NEAR(books.per_node.at(900001), 400.0, 1e-9);
  const std::vector<int> aps = medium.ApIds();
  EXPECT_NE(std::find(aps.begin(), aps.end(), 900001), aps.end());
}

TEST(GhostEnergyTest, LocalEnergyTapReportsExactPowerAndInterval) {
  Simulator sim;
  Medium medium(sim, MediumParams{});
  const Channel ch{3, ChannelWidth::kW5};
  GhostRadio tx(1, {10.0, 20.0}, ch, /*is_ap=*/true);
  medium.Register(&tx);
  std::vector<std::tuple<Dbm, SimTime, SimTime, int>> taps;
  medium.AddEnergyTap([&](const Medium::EnergyTapInfo& info) {
    taps.emplace_back(info.power, info.start, info.end, info.tx.NodeId());
  });
  sim.Schedule(100, [&] {
    Frame f;
    f.type = FrameType::kData;
    f.src = 1;
    f.bytes = 500;
    medium.Transmit(&tx, ch, f, 14.5, 250, [] {});
  });
  sim.Run(1000);
  ASSERT_EQ(taps.size(), 1u);
  EXPECT_EQ(std::get<0>(taps[0]), 14.5);
  EXPECT_EQ(std::get<1>(taps[0]), 100);
  EXPECT_EQ(std::get<2>(taps[0]), 350);
  EXPECT_EQ(std::get<3>(taps[0]), 1);
}

TEST(GhostEnergyTest, PerChannelBooksMatchTheFullSnapshotBitForBit) {
  Simulator sim;
  Medium medium(sim, MediumParams{});
  const Channel ch{5, ChannelWidth::kW10};  // Spans UHF indices 5 and 6.
  GhostRadio tx(1, {0.0, 0.0}, ch);
  medium.Register(&tx);
  Frame f;
  f.type = FrameType::kData;
  f.src = 1;
  f.bytes = 700;
  medium.Transmit(&tx, ch, f, 16.0, 321, [] {});
  medium.InjectForeignEnergy(777, false, {30.0, 0.0},
                             Channel{6, ChannelWidth::kW5}, f, 12.0, 100);
  sim.Run(500);
  const AirtimeBooks all = medium.SnapshotBooks();
  for (UhfIndex c = 0; c < kNumUhfChannels; ++c) {
    const ChannelBooks& one = medium.ChannelBooksAt(c);
    const ChannelBooks& full = all[static_cast<std::size_t>(c)];
    EXPECT_EQ(one.busy, full.busy) << "channel " << c;
    EXPECT_EQ(one.per_node, full.per_node) << "channel " << c;
  }
}

// ---------------------------------------------------------------------------
// City generation.

TEST(CityTest, LayoutIsDeterministicAndTileLocal) {
  CityParams params;
  params.num_aps = 30;
  params.width_m = 9000.0;
  params.height_m = 9000.0;
  params.num_mics = 3;
  params.num_roams = 4;
  const MediumParams medium;
  const CityLayout a = GenerateCity(params, medium);
  const CityLayout b = GenerateCity(params, medium);
  ASSERT_EQ(a.cells.size(), 30u);
  ASSERT_EQ(b.cells.size(), 30u);
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].ap.x, b.cells[i].ap.x);
    EXPECT_EQ(a.cells[i].ap.y, b.cells[i].ap.y);
    EXPECT_EQ(a.cells[i].main, b.cells[i].main);
    // Tile-locality: every client lives in its AP's tile, so the only
    // cross-tile traffic is undecodable ghost energy.
    for (const Position& c : a.cells[i].clients) {
      EXPECT_EQ(a.partition.TileOf(c), a.cells[i].tile);
    }
    EXPECT_EQ(a.partition.TileOf(a.cells[i].ap), a.cells[i].tile);
  }
  ASSERT_EQ(a.mics.size(), 3u);
  ASSERT_EQ(a.mic_tile.size(), 3u);
  ASSERT_EQ(a.roams.size(), 4u);
  for (const RoamPlan& r : a.roams) {
    EXPECT_NE(r.from_cell, r.to_cell);
    EXPECT_EQ(a.partition.TileOf(r.arrive), a.cells[r.to_cell].tile);
  }
}

TEST(CityTest, RejectsTileEdgeBelowTheCutoffAndRoamsWithoutCbr) {
  CityParams params;
  params.tile_m = 500.0;  // Far below the ~2 km cutoff at 16 dBm.
  // The floor needs the medium's propagation model, so the rejection
  // happens at generation time.
  EXPECT_THROW(GenerateCity(params, MediumParams{}), std::invalid_argument);
  CityParams sat;
  sat.traffic = "saturated";
  sat.num_roams = 1;
  EXPECT_THROW(ValidateCityParams(sat), std::invalid_argument);
  CityParams bad;
  bad.traffic = "bursty";
  EXPECT_THROW(ValidateCityParams(bad), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The engine: shard-count invariance.

CityParams SmallCity() {
  CityParams params;
  params.seed = 11;
  params.width_m = 9000.0;
  params.height_m = 9000.0;  // ~4x4 tiles at the default cutoff.
  params.num_aps = 24;
  params.clients_per_ap = 2;
  params.num_mics = 2;
  params.mic_start_s = 0.5;
  params.mic_period_s = 0.5;
  params.mic_duration_s = 0.5;
  params.num_roams = 2;
  params.roam_start_s = 0.5;
  params.roam_period_s = 0.5;
  return params;
}

TEST(ShardEngineTest, SummariesAndBooksAreInvariantAcrossShardCounts) {
  const CityParams city = SmallCity();
  ShardEngineConfig config;
  config.trace = true;
  std::vector<std::unique_ptr<ShardEngine>> engines;
  for (int shards : {1, 2, 4}) {
    config.shards = shards;
    engines.push_back(std::make_unique<ShardEngine>(city, config));
    engines.back()->Run(1.5);
  }
  ShardEngine& ref = *engines[0];
  EXPECT_GT(ref.EventsProcessed(), 0u);
  EXPECT_GT(ref.ghosts_injected(), 0u);
  EXPECT_EQ(ref.roams_applied(), 2u);
  for (std::size_t i = 1; i < engines.size(); ++i) {
    ShardEngine& other = *engines[i];
    // The whole deterministic summary, byte for byte.
    EXPECT_EQ(ref.SummaryText(), other.SummaryText()) << "shards differ";
    // Merged metrics: every counter, exact.
    EXPECT_EQ(ref.MergedCounters(), other.MergedCounters());
    // Exact trace record counts (TotalSeen is cap-independent).
    EXPECT_EQ(ref.TraceTotal(), other.TraceTotal());
    EXPECT_EQ(ref.EventsProcessed(), other.EventsProcessed());
    EXPECT_EQ(ref.messages_shipped(), other.messages_shipped());
    // Airtime books bit-equal in every tile world: the union busy time
    // and every per-node entry, ghosts included.
    ASSERT_EQ(ref.NumTiles(), other.NumTiles());
    for (int t = 0; t < ref.NumTiles(); ++t) {
      const AirtimeBooks a = ref.tile_world(t).medium().SnapshotBooks();
      const AirtimeBooks b = other.tile_world(t).medium().SnapshotBooks();
      for (UhfIndex c = 0; c < kNumUhfChannels; ++c) {
        const auto ci = static_cast<std::size_t>(c);
        EXPECT_EQ(a[ci].busy, b[ci].busy) << "tile " << t << " ch " << c;
        EXPECT_EQ(a[ci].per_node, b[ci].per_node)
            << "tile " << t << " ch " << c;
      }
    }
  }
}

TEST(ShardEngineTest, RoamsApplyAtTheFollowingHorizonTick) {
  CityParams city = SmallCity();
  city.num_mics = 0;
  city.num_roams = 1;
  city.roam_start_s = 0.25;
  ShardEngineConfig config;
  ShardEngine engine(city, config);
  const RoamPlan& plan = engine.layout().roams[0];
  // Run to just before the roam falls due: nothing applied yet.
  const double before_s =
      static_cast<double>(plan.at - 1) / static_cast<double>(kTicksPerSec);
  engine.Run(before_s);
  EXPECT_EQ(engine.roams_applied(), 0u);
  // One more horizon round covers plan.at; the handoff lands at that
  // barrier, never mid-round.
  engine.Run(static_cast<double>(engine.horizon()) /
             static_cast<double>(kTicksPerSec));
  EXPECT_EQ(engine.roams_applied(), 1u);
  EXPECT_GE(engine.Now(), plan.at);
}

/// FNV-1a 64 of a summary text.
std::uint64_t SummaryHash(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// SmallCity with a scripted roam at almost every barrier: the roam
/// period is just under one horizon (~8.1 ms).
CityParams RoamEveryRoundCity() {
  CityParams params = SmallCity();
  params.num_roams = 100;
  params.roam_start_s = 0.01;
  params.roam_period_s = 0.008;
  return params;
}

TEST(ShardEngineTest, RoamEveryRoundMatchesGoldenSummaries) {
  // A one-tile city makes every roam intra-tile: its origin cancel and
  // its destination handoff hit the same world.
  CityParams one_tile = RoamEveryRoundCity();
  one_tile.width_m = 3000.0;
  one_tile.height_m = 3000.0;
  one_tile.num_aps = 4;
  one_tile.num_roams = 50;
  ASSERT_EQ(GenerateCity(one_tile, MediumParams{}).partition.NumTiles(), 1);
  // Hashes of SummaryText() recorded with the serial global barrier
  // (every event of a round sorted together, then applied one by one);
  // the per-destination barrier must reproduce them at every shard count.
  const struct {
    const char* name;
    CityParams city;
    double seconds;
    std::uint64_t hash;
  } cases[] = {
      {"grid", RoamEveryRoundCity(), 1.0, 0x3fae53162dbcbe46ull},
      {"one_tile", one_tile, 0.5, 0x3afee7b053fa6870ull},
  };
  for (const auto& c : cases) {
    for (const int shards : {1, 2, 4}) {
      ShardEngineConfig config;
      config.shards = shards;
      config.audit = true;
      ShardEngine engine(c.city, config);
      engine.Run(c.seconds);
      EXPECT_EQ(engine.roams_applied(), engine.layout().roams.size());
      EXPECT_EQ(SummaryHash(engine.SummaryText()), c.hash)
          << c.name << " at " << shards << " shards: 0x" << std::hex
          << SummaryHash(engine.SummaryText()) << "\n"
          << engine.SummaryText();
    }
  }
}

TEST(ShardEngineTest, RoamsLandInTilesReceivingGhostsTheSameRound) {
  // Pins that the golden grid city above exercises a roam applied in the
  // same barrier as ghost energy bound for the same tile.
  const CityParams city = RoamEveryRoundCity();
  ShardEngineConfig config;
  ShardEngine engine(city, config);
  const auto ghosts_at = [&engine](int tile) {
    return engine.tile_world(tile)
        .metrics()
        ->GetCounter("whitefi.medium.foreign_energy")
        .value();
  };
  int shared_rounds = 0;
  std::size_t roams_seen = 0;
  while (roams_seen < engine.layout().roams.size()) {
    std::vector<std::uint64_t> before;
    for (int t = 0; t < engine.NumTiles(); ++t) before.push_back(ghosts_at(t));
    engine.Run(static_cast<double>(engine.horizon()) / kTicksPerSec);
    for (; roams_seen < engine.roams_applied(); ++roams_seen) {
      const RoamPlan& roam = engine.layout().roams[roams_seen];
      const int tile = engine.layout().cells[roam.to_cell].tile;
      if (ghosts_at(tile) > before[static_cast<std::size_t>(tile)]) {
        ++shared_rounds;
      }
    }
  }
  EXPECT_GT(shared_rounds, 50);
}

TEST(ShardEngineTest, AuditedRunHoldsEveryInvariant) {
  CityParams city = SmallCity();
  ShardEngineConfig config;
  config.shards = 2;
  config.audit = true;
  ShardEngine engine(city, config);
  engine.Run(1.0);
  EXPECT_TRUE(engine.audit_ok()) << engine.audit_violations()
                                 << " violation(s)";
}

TEST(ShardEngineTest, ResetAppBytesCutsTheWarmup) {
  CityParams city = SmallCity();
  city.num_mics = 0;
  city.num_roams = 0;
  ShardEngineConfig config;
  ShardEngine engine(city, config);
  engine.Run(0.5);
  EXPECT_GT(engine.AppBytesTotal(), 0u);
  engine.ResetAppBytes();
  EXPECT_EQ(engine.AppBytesTotal(), 0u);
  engine.Run(0.5);
  EXPECT_GT(engine.AppBytesTotal(), 0u);
}

TEST(ShardEngineTest, RejectsNonPositiveShardCount) {
  ShardEngineConfig config;
  config.shards = 0;
  EXPECT_THROW(ShardEngine(SmallCity(), config), std::invalid_argument);
}

}  // namespace
}  // namespace whitefi::shard
