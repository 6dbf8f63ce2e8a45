// ShardEngine — the city-scale sharded federation.
//
// One World (Simulator + Medium + nodes) per spatial tile, advanced in
// rounds of one conservative horizon each:
//
//   round:   every tile runs sim.Run(target) — in parallel, one tile per
//            pool slot.  A tile touches only its own world and metrics
//            registry, plus its own sender slot in each neighbor's inbox,
//            so rounds share no mutable state.
//   barrier: the engine (serially) stages the scripted roams that fell
//            due and cancels their origin traffic; then every tile, in
//            parallel again, sorts its own inbox into the canonical
//            (time, src_tile, node, seq) order and applies it at its
//            horizon tick — ghost energy via Medium::InjectForeignEnergy,
//            roams as session handoffs.
//
// Determinism: the partition, the horizon, the canonical order and every
// per-tile seed derive from the scenario alone, and a barrier event only
// touches its destination tile.  `shards` only sets the thread-pool width
// mapping tiles onto threads; `--shards N` therefore produces
// byte-identical science to `--shards 1` (shard_test and the CI
// byte-identity leg pin this).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "core/ap.h"
#include "core/client.h"
#include "obs/event_trace.h"
#include "obs/metrics.h"
#include "sim/traffic.h"
#include "sim/world.h"
#include "util/parallel.h"

#include "shard/audit_fanout.h"
#include "shard/boundary.h"
#include "shard/city.h"
#include "shard/partition.h"

namespace whitefi::shard {

/// Federation configuration.
struct ShardEngineConfig {
  /// Worker threads mapping tiles to cores.  Purely an execution knob:
  /// results are byte-identical for every value >= 1.
  int shards = 1;
  MediumParams medium;
  /// Conservative horizon per round; 0 derives PhysicalLookaheadBound().
  SimTime horizon = 0;
  /// Attach one InvariantAuditor per AP cell (incumbent safety, chirp
  /// liveness, convergence, book conservation) through an AuditFanout.
  bool audit = false;
  AuditConfig audit_config;
  /// Attach a per-tile EventTrace; the summary reports exact totals.
  bool trace = false;
};

/// The sharded city simulation.
class ShardEngine {
 public:
  /// Generates the city and builds every tile world.  Throws
  /// std::invalid_argument on bad parameters (shards < 1, city
  /// validation failures, tile edge below the cutoff).
  ShardEngine(const CityParams& city, const ShardEngineConfig& config);
  ~ShardEngine();

  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  /// Advances the whole federation by `seconds` of simulated time.
  void Run(double seconds);

  /// Clears every tile's application-delivery counters (warmup cut).
  void ResetAppBytes();

  // -- Results -------------------------------------------------------------

  /// Deterministic run summary: integers only, identical for every shard
  /// count — the CI byte-identity diff target.  Never includes wall
  /// time or the shard count.
  std::string SummaryText() const;

  /// Counters summed across tiles, keyed by metric name.
  std::map<std::string, std::uint64_t> MergedCounters() const;

  /// Simulation events processed, summed across tiles.
  std::uint64_t EventsProcessed() const;

  /// Transmissions started, summed across tiles (ghosts included).
  std::uint64_t Transmissions() const;

  /// Application payload bytes delivered, summed across every cell.
  std::uint64_t AppBytesTotal() const;

  /// Payload bytes delivered within one cell's SSID.
  std::uint64_t CellAppBytes(int cell) const;

  /// Exact trace records offered across tiles (0 when tracing is off).
  std::uint64_t TraceTotal() const;

  std::uint64_t rounds() const { return rounds_; }
  std::uint64_t messages_shipped() const;
  std::uint64_t ghosts_injected() const;
  std::uint64_t roams_applied() const;

  bool audit_ok() const;
  std::uint64_t audit_violations() const;

  SimTime Now() const { return now_; }
  SimTime horizon() const { return horizon_; }
  int NumTiles() const { return layout_.partition.NumTiles(); }
  const CityLayout& layout() const { return layout_; }

  /// The tile's world (tests inspect books/metrics through it).
  World& tile_world(int tile) { return *tiles_[static_cast<std::size_t>(tile)]->world; }

 private:
  /// One cell's live protocol objects inside its tile.
  struct CellRuntime {
    int cell = -1;
    ApNode* ap = nullptr;
    std::vector<ClientNode*> clients;
    std::vector<std::unique_ptr<CbrSource>> cbr;
    std::vector<std::unique_ptr<SaturatedSource>> saturated;
    InvariantAuditor* auditor = nullptr;
  };

  /// A seam this tile's energy may cross: the neighbor, its rectangle and
  /// this tile's sender slot in the neighbor's inbox.
  struct Seam {
    int tile = 0;
    TileRect rect;
    std::size_t slot = 0;
  };

  struct Tile {
    int index = 0;
    std::unique_ptr<MetricsRegistry> metrics;
    std::unique_ptr<EventTrace> trace;
    std::unique_ptr<AuditFanout> fanout;
    std::unique_ptr<World> world;
    ShardOutbox outbox;
    /// Sender slots: kRoamSlot for the barrier's roam staging, then one
    /// per neighbor in Partition::Neighbors order.
    ShardInbox inbox;
    std::vector<Seam> seams;
    std::vector<CellRuntime> cells;
    // Events applied at this tile's barriers (its own barrier task only).
    std::uint64_t ghosts = 0;
    std::uint64_t roams = 0;

    Tile(int i, std::size_t senders) : index(i), outbox(i), inbox(senders) {}
  };

  static constexpr std::size_t kRoamSlot = 0;

  /// Where cell `c` lives: (tile, index within the tile's cell list).
  struct CellRef {
    int tile = -1;
    int index = -1;
  };

  void BuildTile(Tile& tile, const CityParams& city);
  void OnLocalEnergy(Tile& tile, const Medium::EnergyTapInfo& info);
  /// Serial: moves the roams due by `target` into their destination
  /// inboxes and deactivates their origin traffic.
  void StageRoams(SimTime target);
  /// One tile's barrier: drains its inbox in canonical order.
  void ApplyInbox(Tile& tile);
  void ApplyRoam(Tile& tile, const CrossShardEvent& event);
  CellRuntime& RuntimeOf(int cell);
  const CellRuntime& RuntimeOf(int cell) const;

  CityParams city_;
  ShardEngineConfig config_;
  CityLayout layout_;
  SimTime horizon_ = 0;
  Dbm cs_floor_ = 0.0;
  PropagationModel prop_;

  std::vector<std::unique_ptr<Tile>> tiles_;
  std::vector<CellRef> cell_refs_;
  std::unique_ptr<ThreadPool> pool_;

  SimTime now_ = 0;
  std::uint64_t rounds_ = 0;
  std::size_t roam_cursor_ = 0;
};

}  // namespace whitefi::shard
