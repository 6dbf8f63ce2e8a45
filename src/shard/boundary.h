// The deterministic cross-shard event boundary.
//
// During a round each tile's world runs alone on its thread; everything
// that must cross a tile seam is staged as a 32-byte timestamped key in
// the DESTINATION tile's inbox, stamped by the source tile's outbox with
// (src_tile, seq).  At the barrier every destination sorts its own inbox
// into the canonical order (time, src_tile, node, seq) and applies it at
// its horizon tick.  Each tile owns its simulator, RNG, medium and
// node-id range, so only the order within one destination can matter;
// because the partition, the horizon and the canonical order are all
// functions of the scenario — never of the shard count — any `--shards N`
// run applies the identical event sequence in every tile and the
// federation is byte-identical to the serial run.
//
// Two event kinds cross a seam:
//  * RemoteEnergy — a completed local transmission whose received power
//    at the nearest point of a neighbor tile still reaches the
//    carrier-sense floor (energy exactly AT the floor crosses; an epsilon
//    below does not).  The source tile logs its payload once per round,
//    under one seq, and every destination's key indexes that one log
//    entry.  Destinations read their neighbors' logs at the barrier, when
//    no tile writes, and re-emit the energy as ghost energy via
//    Medium::InjectForeignEnergy: sensed, booked and frame-tapped at the
//    destination (so scanners measure it and chirp watches hear roamers'
//    chirps), never delivered, never re-exported.  A tile clears its log
//    when its next round starts.
//  * Roam — a scripted client session handoff between cells; its key
//    indexes CityLayout::roams.  The origin cell's traffic is
//    deactivated when the roam is staged; the event brings up a new
//    client in the destination cell.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/frame.h"
#include "sim/medium.h"
#include "sim/propagation.h"
#include "spectrum/channel.h"
#include "util/units.h"

#include "shard/partition.h"

namespace whitefi::shard {

/// The key of one event crossing a tile seam; its payload stays behind
/// in the source tile's log (energy) or the city layout (roam).
struct CrossShardEvent {
  enum class Kind : std::uint8_t { kRemoteEnergy, kRoam };

  SimTime time = 0;        ///< Origin-tile simulated time of the event.
  int src_tile = 0;
  int node = 0;            ///< Transmitter id, or the roaming client id.
  std::uint64_t seq = 0;   ///< Per-source emission sequence (tie-break).
  /// kRemoteEnergy: the entry in the source tile's log; kRoam: the plan
  /// in CityLayout::roams.
  std::uint32_t index = 0;
  Kind kind = Kind::kRemoteEnergy;
};
static_assert(sizeof(CrossShardEvent) <= 32,
              "an inbox key must stay one half cache line");

/// The payload of one crossing transmission: what a destination needs to
/// re-emit it as ghost energy.
struct RemoteEnergy {
  bool is_ap = false;
  Position position;       ///< Transmitter location (for path loss).
  Channel channel{0, ChannelWidth::kW5};
  Frame frame;
  Dbm tx_power = 0.0;
  SimTime duration = 0;    ///< Full original air time.
};

/// The canonical application order: (time, src_tile, node, seq).  Total
/// over one inbox's keys: a source stamps each transmission or roam with
/// its own `seq`, and an inbox receives each at most once.
bool CanonicalBefore(const CrossShardEvent& a, const CrossShardEvent& b);

/// True iff energy from a transmitter at `from` with `tx_power` reaches
/// the carrier-sense floor anywhere inside `dst` — evaluated at the
/// nearest point of the rectangle, since path loss is monotone in
/// distance.  Received power exactly AT the floor ships (>=): the medium
/// senses carrier at the threshold, so the boundary must too.
bool EnergyCrossesBoundary(const PropagationModel& prop, Dbm tx_power,
                           const Position& from, const TileRect& dst,
                           Dbm floor_dbm);

/// One destination tile's keys for the coming barrier, staged per sender
/// so that every slot has a single writer and a round stages without
/// locks.  Only the destination's own barrier task drains it.
class ShardInbox {
 public:
  explicit ShardInbox(std::size_t senders) : slots_(senders) {}

  /// Stages `event` in slot `sender`.
  void Push(std::size_t sender, const CrossShardEvent& event) {
    slots_[sender].push_back(event);
  }

  /// Hands every staged key to `apply` in the canonical order, then
  /// empties the inbox.
  template <typename Apply>
  void Drain(Apply&& apply) {
    Sort();
    for (const CrossShardEvent& event : order_) apply(event);
  }

 private:
  /// Moves every slot's keys into `order_`, sorted canonically.
  void Sort();

  std::vector<std::vector<CrossShardEvent>> slots_;
  std::vector<CrossShardEvent> order_;  ///< Drain scratch.
};

/// One source tile's sequence stream, the (src_tile, seq) half of the
/// canonical key shared by every destination the tile sends to, and the
/// round's log of its crossing transmissions.
class ShardOutbox {
 public:
  explicit ShardOutbox(int src_tile) : src_tile_(src_tile) {}

  /// Logs one crossing transmission that ended at `time` and returns its
  /// key: src_tile, the next seq and the log index stamped.  Every
  /// destination is sent a copy of this one key.
  CrossShardEvent Log(SimTime time, int node, RemoteEnergy energy);

  /// Returns a key for the roam of `node` planned at `plan`, stamped from
  /// the same sequence stream.
  CrossShardEvent Roam(SimTime time, int node, std::uint32_t plan);

  /// A transmission logged this round.  Destinations read it at the
  /// barrier, while no tile writes its log.
  const RemoteEnergy& Logged(std::uint32_t index) const {
    return log_[index];
  }

  /// Forgets the last round's log; the tile's next round calls it first.
  void ClearLog() { log_.clear(); }

 private:
  CrossShardEvent Stamp(CrossShardEvent::Kind kind, SimTime time, int node,
                        std::uint32_t index);

  int src_tile_;
  std::uint64_t next_seq_ = 0;
  std::vector<RemoteEnergy> log_;
};

}  // namespace whitefi::shard
