// The deterministic cross-shard event boundary.
//
// During a round each tile's world runs alone on its thread; everything
// that must cross a tile seam is staged as a timestamped CrossShardEvent
// in the DESTINATION tile's inbox, stamped by the source tile's outbox
// with (src_tile, seq).  At the barrier every destination sorts its own
// inbox into the canonical order (time, src_tile, node, seq) and applies
// it at its horizon tick.  Each tile owns its simulator, RNG, medium and
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
//    below does not).  Re-emitted as ghost energy via
//    Medium::InjectForeignEnergy: sensed, booked and frame-tapped at the
//    destination (so scanners measure it and chirp watches hear roamers'
//    chirps), never delivered, never re-exported.
//  * Roam — a scripted client session handoff between cells.  The origin
//    cell's traffic is deactivated when the roam is staged; the event
//    brings up a new client in the destination cell.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/frame.h"
#include "sim/medium.h"
#include "sim/propagation.h"
#include "spectrum/channel.h"
#include "util/units.h"

#include "shard/partition.h"

namespace whitefi::shard {

/// One event crossing a tile seam.
struct CrossShardEvent {
  enum class Kind { kRemoteEnergy, kRoam };

  Kind kind = Kind::kRemoteEnergy;
  SimTime time = 0;        ///< Origin-tile simulated time of the event.
  int src_tile = 0;
  int node = 0;            ///< Transmitter id, or the roaming client id.
  std::uint64_t seq = 0;   ///< Per-source emission sequence (tie-break).

  // -- RemoteEnergy payload ------------------------------------------------
  bool is_ap = false;
  Position position;       ///< Transmitter location (for path loss).
  Channel channel{0, ChannelWidth::kW5};
  Frame frame;
  Dbm tx_power = 0.0;
  SimTime duration = 0;    ///< Full original air time.

  // -- Roam payload --------------------------------------------------------
  int from_cell = -1;
  int to_cell = -1;
  int client_slot = -1;    ///< Index of the client within from_cell.
};

/// The canonical application order: (time, src_tile, node, seq).  Total
/// over events from one run because `seq` is unique per (src_tile).
bool CanonicalBefore(const CrossShardEvent& a, const CrossShardEvent& b);

/// True iff energy from a transmitter at `from` with `tx_power` reaches
/// the carrier-sense floor anywhere inside `dst` — evaluated at the
/// nearest point of the rectangle, since path loss is monotone in
/// distance.  Received power exactly AT the floor ships (>=): the medium
/// senses carrier at the threshold, so the boundary must too.
bool EnergyCrossesBoundary(const PropagationModel& prop, Dbm tx_power,
                           const Position& from, const TileRect& dst,
                           Dbm floor_dbm);

/// One destination tile's events for the coming barrier, staged per
/// sender so that every slot has a single writer and a round stages
/// without locks.  Only the destination's own barrier task drains it.
class ShardInbox {
 public:
  explicit ShardInbox(std::size_t senders) : slots_(senders) {}

  /// Stages `event` in slot `sender`.
  void Push(std::size_t sender, CrossShardEvent event) {
    slots_[sender].push_back(std::move(event));
  }

  /// Hands every staged event to `apply` in the canonical order, then
  /// empties the inbox.
  void Drain(const std::function<void(const CrossShardEvent&)>& apply);

 private:
  std::vector<std::vector<CrossShardEvent>> slots_;
  std::vector<const CrossShardEvent*> order_;  ///< Drain scratch.
};

/// One source tile's sequence stream: the (src_tile, seq) half of the
/// canonical key, shared by every destination the tile sends to.
class ShardOutbox {
 public:
  explicit ShardOutbox(int src_tile) : src_tile_(src_tile) {}

  /// Stamps src_tile and the next sequence number, then stages the event
  /// in slot `sender` of `inbox`.
  void Send(CrossShardEvent event, ShardInbox& inbox, std::size_t sender);

  int src_tile() const { return src_tile_; }

 private:
  int src_tile_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace whitefi::shard
