#include "shard/boundary.h"

#include <algorithm>
#include <tuple>
#include <utility>

namespace whitefi::shard {

bool CanonicalBefore(const CrossShardEvent& a, const CrossShardEvent& b) {
  return std::tie(a.time, a.src_tile, a.node, a.seq) <
         std::tie(b.time, b.src_tile, b.node, b.seq);
}

bool EnergyCrossesBoundary(const PropagationModel& prop, Dbm tx_power,
                           const Position& from, const TileRect& dst,
                           Dbm floor_dbm) {
  const double meters = DistanceToRect(from, dst);
  return prop.ReceivedPower(tx_power, meters) >= floor_dbm;
}

void ShardInbox::Sort() {
  order_.clear();
  for (std::vector<CrossShardEvent>& slot : slots_) {
    order_.insert(order_.end(), slot.begin(), slot.end());
    slot.clear();
  }
  // Keys are unique (a source stamps each transmission or roam with its
  // own seq and sends it here at most once), so the order is total.
  std::sort(order_.begin(), order_.end(), CanonicalBefore);
}

CrossShardEvent ShardOutbox::Stamp(CrossShardEvent::Kind kind, SimTime time,
                                   int node, std::uint32_t index) {
  CrossShardEvent event;
  event.time = time;
  event.src_tile = src_tile_;
  event.node = node;
  event.seq = next_seq_++;
  event.index = index;
  event.kind = kind;
  return event;
}

CrossShardEvent ShardOutbox::Log(SimTime time, int node,
                                 RemoteEnergy energy) {
  log_.push_back(std::move(energy));
  return Stamp(CrossShardEvent::Kind::kRemoteEnergy, time, node,
               static_cast<std::uint32_t>(log_.size() - 1));
}

CrossShardEvent ShardOutbox::Roam(SimTime time, int node,
                                  std::uint32_t plan) {
  return Stamp(CrossShardEvent::Kind::kRoam, time, node, plan);
}

}  // namespace whitefi::shard
