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

void ShardInbox::Drain(
    const std::function<void(const CrossShardEvent&)>& apply) {
  order_.clear();
  for (const std::vector<CrossShardEvent>& slot : slots_) {
    for (const CrossShardEvent& event : slot) order_.push_back(&event);
  }
  // Keys are unique (seq is unique per source), so the order is total.
  std::sort(order_.begin(), order_.end(),
            [](const CrossShardEvent* a, const CrossShardEvent* b) {
              return CanonicalBefore(*a, *b);
            });
  for (const CrossShardEvent* event : order_) apply(*event);
  for (std::vector<CrossShardEvent>& slot : slots_) slot.clear();
}

void ShardOutbox::Send(CrossShardEvent event, ShardInbox& inbox,
                       std::size_t sender) {
  event.src_tile = src_tile_;
  event.seq = next_seq_++;
  inbox.Push(sender, std::move(event));
}

}  // namespace whitefi::shard
