#include "sim/events.h"

#include <algorithm>
#include <bit>
#include <limits>

namespace whitefi {

namespace {

/// Highest byte index in which two times differ (0 when equal): the wheel
/// level an event at `time` occupies relative to cursor `cur`.
inline int LevelOf(std::uint64_t time, std::uint64_t cur) {
  const std::uint64_t diff = time ^ cur;
  if (diff == 0) return 0;
  return (63 - std::countl_zero(diff)) >> 3;
}

}  // namespace

Simulator::Simulator() {
  std::fill_n(heads_, kNumBuckets, kNoIndex);
}

std::uint32_t Simulator::AllocSlot() {
  if (free_head_ == kNoIndex) GrowArena();
  const std::uint32_t index = free_head_;
  free_head_ = slots_[index].next;
  return index;
}

void Simulator::GrowArena() {
  const auto base = static_cast<std::uint32_t>(slots_.size());
  assert(base + kChunkSize - 1 <= kSlotMask && free_head_ == kNoIndex);
  chunks_.push_back(std::make_unique<Chunk>());
  slots_.resize(base + kChunkSize);
  // Lowest index first; the new last slot's `next` is already kNoIndex.
  for (std::uint32_t i = base; i + 1 < base + kChunkSize; ++i) {
    slots_[i].next = i + 1;
  }
  free_head_ = base;
}

void Simulator::ReleaseSlot(std::uint32_t index) {
  Slot& slot = slots_[index];
  if (++slot.generation == 0) slot.generation = 1;  // Skip sentinel 0.
  slot.key = kDeadKey;
  slot.next = free_head_;
  free_head_ = index;
}

EventId Simulator::PushScheduled(SimTime at, std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.time = std::max(at, now_);
  slot.key = (next_seq_++ << kSlotBits) | index;
  if (slot.time == draining_tick_) {
    // The newest seq sorts last: appending keeps the drain in seq order.
    slot.bucket = kDrainBucket;
    drain_.push_back(slot.key);
  } else {
    Link(index);
  }
  ++pending_;
  return (static_cast<EventId>(slot.generation) << 32) | index;
}

void Simulator::Link(std::uint32_t index) {
  Slot& slot = slots_[index];
  const auto time = static_cast<std::uint64_t>(slot.time);
  const int level = LevelOf(time, static_cast<std::uint64_t>(cur_));
  const auto byte =
      static_cast<std::uint32_t>((time >> (kLevelBits * level)) & kByteMask);
  const std::uint32_t bucket = level * kBucketsPerLevel + byte;
  slot.bucket = bucket;
  slot.prev = kNoIndex;
  slot.next = heads_[bucket];
  if (slot.next != kNoIndex) slots_[slot.next].prev = index;
  heads_[bucket] = index;
  SetOcc(level, byte);
}

int Simulator::NextOccupied(int level, std::uint32_t from) const {
  if (from >= kBucketsPerLevel) return -1;
  std::uint32_t word = from >> 6;
  std::uint64_t bits = occ_[level][word] & (~std::uint64_t{0} << (from & 63));
  for (;;) {
    if (bits != 0) {
      return static_cast<int>(word * 64 +
                              static_cast<std::uint32_t>(std::countr_zero(bits)));
    }
    if (++word == kBucketsPerLevel / 64) return -1;
    bits = occ_[level][word];
  }
}

void Simulator::Cascade(int level, std::uint32_t index, SimTime window_start) {
  // Advancing the cursor first is what makes every event land strictly
  // lower: their byte `level` now matches the cursor's.
  cur_ = window_start;
  const std::uint32_t bucket = level * kBucketsPerLevel + index;
  std::uint32_t slot = heads_[bucket];
  heads_[bucket] = kNoIndex;
  ClearOcc(level, index);
  while (slot != kNoIndex) {
    const std::uint32_t next = slots_[slot].next;
    Link(slot);
    slot = next;
  }
}

void Simulator::EnterDrain(std::uint32_t bucket, SimTime tick) {
  std::uint32_t slot = heads_[bucket];
  heads_[bucket] = kNoIndex;
  ClearOcc(0, bucket);
  do {
    slots_[slot].bucket = kDrainBucket;
    drain_.push_back(slots_[slot].key);
    slot = slots_[slot].next;
  } while (slot != kNoIndex);
  // Keys are (seq << kSlotBits | slot), so this is schedule order — the
  // determinism contract.  List order is arbitrary (cascades relink in
  // reverse); the sort happens exactly once per tick, and same-tick
  // events scheduled during the drain append in seq order.
  if (drain_.size() > 1) std::sort(drain_.begin(), drain_.end());
  draining_tick_ = tick;
}

bool Simulator::PrepareNext(SimTime until) {
  for (;;) {
    if (draining_tick_ != kNoTick) {
      // A cancelled entry's slot was released (key cleared) and may since
      // hold a newer event: only a matching key is still this tick's.
      while (drain_pos_ < drain_.size() &&
             slots_[drain_[drain_pos_] & kSlotMask].key != drain_[drain_pos_]) {
        ++drain_pos_;
      }
      if (drain_pos_ < drain_.size()) return draining_tick_ <= until;
      drain_.clear();
      drain_pos_ = 0;
      draining_tick_ = kNoTick;
    }
    if (pending_ == 0) return false;
    const auto cur = static_cast<std::uint64_t>(cur_);
    // A level-0 hit in the current 256-tick window is always the global
    // minimum: any higher-level window starts past this window's end.
    const int tick_bit =
        NextOccupied(0, static_cast<std::uint32_t>(cur & kByteMask));
    if (tick_bit >= 0) {
      const auto tick = static_cast<SimTime>((cur & ~std::uint64_t{kByteMask}) |
                                             static_cast<std::uint64_t>(tick_bit));
      if (tick > until) return false;
      EnterDrain(static_cast<std::uint32_t>(tick_bit), tick);
      continue;
    }
    // Cascade the lowest occupied level's next bucket: for L < L', window
    // W_L < W_{L'} (W_L keeps the cursor's byte L' while W_{L'} exceeds
    // it), so the lowest level always holds the earliest work.
    for (int level = 1; level < kNumLevels; ++level) {
      const auto byte = static_cast<std::uint32_t>(
          (cur >> (kLevelBits * level)) & kByteMask);
      const int bit = NextOccupied(level, byte + 1);
      if (bit < 0) continue;
      const std::uint64_t window_mask =
          level + 1 == kNumLevels
              ? ~std::uint64_t{0}
              : (std::uint64_t{1} << (kLevelBits * (level + 1))) - 1;
      const auto window_start = static_cast<SimTime>(
          (cur & ~window_mask) |
          (static_cast<std::uint64_t>(bit) << (kLevelBits * level)));
      if (window_start > until) return false;
      Cascade(level, static_cast<std::uint32_t>(bit), window_start);
      break;
    }
    // pending_ > 0 guarantees some level matched; loop to re-scan level 0.
  }
}

bool Simulator::Cancel(EventId id) {
  const auto index = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (generation == 0) return false;  // kInvalidEventId or malformed.
  if (static_cast<std::size_t>(index) >= slots_.size()) {
    return false;  // Never-issued slot.
  }
  if (slots_[index].generation != generation) {
    return false;  // Already fired or cancelled; nothing retained.
  }
  // An event of the draining tick keeps its place in the scratch so the
  // sorted fire order survives; releasing the slot is what dead-marks it.
  // Any other is unlinked from its bucket.
  const Slot& slot = slots_[index];
  if (slot.bucket != kDrainBucket) {
    if (slot.next != kNoIndex) slots_[slot.next].prev = slot.prev;
    if (slot.prev != kNoIndex) {
      slots_[slot.prev].next = slot.next;
    } else {
      heads_[slot.bucket] = slot.next;
      if (slot.next == kNoIndex) {
        ClearOcc(static_cast<int>(slot.bucket / kBucketsPerLevel),
                 slot.bucket % kBucketsPerLevel);
      }
    }
  }
  CbAt(index).Reset();  // Destroy the callback eagerly.
  ReleaseSlot(index);
  --pending_;
  return true;
}

void Simulator::FireLoop(SimTime until) {
  stopped_ = false;
  while (!stopped_ && PrepareNext(until)) {
    const auto index =
        static_cast<std::uint32_t>(drain_[drain_pos_++] & kSlotMask);
    now_ = draining_tick_;
    cur_ = draining_tick_;
    EventCallback cb = std::move(CbAt(index));
    // Release before invoking: the callback may reschedule into this slot,
    // and Cancel of the now-fired id must miss (generation already bumped).
    ReleaseSlot(index);
    --pending_;
    ++processed_;
    cb();
  }
}

void Simulator::Run(SimTime until) {
  const ScopedLogClock log_clock = BindLogClock();
  FireLoop(until);
  if (!stopped_) now_ = std::max(now_, until);
}

void Simulator::RunUntilIdle() {
  const ScopedLogClock log_clock = BindLogClock();
  FireLoop(std::numeric_limits<SimTime>::max());
}

}  // namespace whitefi
