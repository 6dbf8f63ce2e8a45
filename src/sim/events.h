// The discrete-event simulation core.
//
// A slab-allocated event arena driving a hierarchical 256-way timer wheel
// (a radix queue over integer microsecond ticks).  All higher layers
// (medium, MAC, protocol state machines) are driven exclusively through
// this queue.
//
// Design (DESIGN.md §10):
//  * Callbacks live in `EventCallback`, a move-only small-buffer callable:
//    callables up to kInlineBytes are stored inline in the arena slot, so
//    the steady-state schedule->fire cycle performs zero heap allocations.
//    Trivially-copyable callables relocate with a memcpy and skip the
//    destructor call entirely.
//  * Event state lives in fixed-size chunks; slots are addressed by index
//    and never move, and an `EventId` encodes (generation << 32 | slot),
//    so Cancel is an O(1) liveness check plus an O(1) unlink from the
//    event's bucket — no tombstone set, no unbounded cancellation state.
//  * The wheel has 8 levels of 256 buckets; an event's level is the
//    highest byte in which its time differs from the wheel cursor, so
//    schedule is O(1) and each event cascades down at most 7 times before
//    firing.  A bucket is the head of a doubly linked list threaded
//    through the slots' metadata (Varghese & Lauck's hierarchical wheel),
//    so the wheel holds 8 KiB of heads plus 32 bytes per arena slot:
//    O(pending events), however many buckets have been used.  Occupancy
//    bitmaps (256 bits per level) let the cursor jump over empty regions
//    in O(levels) instead of tick by tick.
//  * Determinism: events fire in (time, seq) order, where seq increases
//    monotonically per Schedule call.  A level-0 bucket holds exactly one
//    tick's events; when the cursor reaches it, their keys move into one
//    reused drain scratch and are sorted by seq once (same-tick schedules
//    made during the drain carry larger seqs and append), so simultaneous
//    events fire in schedule order, in both Run and RunUntilIdle.  This
//    FIFO contract is what makes every scenario's output deterministic.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"
#include "util/log.h"

namespace whitefi {

/// Handle for a scheduled event; usable with Simulator::Cancel.  Encodes
/// the arena slot and its generation; stale handles (fired or cancelled
/// events, never-issued ids) are recognized and rejected in O(1).
using EventId = std::uint64_t;

/// Sentinel for "no event scheduled".
inline constexpr EventId kInvalidEventId = 0;

/// Move-only type-erased `void()` callable with inline small-buffer
/// storage.  Callables that fit (and are nothrow-move-constructible) are
/// stored in place; larger ones fall back to a single heap allocation.
class EventCallback {
 public:
  /// Inline storage, sized to fit every callback the MAC/protocol layers
  /// schedule (the largest is the SIFS-delayed ACK transmit, which
  /// captures a whole Frame).
  static constexpr std::size_t kInlineBytes = 104;

  EventCallback() noexcept = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventCallback> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  EventCallback(F&& fn) {  // NOLINT(google-explicit-constructor)
    Emplace(std::forward<F>(fn));
  }

  EventCallback(EventCallback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      Relocate(ops_, storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        Relocate(ops_, storage_, other.storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  ~EventCallback() { Reset(); }

  /// Destroys the held callable (if any); *this becomes empty.
  void Reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(storage_);
    ops_ = nullptr;
  }

  /// Constructs a callable in place.  Precondition: *this is empty (the
  /// arena only emplaces into released slots).
  template <typename F>
  void Emplace(F&& fn) {
    assert(ops_ == nullptr);
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() {
    assert(ops_ != nullptr);
    ops_->invoke(storage_);
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-constructs the callable into `dst` and destroys the `src`
    /// copy ("relocate").  nullptr means memcpy(size) suffices.
    void (*relocate)(void* dst, void* src);
    /// nullptr for trivially destructible callables: destruction is a
    /// no-op and the fire path skips the indirect call.
    void (*destroy)(void* storage);
    std::uint32_t size;
  };

  static void Relocate(const Ops* ops, void* dst, void* src) noexcept {
    if (ops->relocate != nullptr) {
      ops->relocate(dst, src);
    } else {
      std::memcpy(dst, src, ops->size);
    }
  }

  template <typename Fn>
  static Fn* As(void* storage) noexcept {
    return std::launder(reinterpret_cast<Fn*>(storage));
  }

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* s) { (*As<Fn>(s))(); },
      std::is_trivially_copyable_v<Fn>
          ? nullptr
          : +[](void* dst, void* src) {
              ::new (dst) Fn(std::move(*As<Fn>(src)));
              As<Fn>(src)->~Fn();
            },
      std::is_trivially_destructible_v<Fn>
          ? nullptr
          : +[](void* s) { As<Fn>(s)->~Fn(); },
      static_cast<std::uint32_t>(sizeof(Fn)),
  };

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* s) { (**As<Fn*>(s))(); },
      nullptr,  // The owning pointer relocates by memcpy.
      [](void* s) { delete *As<Fn*>(s); },
      static_cast<std::uint32_t>(sizeof(Fn*)),
  };

  // Storage first so it gets the struct's max_align_t alignment without
  // interior padding; ops_ doubles as the engaged flag.
  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// Discrete-event simulator.
class Simulator {
 public:
  using Callback = EventCallback;

  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  SimTime Now() const { return now_; }

  /// Schedules `fn` at absolute time `at` (>= Now(), else clamped to
  /// Now()).  Returns an id usable with Cancel.  The callable is
  /// constructed directly into its arena slot.
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventCallback> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  EventId Schedule(SimTime at, F&& fn) {
    const std::uint32_t index = AllocSlot();
    CbAt(index).Emplace(std::forward<F>(fn));
    return PushScheduled(at, index);
  }

  /// Overload for a pre-built EventCallback.
  EventId Schedule(SimTime at, Callback cb) {
    const std::uint32_t index = AllocSlot();
    CbAt(index) = std::move(cb);
    return PushScheduled(at, index);
  }

  /// Schedules `fn` after `delay` ticks.
  template <typename F>
  EventId ScheduleAfter(SimTime delay, F&& fn) {
    return Schedule(now_ + delay, std::forward<F>(fn));
  }

  /// Cancels a pending event; returns true iff it had not yet fired or
  /// been cancelled.  Stale ids (fired, cancelled, or never issued) and
  /// kInvalidEventId are harmless no-ops: no state is retained for them.
  bool Cancel(EventId id);

  /// Runs all events with time <= `until`; Now() becomes `until`.
  void Run(SimTime until);

  /// Runs until the queue drains or Stop() is called.
  void RunUntilIdle();

  /// Stops Run/RunUntilIdle after the current event returns.
  void Stop() { stopped_ = true; }

  /// Stamps the calling thread's log lines with this simulator's clock
  /// while the returned scope lives.  Run and RunUntilIdle bind it for
  /// their duration; code driving the world between runs may bind it too.
  [[nodiscard]] ScopedLogClock BindLogClock() const {
    return ScopedLogClock(&now_);
  }

  /// Number of events executed so far.
  std::size_t NumProcessed() const { return processed_; }

  /// Number of events currently pending.  Exact: cancelled events leave
  /// the pending count immediately.
  std::size_t NumPending() const { return pending_; }

  /// Number of arena slots allocated so far.  Bounded by the peak number
  /// of simultaneously pending events (rounded up to a chunk), never by
  /// the total number of schedules or cancellations — pinned by test.
  std::size_t ArenaSlots() const { return chunks_.size() * kChunkSize; }

 private:
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr std::uint32_t kNoIndex = 0xffffffffu;
  /// Wheel geometry: 8 levels x 256 buckets covers the full 64-bit tick
  /// range (level = highest byte in which an event's time differs from
  /// the wheel cursor).
  static constexpr int kLevelBits = 8;
  static constexpr int kNumLevels = 8;
  static constexpr std::uint32_t kBucketsPerLevel = 1u << kLevelBits;
  static constexpr std::uint32_t kByteMask = kBucketsPerLevel - 1;
  static constexpr std::uint32_t kNumBuckets = kNumLevels * kBucketsPerLevel;
  /// `Slot::bucket` of an event listed in the drain scratch.
  static constexpr std::uint32_t kDrainBucket = kNumBuckets;
  /// Keys pack (seq << kSlotBits | slot): sorting a tick's keys is sorting
  /// by schedule order, and 24 slot bits bound the arena at 16M
  /// concurrently pending events.
  static constexpr int kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1u << kSlotBits) - 1;
  /// Key of a free slot: live keys have seq >= 1.
  static constexpr std::uint64_t kDeadKey = 0;
  /// `draining_tick_` while no tick drains (event times are never < 0).
  static constexpr SimTime kNoTick = -1;

  /// Callback storage only: the per-event metadata the wheel touches lives
  /// in the dense `slots_` vector instead, so wheel maintenance never
  /// pulls 112-byte callback slots through the cache.
  struct Chunk {
    EventCallback cbs[kChunkSize];
  };
  /// Per-slot metadata.  A pending event is linked into its bucket's list
  /// or listed in the drain scratch; a free slot is on the free list.
  struct Slot {
    SimTime time = 0;
    std::uint64_t key = kDeadKey;     ///< seq << kSlotBits | slot if pending.
    std::uint32_t next = kNoIndex;    ///< Bucket list, or free list if free.
    std::uint32_t prev = kNoIndex;    ///< Bucket list only.
    std::uint32_t bucket = kNoIndex;  ///< level * 256 + index, kDrainBucket.
    std::uint32_t generation = 1;     ///< Bumped on release; never 0.
  };

  EventCallback& CbAt(std::uint32_t index) {
    return chunks_[index >> kChunkShift]->cbs[index & (kChunkSize - 1)];
  }

  std::uint32_t AllocSlot();
  void GrowArena();
  void ReleaseSlot(std::uint32_t index);
  EventId PushScheduled(SimTime at, std::uint32_t index);
  /// Links slot `index` at the head of the bucket its time selects
  /// relative to `cur_`, and marks the bucket occupied.
  void Link(std::uint32_t index);
  /// Redistributes bucket (level, index) after advancing the cursor to
  /// `window_start`; every event lands at a strictly lower level.
  void Cascade(int level, std::uint32_t index, SimTime window_start);
  /// Moves tick bucket `bucket`'s keys into the drain scratch, sorted by
  /// seq, and makes `tick` the draining tick.
  void EnterDrain(std::uint32_t bucket, SimTime tick);
  /// Positions the drain cursor on the next live event with time <=
  /// `until`; returns false when there is none (state untouched past
  /// `until` so a later Run can pick up exactly where this one stopped).
  bool PrepareNext(SimTime until);
  void SetOcc(int level, std::uint32_t index) {
    occ_[level][index >> 6] |= std::uint64_t{1} << (index & 63);
  }
  void ClearOcc(int level, std::uint32_t index) {
    occ_[level][index >> 6] &= ~(std::uint64_t{1} << (index & 63));
  }
  /// Lowest set bit >= `from` in a level's 256-bit occupancy map, or -1.
  int NextOccupied(int level, std::uint32_t from) const;
  void FireLoop(SimTime until);

  SimTime now_ = 0;
  /// Wheel cursor: the reference time bucket levels are computed against.
  /// Invariants: cur_ <= now_ <= every pending event's time, and every
  /// occupied bucket's window lies ahead of cur_ at its level.
  SimTime cur_ = 0;
  std::uint64_t next_seq_ = 1;
  std::size_t processed_ = 0;
  std::size_t pending_ = 0;
  bool stopped_ = false;

  std::uint32_t heads_[kNumBuckets];  ///< First slot of each bucket's list.
  std::uint64_t occ_[kNumLevels][kBucketsPerLevel / 64] = {};
  /// Keys of the tick being drained, in seq order; entries before
  /// drain_pos_ have fired.  A cancelled entry stays in place, so the
  /// order survives, and is skipped because its slot's key no longer
  /// matches.  Cleared, with its capacity kept, when the tick is done.
  std::vector<std::uint64_t> drain_;
  std::size_t drain_pos_ = 0;
  SimTime draining_tick_ = kNoTick;

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<Slot> slots_;             ///< Dense; hot in the wheel and Cancel.
  std::uint32_t free_head_ = kNoIndex;  ///< LIFO free list through Slot::next.
};

}  // namespace whitefi
