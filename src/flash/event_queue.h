// Discrete-event simulation core: a time-ordered queue of callbacks with
// deterministic tie-breaking (FIFO among equal timestamps).
//
// This is the innermost loop of every experiment in the repo (a nightly
// campaign sweep executes tens of millions of events), so the implementation
// avoids per-event heap churn entirely:
//
//  - Callbacks are stored in EventFn, a move-only callable with a large
//    small-buffer optimization (kInlineBytes covers every callback in the
//    tree, the largest being the campaign's retrying injectors that carry
//    two std::functions); only oversized callables fall back to one heap
//    allocation.
//  - Event state lives in fixed-size slot chunks recycled through an
//    intrusive free list; the pool grows to the high-watermark of pending
//    events and chunks never move, so growth relocates nothing.
//  - The priority queue orders 24-byte POD entries (when, seq, slot ref), not
//    the callbacks themselves, so heap sifting moves no closures.
//  - Cancellation bumps the slot's generation and destroys the callback
//    immediately; the stale heap entry becomes a tombstone skipped at pop
//    time (no cancellation hash sets on the schedule/run path).
//
// Determinism: events with equal timestamps run in schedule order (a strictly
// increasing sequence number breaks ties), exactly as the original
// priority_queue implementation did. Campaign fingerprints depend on this.
//
// One queue is one serial loop on one thread. Campaigns scale by running
// independent scenarios on separate workers (CampaignOptions::workers), each
// with its own Machine and queue.

#ifndef HIVE_SRC_FLASH_EVENT_QUEUE_H_
#define HIVE_SRC_FLASH_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/flash/config.h"

namespace flash {

// Handle used to cancel a pending event.
using EventId = uint64_t;
constexpr EventId kInvalidEventId = 0;

// Move-only callable with a small-buffer optimization sized for the
// simulator's callbacks. Unlike std::function it never requires
// copy-constructibility and keeps captures up to kInlineBytes in place.
class EventFn {
 public:
  // Covers every closure in the tree with room to spare: the largest, the
  // campaign's retrying injectors, capture two std::functions and a few ids
  // (about 100 bytes). A smaller buffer changes host performance, which
  // needs its own paired runs.
  static constexpr size_t kInlineBytes = 192;

  EventFn() = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                        std::is_invocable_r_v<void, D&>>>
  EventFn(F&& fn) {  // NOLINT(google-explicit-constructor): callable wrapper.
    if constexpr (sizeof(D) <= kInlineBytes &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      new (storage_) D(std::forward<F>(fn));
      ops_ = &InlineOps<D>::kOps;
    } else {
      *reinterpret_cast<D**>(storage_) = new D(std::forward<F>(fn));
      ops_ = &HeapOps<D>::kOps;
    }
  }

  EventFn(EventFn&& other) noexcept { MoveFrom(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { Reset(); }

  void operator()() { ops_->invoke(storage_); }
  explicit operator bool() const { return ops_ != nullptr; }

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Move-construct dst's storage from src's and destroy src's.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* storage);
  };

  template <typename D>
  struct InlineOps {
    static D* Get(void* storage) { return std::launder(reinterpret_cast<D*>(storage)); }
    static void Invoke(void* storage) { (*Get(storage))(); }
    static void Relocate(void* dst, void* src) {
      D* from = Get(src);
      new (dst) D(std::move(*from));
      from->~D();
    }
    static void Destroy(void* storage) { Get(storage)->~D(); }
    static constexpr Ops kOps{&Invoke, &Relocate, &Destroy};
  };

  template <typename D>
  struct HeapOps {
    static D* Get(void* storage) { return *reinterpret_cast<D**>(storage); }
    static void Invoke(void* storage) { (*Get(storage))(); }
    static void Relocate(void* dst, void* src) { std::memcpy(dst, src, sizeof(D*)); }
    static void Destroy(void* storage) { delete Get(storage); }
    static constexpr Ops kOps{&Invoke, &Relocate, &Destroy};
  };

  void MoveFrom(EventFn& other) {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

class EventQueue {
 public:
  EventQueue() = default;

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  Time Now() const { return now_; }

  // Schedules fn at absolute time `when` (>= Now()).
  EventId ScheduleAt(Time when, EventFn fn);

  // Schedules fn at Now() + delay.
  EventId ScheduleAfter(Time delay, EventFn fn) {
    return ScheduleAt(Now() + delay, std::move(fn));
  }

  // Cancels a pending event. Returns false if it already ran or was cancelled.
  // The callback is destroyed immediately; its slot is recycled.
  bool Cancel(EventId id);

  // Runs events until the queue is empty. Returns the number of events run.
  size_t Run();

  // Runs events with timestamp <= deadline; leaves Now() == deadline (unless
  // already beyond it). Returns the number of events run.
  size_t RunUntil(Time deadline);

  // Runs at most one event. Returns false if the queue is empty.
  bool Step();

  bool empty() const { return live_count_ == 0; }
  size_t pending() const { return live_count_; }

  // Total events executed over the queue's lifetime (throughput accounting).
  uint64_t total_run() const { return total_run_; }

  // Pool introspection (tests): slots ever allocated == high-watermark of
  // simultaneously pending events (rounded up to a chunk), not total events
  // scheduled.
  size_t pool_slots() const { return slot_count_; }

 private:
  // A pooled event slot. `generation` is bumped every time the slot is
  // released (fire or cancel); a heap entry or EventId whose generation no
  // longer matches is stale.
  struct Slot {
    EventFn fn;
    uint32_t generation = 1;
    uint32_t next_free = kNoFree;
  };

  // What the priority queue orders: a POD reference into the slot pool.
  struct HeapEntry {
    Time when;
    uint64_t seq;  // Tie-break: FIFO among equal timestamps.
    uint32_t slot;
    uint32_t generation;

    bool operator>(const HeapEntry& other) const {
      if (when != other.when) {
        return when > other.when;
      }
      return seq > other.seq;
    }
  };

  static constexpr uint32_t kNoFree = 0xFFFFFFFFu;
  // Slots are allocated in fixed chunks that never move: growing the pool
  // relocates nothing (a vector<Slot> would move every ~200-byte slot on
  // each reallocation, which dominated short-lived queues).
  static constexpr uint32_t kChunkShift = 8;
  static constexpr uint32_t kChunkSlots = 1u << kChunkShift;

  static EventId MakeId(uint32_t slot, uint32_t generation) {
    return (static_cast<EventId>(slot + 1) << 32) | generation;
  }

  Slot& SlotAt(uint32_t index) {
    return slot_chunks_[index >> kChunkShift][index & (kChunkSlots - 1)];
  }
  const Slot& SlotAt(uint32_t index) const {
    return slot_chunks_[index >> kChunkShift][index & (kChunkSlots - 1)];
  }

  uint32_t AcquireSlot();
  void ReleaseSlot(uint32_t index);
  bool EntryStale(const HeapEntry& entry) const {
    return SlotAt(entry.slot).generation != entry.generation;
  }
  // Pops cancelled tombstones off the heap top; the heap is then either empty
  // or topped by a live event.
  void DropTombstones();
  void RunEntry(const HeapEntry& entry);

  Time now_ = 0;
  uint64_t total_run_ = 0;
  uint64_t next_seq_ = 1;
  size_t live_count_ = 0;
  std::vector<std::unique_ptr<Slot[]>> slot_chunks_;
  uint32_t slot_count_ = 0;  // Slots carved out of the chunks so far.
  uint32_t free_head_ = kNoFree;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap_;
};

}  // namespace flash

#endif  // HIVE_SRC_FLASH_EVENT_QUEUE_H_
