#include "src/flash/event_queue.h"

#include "src/base/log.h"

namespace flash {

uint32_t EventQueue::AcquireSlot() {
  if (free_head_ != kNoFree) {
    const uint32_t slot = free_head_;
    free_head_ = SlotAt(slot).next_free;
    return slot;
  }
  if ((slot_count_ >> kChunkShift) == slot_chunks_.size()) {
    // Default-init, not make_unique: value-initialization would memset every
    // slot's inline callback buffer (~50 KB per chunk) before the
    // constructors run. The Slot constructor initializes all live fields.
    slot_chunks_.emplace_back(new Slot[kChunkSlots]);
  }
  return slot_count_++;
}

void EventQueue::ReleaseSlot(uint32_t index) {
  Slot& slot = SlotAt(index);
  slot.fn.Reset();
  if (++slot.generation == 0) {
    slot.generation = 1;  // Keep EventIds distinct from kInvalidEventId.
  }
  slot.next_free = free_head_;
  free_head_ = index;
}

EventId EventQueue::ScheduleAt(Time when, EventFn fn) {
  CHECK_GE(when, now_) << "cannot schedule an event in the past";
  const uint32_t index = AcquireSlot();
  Slot& slot = SlotAt(index);
  slot.fn = std::move(fn);
  heap_.push(HeapEntry{when, next_seq_, index, slot.generation});
  ++next_seq_;
  ++live_count_;
  return MakeId(index, slot.generation);
}

bool EventQueue::Cancel(EventId id) {
  if (id == kInvalidEventId) {
    return false;
  }
  const uint32_t index = static_cast<uint32_t>(id >> 32) - 1;
  const uint32_t generation = static_cast<uint32_t>(id);
  if (index >= slot_count_ || SlotAt(index).generation != generation) {
    return false;  // Already ran, already cancelled, or never scheduled.
  }
  // Destroy the callback now and recycle the slot; the heap entry left behind
  // is a tombstone (its generation no longer matches) skipped at pop time.
  ReleaseSlot(index);
  --live_count_;
  return true;
}

void EventQueue::DropTombstones() {
  while (!heap_.empty() && EntryStale(heap_.top())) {
    heap_.pop();
  }
}

void EventQueue::RunEntry(const HeapEntry& entry) {
  now_ = entry.when;
  ++total_run_;
  --live_count_;
  // Move the callback out before invoking: the callback may schedule new
  // events or cancel others, so no slot reference may be held across the
  // call (chunks are stable, but the slot itself gets recycled).
  EventFn fn = std::move(SlotAt(entry.slot).fn);
  ReleaseSlot(entry.slot);
  fn();
}

size_t EventQueue::Run() {
  size_t count = 0;
  for (;;) {
    DropTombstones();
    if (heap_.empty()) {
      return count;
    }
    const HeapEntry entry = heap_.top();
    heap_.pop();
    RunEntry(entry);
    ++count;
  }
}

size_t EventQueue::RunUntil(Time deadline) {
  size_t count = 0;
  for (;;) {
    DropTombstones();
    if (heap_.empty() || heap_.top().when > deadline) {
      break;
    }
    const HeapEntry entry = heap_.top();
    heap_.pop();
    RunEntry(entry);
    ++count;
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  return count;
}

bool EventQueue::Step() {
  DropTombstones();
  if (heap_.empty()) {
    return false;
  }
  const HeapEntry entry = heap_.top();
  heap_.pop();
  RunEntry(entry);
  return true;
}

}  // namespace flash
