#include "src/flash/fault_injector.h"

#include <array>

#include "src/base/log.h"

namespace flash {

void FaultInjector::ScheduleNodeFailure(int node, Time when) {
  machine_->events().ScheduleAt(when, [machine = machine_, node] { machine->FailNode(node); });
}

uint64_t FaultInjector::CorruptPointer(PhysAddr addr, PointerCorruptionMode mode,
                                       PhysAddr victim_range_base, uint64_t victim_range_size,
                                       PhysAddr other_range_base, uint64_t other_range_size) {
  uint64_t original = 0;
  machine_->mem().RawRead(addr, std::span<uint8_t>(reinterpret_cast<uint8_t*>(&original),
                                                   sizeof(original)));
  uint64_t corrupt = 0;
  switch (mode) {
    case PointerCorruptionMode::kRandomSameCell:
      corrupt = victim_range_base + (rng_.Below(victim_range_size) & ~7ull);
      break;
    case PointerCorruptionMode::kRandomOtherCell:
      corrupt = other_range_base + (rng_.Below(other_range_size) & ~7ull);
      break;
    case PointerCorruptionMode::kOffByOneWord:
      corrupt = original + 8;
      break;
    case PointerCorruptionMode::kSelfPointing:
      corrupt = addr;
      break;
  }
  LOG(kInfo) << "fault injection: pointer at 0x" << std::hex << addr << " 0x" << original
             << " -> 0x" << corrupt << std::dec;
  machine_->mem().RawWrite(addr, std::span<const uint8_t>(
                                     reinterpret_cast<const uint8_t*>(&corrupt),
                                     sizeof(corrupt)));
  return corrupt;
}

void FaultInjector::CorruptBytes(PhysAddr addr, uint64_t len) {
  std::array<uint8_t, 256> garbage;
  while (len > 0) {
    const uint64_t chunk = std::min<uint64_t>(len, garbage.size());
    for (uint64_t i = 0; i < chunk; ++i) {
      garbage[i] = static_cast<uint8_t>(rng_.Next());
    }
    machine_->mem().RawWrite(addr, std::span<const uint8_t>(garbage.data(), chunk));
    addr += chunk;
    len -= chunk;
  }
}

void FaultInjector::WriteWord(PhysAddr addr, uint64_t value) {
  LOG(kInfo) << "fault injection: word at 0x" << std::hex << addr << " <- 0x" << value
             << std::dec;
  machine_->mem().RawWrite(addr, std::span<const uint8_t>(
                                     reinterpret_cast<const uint8_t*>(&value),
                                     sizeof(value)));
}

void FaultInjector::CorruptTypeTag(PhysAddr tag_addr, uint32_t bad_tag) {
  LOG(kInfo) << "fault injection: type tag at 0x" << std::hex << tag_addr << " <- 0x"
             << bad_tag << std::dec;
  machine_->mem().RawWrite(tag_addr, std::span<const uint8_t>(
                                         reinterpret_cast<const uint8_t*>(&bad_tag),
                                         sizeof(bad_tag)));
}

namespace {

bool PlanMatches(const MessageFaultPlan& plan, Time now, int src_node, int dst_node) {
  if (now < plan.start || now >= plan.end) {
    return false;
  }
  if (plan.src_node >= 0 && plan.src_node != src_node) {
    return false;
  }
  if (plan.dst_node >= 0 && plan.dst_node != dst_node) {
    return false;
  }
  return true;
}

}  // namespace

MessageFaultDecision MessageFaultModel::Sample(Time now, int src_node, int dst_node) {
  MessageFaultDecision decision;
  const MessageFaultPlan* match = nullptr;
  for (const MessageFaultPlan& plan : plans_) {
    if (PlanMatches(plan, now, src_node, dst_node)) {
      match = &plan;
      break;
    }
  }
  if (match == nullptr) {
    return decision;  // No RNG draw outside an active window.
  }
  ++stats_.sampled;
  const uint64_t roll = rng_.Below(1000);
  uint64_t threshold = match->drop_pm;
  if (roll < threshold) {
    decision.kind = MessageFaultKind::kDrop;
    ++stats_.dropped;
    return decision;
  }
  threshold += match->dup_pm;
  if (roll < threshold) {
    decision.kind = MessageFaultKind::kDuplicate;
    ++stats_.duplicated;
    return decision;
  }
  threshold += match->delay_pm;
  if (roll < threshold) {
    decision.kind = MessageFaultKind::kDelay;
    decision.delay_ns =
        match->delay_max_ns > 0
            ? static_cast<Time>(1 + rng_.Below(static_cast<uint64_t>(match->delay_max_ns)))
            : 1;
    ++stats_.delayed;
    return decision;
  }
  threshold += match->corrupt_pm;
  if (roll < threshold) {
    decision.kind = MessageFaultKind::kCorrupt;
    decision.corrupt_byte = static_cast<uint32_t>(rng_.Below(128));
    decision.corrupt_mask = static_cast<uint8_t>(1u << rng_.Below(8));
    ++stats_.corrupted;
    return decision;
  }
  return decision;
}

}  // namespace flash
