// Fault injection (paper section 7.4). Two families:
//
//  - Hardware fail-stop faults: halting a processor and denying all access to
//    the range of memory assigned to it (node failure).
//  - Software faults: corrupting the contents of a kernel data structure of
//    one cell, simulating a kernel bug. Pointer corruption modes match the
//    paper's pathological cases: random physical addresses in the same cell
//    or other cells, one word away from the original address, and pointing
//    back at the data structure itself.
//  - Message faults: a seed-driven model of a flaky SIPS substrate (drop,
//    duplicate, delay/reorder, single-byte payload corruption) expressed as
//    time-windowed per-route plans. The paper assumes SIPS is reliable; the
//    model exists to test the layer above it against a substrate that breaks
//    that assumption. The Machine owns the model (EnableMessageFaults), and
//    the RPC transport samples it once per SIPS hop, the only message path.
//
// Corruption uses the raw (unchecked) store path: a cell's own bug scribbling
// its own memory is always "permitted" by the firewall. Damage to OTHER cells
// can only happen later, when code dereferences the corrupt data -- and that
// dereference goes through the normal checked paths.

#ifndef HIVE_SRC_FLASH_FAULT_INJECTOR_H_
#define HIVE_SRC_FLASH_FAULT_INJECTOR_H_

#include <cstdint>
#include <vector>

#include "src/base/rng.h"
#include "src/flash/machine.h"

namespace flash {

enum class PointerCorruptionMode {
  kRandomSameCell,   // Random physical address within the victim's own range.
  kRandomOtherCell,  // Random physical address in another cell's range.
  kOffByOneWord,     // Original value plus one word.
  kSelfPointing,     // Points back at the data structure itself.
};

class FaultInjector {
 public:
  explicit FaultInjector(Machine* machine, uint64_t seed)
      : machine_(machine), rng_(seed) {}

  // Schedules a fail-stop node failure at absolute time `when`. The event
  // holds only the machine, so the injector may be gone before it fires.
  void ScheduleNodeFailure(int node, Time when);

  // Immediately corrupts the 8-byte pointer at `addr` according to `mode`.
  // `victim_range_base/size` bound the victim cell's memory (for
  // kRandomSameCell); `other_range_base/size` bound some other cell's memory.
  // Returns the value written.
  uint64_t CorruptPointer(PhysAddr addr, PointerCorruptionMode mode,
                          PhysAddr victim_range_base, uint64_t victim_range_size,
                          PhysAddr other_range_base, uint64_t other_range_size);

  // Overwrites `len` bytes at addr with pseudo-random garbage (raw path).
  void CorruptBytes(PhysAddr addr, uint64_t len);

  // Writes one 8-byte word at `addr` (raw path). The rogue-cell fault family
  // uses this for targeted corruption: planting out-of-range or cyclic next
  // pointers in a victim's published chain, or tearing a seqlock block.
  void WriteWord(PhysAddr addr, uint64_t value);

  // Overwrites the 4-byte kernel-heap type tag at `tag_addr` with `bad_tag`
  // (raw path; the caller locates the tag inside the allocation header, this
  // layer knows nothing of heap layout): the careful reference protocol's
  // step-4 check must catch the mismatch on the next remote read.
  void CorruptTypeTag(PhysAddr tag_addr, uint32_t bad_tag);

  base::Rng& rng() { return rng_; }

 private:
  Machine* machine_;
  base::Rng rng_;
};

// ---------------------------------------------------------------------------
// Message-fault model.
// ---------------------------------------------------------------------------

enum class MessageFaultKind {
  kNone,       // Message passes untouched.
  kDrop,       // Message silently vanishes in the mesh.
  kDuplicate,  // Message is delivered twice.
  kDelay,      // Message takes a non-minimal route and arrives late
               // (reordering relative to later traffic on the same route).
  kCorrupt,    // One payload byte is flipped in flight; the per-line
               // checksum makes this detectable at the receiver.
};

// One time-windowed fault plan. Probabilities are per-mille and are resolved
// with a single RNG roll per message: drop wins first, then duplicate, then
// delay, then corrupt (cumulative thresholds), so the sum must stay <= 1000.
struct MessageFaultPlan {
  Time start = 0;
  Time end = 0;  // Exclusive.
  uint32_t drop_pm = 0;
  uint32_t dup_pm = 0;
  uint32_t delay_pm = 0;
  uint32_t corrupt_pm = 0;
  Time delay_max_ns = 0;  // Upper bound for injected delay.
  int src_node = -1;      // -1 matches any source node.
  int dst_node = -1;      // -1 matches any destination node.
};

struct MessageFaultStats {
  uint64_t sampled = 0;  // Messages that fell inside an active plan window.
  uint64_t dropped = 0;
  uint64_t duplicated = 0;
  uint64_t delayed = 0;
  uint64_t corrupted = 0;
};

struct MessageFaultDecision {
  MessageFaultKind kind = MessageFaultKind::kNone;
  Time delay_ns = 0;          // For kDelay.
  // For kCorrupt: which payload bit flipped. The transport carries no
  // payload, so only its loss counts, but the two draws stay: the RPC retry
  // jitter shares this RNG, and every pinned fingerprint assumes them.
  uint32_t corrupt_byte = 0;  // Payload byte index.
  uint8_t corrupt_mask = 0;   // Non-zero XOR mask.
};

// Deterministic, seed-driven sampler. Draws from the RNG ONLY when a message
// falls inside an active plan window, so enabling the model without plans (or
// outside every window) perturbs nothing.
class MessageFaultModel {
 public:
  explicit MessageFaultModel(uint64_t seed) : rng_(seed) {}

  void AddPlan(const MessageFaultPlan& plan) { plans_.push_back(plan); }
  void ClearPlans() { plans_.clear(); }

  // Samples the fate of one message hop.
  MessageFaultDecision Sample(Time now, int src_node, int dst_node);

  const MessageFaultStats& stats() const { return stats_; }

  // Shared jitter source for layers that need deterministic randomness tied
  // to the same scenario seed (e.g. RPC retry backoff jitter).
  base::Rng& rng() { return rng_; }

 private:
  base::Rng rng_;
  std::vector<MessageFaultPlan> plans_;
  MessageFaultStats stats_;
};

}  // namespace flash

#endif  // HIVE_SRC_FLASH_FAULT_INJECTOR_H_
