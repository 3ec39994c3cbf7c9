// Fixture: R0 stale suppression marker. Never compiled.
// The allow(R1) below sits above a read R1 does not flag: it goes through
// the kernel heap, not PhysMem. A marker that suppresses nothing would
// silently excuse a violation written under it later, so it is itself an R0
// diagnostic.
#include "src/core/kernel_heap.h"

namespace hive {

uint64_t StaleMarkerRead(KernelHeap& heap, PhysAddr word) {
  // hive-lint: allow(R1): fixture: a justified marker over a line that needs none.
  return heap.Read<uint64_t>(word);
}

}  // namespace hive
