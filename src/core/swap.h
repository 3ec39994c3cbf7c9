// The swap partition: backing store for anonymous pages (paper section 5.3:
// "anonymous pages (those whose backing store is in the swap partition)").
//
// Each cell owns a swap area on its local disk. The pageout daemon swaps out
// unreferenced anonymous pages under memory pressure; the anonymous fault
// path swaps them back in on demand. The data home of an anonymous page
// never changes: pages always swap to the disk of the COW node's owner cell,
// so the kCowBind export path works unchanged after a swap-in.

#ifndef HIVE_SRC_CORE_SWAP_H_
#define HIVE_SRC_CORE_SWAP_H_

#include <unordered_map>
#include <vector>

#include "src/base/status.h"
#include "src/core/context.h"
#include "src/core/pfdat.h"
#include "src/core/types.h"

namespace hive {

class Cell;

class SwapArea {
 public:
  explicit SwapArea(Cell* cell) : cell_(cell) {}

  // Writes the page out to the local swap disk and releases its frame. The
  // pfdat must be an unreferenced, unexported local anonymous page.
  base::Status SwapOut(Ctx& ctx, Pfdat* pfdat);

  // True if the logical page currently lives in swap.
  bool Contains(const LogicalPageId& lpid) const;

  // Reads the page back into a fresh frame and reinserts it into the page
  // cache. Returns the new pfdat with one reference.
  base::Result<Pfdat*> SwapIn(Ctx& ctx, const LogicalPageId& lpid);

  // Process teardown: drop the swap slots of a COW node's pages.
  void DropNode(uint64_t node_id);

  uint64_t swap_outs() const { return swap_outs_; }
  uint64_t swap_ins() const { return swap_ins_; }
  size_t slots_in_use() const { return slots_in_use_; }

 private:
  struct Slot {
    uint64_t disk_offset = 0;
    std::vector<uint8_t> bytes;  // The "swap disk" contents for this slot.
  };
  using NodeSlots = std::unordered_map<LogicalPageId, Slot, LogicalPageIdHash>;

  Cell* cell_;
  // Slots bucketed by COW node (LogicalPageId::object): every process exit
  // drops its nodes, and erasing one bucket keeps that O(node's slots)
  // instead of O(all slots on the cell).
  std::unordered_map<uint64_t, NodeSlots> slots_by_node_;
  size_t slots_in_use_ = 0;
  uint64_t next_disk_offset_ = 0;
  uint64_t swap_outs_ = 0;
  uint64_t swap_ins_ = 0;
};

}  // namespace hive

#endif  // HIVE_SRC_CORE_SWAP_H_
