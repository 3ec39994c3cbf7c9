#include "src/core/swap.h"

#include "src/base/log.h"
#include "src/core/cell.h"
#include "src/core/hive_system.h"

namespace hive {

base::Status SwapArea::SwapOut(Ctx& ctx, Pfdat* pfdat) {
  CHECK(pfdat->HasLogicalBinding() && pfdat->lpid.kind == LogicalPageId::Kind::kAnon);
  CHECK_EQ(pfdat->refcount, 0);
  CHECK_EQ(pfdat->exported_to, 0u);

  const uint64_t page_size = cell_->machine().mem().page_size();
  auto [it, inserted] = slots_by_node_[pfdat->lpid.object].try_emplace(pfdat->lpid);
  slots_in_use_ += inserted ? 1 : 0;
  Slot& slot = it->second;
  slot.bytes.resize(page_size);
  slot.disk_offset = next_disk_offset_;
  next_disk_offset_ += page_size;

  // DMA the frame to the swap disk; the write-out is asynchronous
  // (occupancy charged to the disk, not the caller).
  cell_->machine().mem().DmaRead(cell_->first_node(), pfdat->frame,
                                 std::span<uint8_t>(slot.bytes));
  (void)cell_->machine().disk(cell_->first_node()).AccessTime(slot.disk_offset, page_size);

  cell_->pfdats().RemoveHash(pfdat);
  pfdat->lpid = LogicalPageId{};
  pfdat->dirty = false;
  if (pfdat->extended) {
    // Page was cached in a borrowed frame: hand the frame back.
    cell_->allocator().FreeFrame(ctx, pfdat);
  } else {
    cell_->allocator().ReleaseToFreeList(pfdat);
  }
  ++swap_outs_;
  cell_->Trace(TraceEvent::kSwapOut, slot.disk_offset);
  return base::OkStatus();
}

bool SwapArea::Contains(const LogicalPageId& lpid) const {
  auto node = slots_by_node_.find(lpid.object);
  return node != slots_by_node_.end() && node->second.count(lpid) > 0;
}

base::Result<Pfdat*> SwapArea::SwapIn(Ctx& ctx, const LogicalPageId& lpid) {
  auto node = slots_by_node_.find(lpid.object);
  if (node == slots_by_node_.end()) {
    return base::NotFound();
  }
  auto it = node->second.find(lpid);
  if (it == node->second.end()) {
    return base::NotFound();
  }
  AllocConstraints constraints;
  ASSIGN_OR_RETURN(Pfdat * pfdat, cell_->allocator().AllocFrame(ctx, constraints));
  // The caller waits for the swap-in disk read.
  const uint64_t page_size = cell_->machine().mem().page_size();
  ctx.Charge(cell_->machine().disk(cell_->first_node())
                 .AccessTime(it->second.disk_offset, page_size));
  // DMA from OUR swap disk into the frame; borrowed frames were granted to
  // this cell's processors at loan time.
  cell_->machine().mem().DmaWrite(cell_->first_node(), pfdat->frame,
                                  std::span<const uint8_t>(it->second.bytes));
  pfdat->lpid = lpid;
  pfdat->dirty = true;  // Anonymous pages are always dirty relative to swap.
  cell_->pfdats().InsertHash(pfdat);
  node->second.erase(it);
  if (node->second.empty()) {
    slots_by_node_.erase(node);
  }
  --slots_in_use_;
  ++swap_ins_;
  cell_->Trace(TraceEvent::kSwapIn, pfdat->frame);
  return pfdat;
}

void SwapArea::DropNode(uint64_t node_id) {
  auto node = slots_by_node_.find(node_id);
  if (node != slots_by_node_.end()) {
    slots_in_use_ -= node->second.size();
    slots_by_node_.erase(node);
  }
}

}  // namespace hive
