#include "src/core/pageout.h"

#include <vector>

#include "src/base/log.h"
#include "src/core/cell.h"
#include "src/core/filesystem.h"
#include "src/core/hive_system.h"
#include "src/core/swap.h"

namespace hive {
namespace {

constexpr Time kReclaimPerPageNs = 2000;

}  // namespace

void PageoutDaemon::Start() {
  event_id_ = cell_->machine().events().ScheduleAfter(kScanPeriod, [this] { Tick(); });
}

void PageoutDaemon::Stop() {
  if (event_id_ != 0) {
    cell_->machine().events().Cancel(event_id_);
    event_id_ = 0;
  }
}

void PageoutDaemon::Tick() {
  if (!cell_->alive()) {
    return;
  }
  Ctx ctx = cell_->MakeCtx();
  // A swap-out DMA from a node that failed before the clock tick noticed
  // traps; the panicked kernel does not re-arm the daemon.
  if (!cell_->RunKernel("during pageout", [&] { (void)Scan(ctx); })) {
    return;
  }
  // The daemon's work occupies the CPU like any kernel thread.
  flash::Cpu& cpu = cell_->machine().cpu(ctx.cpu);
  cpu.free_at = std::max(cpu.free_at, ctx.start) + ctx.elapsed;
  Start();
}

int PageoutDaemon::Scan(Ctx& ctx, int max_pages) {
  if (cell_->allocator().free_frames() >= kLowWaterFrames) {
    return 0;
  }
  int freed = 0;

  // Pass 1: drop unreferenced read-only imports (no RPC urgency: the data
  // home keeps the page cached, a later fault re-imports it quickly).
  std::vector<Pfdat*> droppable;
  cell_->pfdats().ForEach([&](Pfdat* pfdat) {
    if (freed + static_cast<int>(droppable.size()) >= max_pages) {
      return;
    }
    if (pfdat->extended && pfdat->imported_from != kInvalidCell &&
        !pfdat->import_writable && pfdat->refcount == 0 &&
        pfdat->borrowed_from == kInvalidCell) {
      droppable.push_back(pfdat);
    }
  });
  for (Pfdat* pfdat : droppable) {
    cell_->fs().DropImport(ctx, pfdat);
    ctx.Charge(kReclaimPerPageNs);
    ++freed;
  }

  // Pass 2: reclaim local file pages with no users. Dirty ones are written
  // back to disk first (the write-behind path).
  std::vector<Pfdat*> reclaimable;
  cell_->pfdats().ForEach([&](Pfdat* pfdat) {
    if (freed + static_cast<int>(reclaimable.size()) >= max_pages) {
      return;
    }
    if (!pfdat->extended && pfdat->HasLogicalBinding() &&
        pfdat->lpid.kind == LogicalPageId::Kind::kFile &&
        pfdat->lpid.data_home == cell_->id() && pfdat->refcount == 0 &&
        pfdat->exported_to == 0 && !pfdat->loaned_out) {
      reclaimable.push_back(pfdat);
    }
  });
  for (Pfdat* pfdat : reclaimable) {
    const VnodeId vnode_id = static_cast<VnodeId>(pfdat->lpid.object);
    if (pfdat->dirty) {
      // Flush just this page through the file system's sync path.
      (void)cell_->fs().Sync(vnode_id);
      ++dirty_writebacks_;
      if (pfdat->dirty) {
        continue;  // Still write-shared somewhere: not reclaimable.
      }
    }
    cell_->pfdats().RemoveHash(pfdat);
    pfdat->lpid = LogicalPageId{};
    cell_->allocator().ReleaseToFreeList(pfdat);
    ctx.Charge(kReclaimPerPageNs);
    ++freed;
  }

  // Pass 3: swap out unreferenced, unexported anonymous pages (their backing
  // store is the swap partition, paper section 5.3).
  if (freed < max_pages) {
    std::vector<Pfdat*> swappable;
    cell_->pfdats().ForEach([&](Pfdat* pfdat) {
      if (freed + static_cast<int>(swappable.size()) >= max_pages) {
        return;
      }
      if (pfdat->HasLogicalBinding() && pfdat->lpid.kind == LogicalPageId::Kind::kAnon &&
          pfdat->lpid.data_home == cell_->id() && pfdat->refcount == 0 &&
          pfdat->exported_to == 0 && !pfdat->loaned_out &&
          pfdat->imported_from == kInvalidCell) {
        swappable.push_back(pfdat);
      }
    });
    for (Pfdat* pfdat : swappable) {
      if (cell_->swap().SwapOut(ctx, pfdat).ok()) {
        ctx.Charge(kReclaimPerPageNs);
        ++freed;
      }
    }
  }

  pages_reclaimed_ += static_cast<uint64_t>(freed);
  if (freed > 0) {
    LOG(kDebug) << "cell " << cell_->id() << " pageout reclaimed " << freed << " frames";
  }
  return freed;
}

}  // namespace hive
