#include "src/core/address_space.h"

#include "src/base/log.h"
#include "src/core/cell.h"
#include "src/core/filesystem.h"
#include "src/core/hive_system.h"

namespace hive {
namespace {

constexpr Time kRegionWalkStepNs = 300;
constexpr Time kMapEntryAllocNs = 1500;

}  // namespace

base::Status AddressSpace::AppendEntry(Ctx& ctx, const Region& region) {
  ctx.Charge(kMapEntryAllocNs);
  KernelHeap& heap = cell_->heap();
  ASSIGN_OR_RETURN(const PhysAddr entry,
                   heap.Alloc(kTagAddrMapEntry, AddrMapEntryLayout::kEntryBytes));
  heap.Write<uint64_t>(entry + AddrMapEntryLayout::kVaStart, region.va_start);
  heap.Write<uint64_t>(entry + AddrMapEntryLayout::kLength, region.length);
  heap.Write<uint32_t>(entry + AddrMapEntryLayout::kKind,
                       region.is_file ? AddrMapEntryLayout::kKindFile
                                      : AddrMapEntryLayout::kKindAnon);
  heap.Write<uint32_t>(entry + AddrMapEntryLayout::kWritable, region.writable ? 1 : 0);
  heap.Write<uint64_t>(entry + AddrMapEntryLayout::kObject,
                       static_cast<uint64_t>(region.vnode));
  heap.Write<uint32_t>(entry + AddrMapEntryLayout::kDataHome,
                       static_cast<uint32_t>(region.data_home));
  heap.Write<uint32_t>(entry + AddrMapEntryLayout::kGeneration, region.generation);
  heap.Write<uint64_t>(entry + AddrMapEntryLayout::kFileOffset, region.file_page_offset);
  heap.Write<uint64_t>(entry + AddrMapEntryLayout::kNext, 0);

  if (head_ == 0) {
    head_ = entry;
  } else {
    heap.Write<uint64_t>(tail_ + AddrMapEntryLayout::kNext, entry);
  }
  tail_ = entry;
  return base::OkStatus();
}

base::Status AddressSpace::MapFile(Ctx& ctx, VirtAddr va, uint64_t length,
                                   const FileHandle& handle, bool writable,
                                   uint64_t file_page_offset) {
  Region region;
  region.va_start = va;
  region.length = length;
  region.is_file = true;
  region.writable = writable;
  region.vnode = handle.vnode;
  region.data_home = handle.data_home;
  region.generation = handle.generation;
  region.file_page_offset = file_page_offset;
  return AppendEntry(ctx, region);
}

base::Status AddressSpace::MapAnon(Ctx& ctx, VirtAddr va, uint64_t length, bool writable) {
  Region region;
  region.va_start = va;
  region.length = length;
  region.is_file = false;
  region.writable = writable;
  region.data_home = cell_->id();
  return AppendEntry(ctx, region);
}

base::Result<Region> AddressSpace::FindRegion(Ctx& ctx, VirtAddr va) {
  KernelHeap& heap = cell_->heap();
  PhysAddr entry = head_;
  // The list is bounded; a longer walk means a corrupt next pointer loop.
  for (int steps = 0; steps < 4096 && entry != 0; ++steps) {
    ctx.Charge(kRegionWalkStepNs);
    // The kernel trusts its own memory only as far as the allocator tags; a
    // mismatch means internal corruption and the cell panics (section 4.1
    // discusses panics on internal errors).
    if (entry % 8 != 0 || !heap.Contains(entry) ||
        heap.ReadTypeTag(ctx.cpu, entry) != static_cast<uint32_t>(kTagAddrMapEntry)) {
      cell_->Panic("corrupt process address map entry");
      return base::Internal();
    }
    const uint64_t start = heap.Read<uint64_t>(entry + AddrMapEntryLayout::kVaStart);
    const uint64_t length = heap.Read<uint64_t>(entry + AddrMapEntryLayout::kLength);
    if (va >= start && va - start < length) {
      Region region;
      region.entry_addr = entry;
      region.va_start = start;
      region.length = length;
      region.is_file = heap.Read<uint32_t>(entry + AddrMapEntryLayout::kKind) ==
                       AddrMapEntryLayout::kKindFile;
      region.writable = heap.Read<uint32_t>(entry + AddrMapEntryLayout::kWritable) != 0;
      region.vnode =
          static_cast<VnodeId>(heap.Read<uint64_t>(entry + AddrMapEntryLayout::kObject));
      region.data_home =
          static_cast<CellId>(heap.Read<uint32_t>(entry + AddrMapEntryLayout::kDataHome));
      region.generation = heap.Read<uint32_t>(entry + AddrMapEntryLayout::kGeneration);
      region.file_page_offset = heap.Read<uint64_t>(entry + AddrMapEntryLayout::kFileOffset);
      // Final sanity check on decoded values.
      if (region.is_file &&
          (region.data_home < 0 || region.data_home >= cell_->system()->num_cells())) {
        cell_->Panic("corrupt data home in address map entry");
        return base::Internal();
      }
      return region;
    }
    entry = heap.Read<uint64_t>(entry + AddrMapEntryLayout::kNext);
  }
  if (entry != 0) {
    cell_->Panic("address map list does not terminate");
    return base::Internal();
  }
  return base::NotFound();
}

std::vector<Region> AddressSpace::ListRegions(Ctx& ctx) {
  std::vector<Region> regions;
  KernelHeap& heap = cell_->heap();
  PhysAddr entry = head_;
  for (int steps = 0; steps < 4096 && entry != 0; ++steps) {
    ctx.Charge(kRegionWalkStepNs);
    if (entry % 8 != 0 || !heap.Contains(entry) ||
        heap.ReadTypeTag(ctx.cpu, entry) != static_cast<uint32_t>(kTagAddrMapEntry)) {
      cell_->Panic("corrupt process address map entry during enumeration");
      return regions;
    }
    Region region;
    region.entry_addr = entry;
    region.va_start = heap.Read<uint64_t>(entry + AddrMapEntryLayout::kVaStart);
    region.length = heap.Read<uint64_t>(entry + AddrMapEntryLayout::kLength);
    region.is_file = heap.Read<uint32_t>(entry + AddrMapEntryLayout::kKind) ==
                     AddrMapEntryLayout::kKindFile;
    region.writable = heap.Read<uint32_t>(entry + AddrMapEntryLayout::kWritable) != 0;
    region.vnode =
        static_cast<VnodeId>(heap.Read<uint64_t>(entry + AddrMapEntryLayout::kObject));
    region.data_home =
        static_cast<CellId>(heap.Read<uint32_t>(entry + AddrMapEntryLayout::kDataHome));
    region.generation = heap.Read<uint32_t>(entry + AddrMapEntryLayout::kGeneration);
    region.file_page_offset = heap.Read<uint64_t>(entry + AddrMapEntryLayout::kFileOffset);
    regions.push_back(region);
    entry = heap.Read<uint64_t>(entry + AddrMapEntryLayout::kNext);
  }
  return regions;
}

Mapping* AddressSpace::FindMapping(VirtAddr va_page) {
  auto it = mappings_.find(va_page);
  return it == mappings_.end() ? nullptr : &it->second;
}

void AddressSpace::InstallMapping(VirtAddr va_page, Pfdat* pfdat, bool writable) {
  mappings_[va_page] = Mapping{pfdat, writable};
}

void AddressSpace::RemoveMapping(VirtAddr va_page) { mappings_.erase(va_page); }

int AddressSpace::FlushMappings(Ctx& ctx, bool remote_only) {
  int removed = 0;
  for (auto it = mappings_.begin(); it != mappings_.end();) {
    Pfdat* pfdat = it->second.pfdat;
    const bool remote = pfdat->extended;
    if (remote_only && !remote) {
      ++it;
      continue;
    }
    cell_->fs().ReleasePage(ctx, pfdat);
    if (pfdat->imported_from != kInvalidCell && pfdat->import_writable &&
        pfdat->refcount == 0) {
      // Last mapping of a writable import on this cell: give it back so the
      // data home can close the firewall (section 4.2 policy). Read-only
      // imports stay cached for fast re-faults.
      cell_->fs().DropImport(ctx, pfdat);
    }
    ctx.Charge(cell_->costs().recovery_per_mapping_ns);
    it = mappings_.erase(it);
    ++removed;
  }
  return removed;
}

base::Status AddressSpace::CopyFrom(Ctx& ctx, Ctx& parent_ctx, AddressSpace& parent) {
  for (const Region& region : parent.ListRegions(parent_ctx)) {
    RETURN_IF_ERROR(AppendEntry(ctx, region));
  }
  return base::OkStatus();
}

void AddressSpace::Teardown(Ctx& ctx) {
  FlushMappings(ctx, /*remote_only=*/false);
  KernelHeap& heap = cell_->heap();
  PhysAddr entry = head_;
  for (int steps = 0; steps < 4096 && entry != 0; ++steps) {
    if (!heap.Contains(entry) ||
        heap.ReadTypeTag(ctx.cpu, entry) != static_cast<uint32_t>(kTagAddrMapEntry)) {
      // Teardown of a corrupt map: stop walking; the heap space leaks, which
      // is acceptable for a process being destroyed on a panicking path.
      break;
    }
    const PhysAddr next = heap.Read<uint64_t>(entry + AddrMapEntryLayout::kNext);
    heap.Free(entry);
    entry = next;
  }
  head_ = tail_ = 0;
  std::unordered_map<VirtAddr, Mapping>().swap(mappings_);
}

}  // namespace hive
