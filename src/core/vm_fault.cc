#include "src/core/vm_fault.h"

#include <vector>

#include "src/base/log.h"
#include "src/base/sim_profile.h"
#include "src/core/cell.h"
#include "src/core/cow_tree.h"
#include "src/core/filesystem.h"
#include "src/core/hive_system.h"
#include "src/flash/bus_error.h"

namespace hive {
namespace {

constexpr Time kTlbRefillNs = 200;

LogicalPageId AnonLpid(CellId owner, uint64_t node_id, uint64_t offset) {
  LogicalPageId lpid;
  lpid.kind = LogicalPageId::Kind::kAnon;
  lpid.data_home = owner;
  lpid.object = node_id;
  lpid.page_offset = offset;
  return lpid;
}

// Creates (and zero-fills) a fresh anonymous page recorded at the process's
// local COW leaf.
base::Result<Pfdat*> CreateAnonPage(Ctx& ctx, Process& proc, uint64_t offset) {
  Cell& cell = *ctx.cell;
  KernelHeap& heap = cell.heap();
  const uint64_t leaf_id = heap.Read<uint64_t>(proc.cow_leaf() + CowNodeLayout::kNodeId);

  AllocConstraints constraints;
  ASSIGN_OR_RETURN(Pfdat * pfdat, cell.allocator().AllocFrame(ctx, constraints));
  // Zero the frame through the checked store path, in one bus transaction so
  // the accessibility and firewall checks run once per page, not per chunk.
  const uint64_t page_size = cell.machine().mem().page_size();
  thread_local std::vector<uint8_t> zeros;
  if (zeros.size() != page_size) {
    zeros.assign(page_size, 0);  // Only ever read; stays zero across calls.
  }
  // hive-lint: allow(R1): zero-fill of a freshly allocated frame through the checked store path.
  cell.machine().mem().Write(ctx.cpu, pfdat->frame, std::span<const uint8_t>(zeros));
  pfdat->lpid = AnonLpid(cell.id(), leaf_id, offset);
  pfdat->dirty = true;  // Anonymous pages have no clean backing store.
  cell.pfdats().InsertHash(pfdat);
  RETURN_IF_ERROR_RESULT(cell.cow().RecordPage(ctx, proc.cow_leaf(), offset));
  return pfdat;
}

// Copies the contents of `src` into a fresh anonymous page at the leaf
// (copy-on-write break).
base::Result<Pfdat*> CowCopy(Ctx& ctx, Process& proc, Pfdat* src, uint64_t offset) {
  Cell& cell = *ctx.cell;
  ASSIGN_OR_RETURN(Pfdat * dst, CreateAnonPage(ctx, proc, offset));
  const uint64_t page_size = cell.machine().mem().page_size();
  // COW breaks are steady-state work; reuse one per-thread copy buffer
  // instead of allocating a page-sized vector per break.
  thread_local std::vector<uint8_t> buf;
  buf.resize(page_size);
  // The source page's home may have died: its trap fails the break.
  if (flash::CaptureTrap([&] {
        // hive-lint: allow(R1): page-content copy (COW break) of data pages, not a kernel structure read.
        cell.machine().mem().Read(ctx.cpu, src->frame, std::span<uint8_t>(buf));
      })) {
    return base::IoError();
  }
  // hive-lint: allow(R1): destination is the local frame just allocated above.
  cell.machine().mem().Write(ctx.cpu, dst->frame, std::span<const uint8_t>(buf));
  // Copying a page costs one pass of loads+stores; dominated by misses.
  ctx.Charge(static_cast<Time>(page_size / 128) * cell.costs().remote_miss_ns / 4);
  return dst;
}

base::Result<Pfdat*> BindRemoteAnonPage(Ctx& ctx, Process& proc, CellId owner,
                                        uint64_t node_id, uint64_t offset, bool writable) {
  Cell& cell = *ctx.cell;
  const KernelCosts& costs = cell.costs();
  // Same client-side cost structure as a remote file fault (table 5.2).
  ctx.Charge(costs.fault_client_fs_ns + costs.fault_client_locking_ns +
             costs.fault_client_vm_misc_ns);

  RpcArgs args;
  args.w[0] = node_id;
  args.w[1] = offset;
  args.w[2] = static_cast<uint64_t>(cell.id());
  args.w[3] = writable ? 1 : 0;
  RpcReply reply;
  RETURN_IF_ERROR_RESULT(cell.rpc().CallFault(ctx, owner, MsgType::kCowBind, args, &reply));

  const PhysAddr frame = reply.w[0];
  const uint64_t page_size = cell.machine().mem().page_size();
  if (frame % page_size != 0 || !cell.machine().mem().ValidRange(frame, page_size) ||
      cell.heap().Contains(frame)) {
    cell.detector().RaiseHint(ctx, owner, HintReason::kCarefulCheckFailed);
    return base::BadRemoteData();
  }

  ctx.Charge(costs.fault_import_ns);
  Pfdat* pfdat = cell.pfdats().FindByFrame(frame);
  if (pfdat == nullptr) {
    pfdat = cell.pfdats().AddExtended(frame);
  } else if (pfdat->HasLogicalBinding()) {
    cell.pfdats().RemoveHash(pfdat);
  }
  pfdat->lpid = AnonLpid(owner, node_id, offset);
  pfdat->imported_from = owner;
  pfdat->import_writable = writable;
  pfdat->refcount++;
  cell.pfdats().InsertHash(pfdat);
  proc.AddDependency(owner);
  return pfdat;
}

base::Status AnonFault(Ctx& ctx, Process& proc, const Region& region, VirtAddr va,
                       bool write) {
  Cell& cell = *ctx.cell;
  const uint64_t page_size = cell.machine().mem().page_size();
  const VirtAddr va_page = va / page_size * page_size;
  const uint64_t offset = va / page_size;  // Anonymous pages are keyed by VA page.
  KernelHeap& heap = cell.heap();

  if (proc.cow_leaf() == 0) {
    return base::Internal();
  }
  const uint64_t leaf_id = heap.Read<uint64_t>(proc.cow_leaf() + CowNodeLayout::kNodeId);

  ASSIGN_OR_RETURN(const CowLookupResult found,
                   cell.cow().Lookup(ctx, proc.cow_leaf(), offset));

  if (!found.found) {
    // First touch: zero-fill at the leaf.
    ctx.Charge(cell.costs().fault_local_ns);
    ASSIGN_OR_RETURN(Pfdat * pfdat, CreateAnonPage(ctx, proc, offset));
    proc.address_space().InstallMapping(va_page, pfdat, region.writable);
    return base::OkStatus();
  }

  const bool own_page = found.owner_cell == cell.id() && found.node_id == leaf_id;

  if (found.owner_cell == cell.id()) {
    ctx.Charge(cell.costs().fault_local_ns);
    const LogicalPageId lpid = AnonLpid(cell.id(), found.node_id, offset);
    Pfdat* pfdat = cell.pfdats().FindByLpid(lpid);
    if (pfdat == nullptr && cell.swap().Contains(lpid)) {
      // The clock hand swapped it out: bring it back from the swap partition.
      auto swapped = cell.swap().SwapIn(ctx, lpid);
      RETURN_IF_ERROR(swapped.status());
      pfdat = *swapped;
      pfdat->refcount--;  // SwapIn's reference transfers to the logic below.
    }
    if (pfdat == nullptr) {
      // The tree says the page exists but neither the cache nor swap has it:
      // internal corruption.
      cell.Panic("anonymous page missing from page cache and swap");
      return base::Internal();
    }
    if (write && !own_page) {
      ASSIGN_OR_RETURN(Pfdat * copy, CowCopy(ctx, proc, pfdat, offset));
      proc.address_space().InstallMapping(va_page, copy, /*writable=*/true);
      return base::OkStatus();
    }
    pfdat->refcount++;
    proc.address_space().InstallMapping(va_page, pfdat, write || own_page);
    return base::OkStatus();
  }

  // Page recorded in a remote ancestor.
  ASSIGN_OR_RETURN(Pfdat * imported, BindRemoteAnonPage(ctx, proc, found.owner_cell,
                                                        found.node_id, offset,
                                                        /*writable=*/false));
  if (write) {
    ASSIGN_OR_RETURN(Pfdat * copy, CowCopy(ctx, proc, imported, offset));
    cell.fs().ReleasePage(ctx, imported);
    proc.address_space().InstallMapping(va_page, copy, /*writable=*/true);
    return base::OkStatus();
  }
  proc.address_space().InstallMapping(va_page, imported, /*writable=*/false);
  return base::OkStatus();
}

}  // namespace

base::Status PageFault(Ctx& ctx, Process& proc, VirtAddr va, bool write) {
  base::SimProfileScope profile_scope(base::SimSubsystem::kVmFault);
  Cell& cell = *ctx.cell;
  const uint64_t page_size = cell.machine().mem().page_size();
  const VirtAddr va_page = va / page_size * page_size;

  Mapping* mapping = proc.address_space().FindMapping(va_page);
  if (mapping != nullptr && (!write || mapping->writable)) {
    // Pure TLB refill: no kernel data structures touched, no Hive tax.
    ctx.Charge(kTlbRefillNs);
    return base::OkStatus();
  }
  cell.ChargeSyscallTax(ctx);

  // Section 5.2 accounting: faults that enter the kernel path.
  VmStats& stats = cell.vm_stats();
  ++stats.faults;
  const Time fault_begin = ctx.elapsed;
  const uint64_t remote_before = cell.fs().remote_faults();
  const uint64_t hits_before = cell.fs().local_fault_hits();
  struct StatScope {
    Ctx& ctx;
    VmStats& stats;
    Cell& cell;
    Time begin;
    uint64_t remote_before;
    uint64_t hits_before;
    ~StatScope() {
      stats.fault_ns += ctx.elapsed - begin;
      stats.remote_faults += cell.fs().remote_faults() - remote_before;
      stats.cache_hit_faults += (cell.fs().remote_faults() - remote_before) +
                                (cell.fs().local_fault_hits() - hits_before);
    }
  } stat_scope{ctx, stats, cell, fault_begin, remote_before, hits_before};

  ASSIGN_OR_RETURN(const Region region, proc.address_space().FindRegion(ctx, va));
  if (write && !region.writable) {
    return base::PermissionDenied();
  }

  if (!region.is_file) {
    if (mapping != nullptr) {
      // Write to a read-only anon mapping: COW break replaces the mapping.
      cell.fs().ReleasePage(ctx, mapping->pfdat);
      proc.address_space().RemoveMapping(va_page);
    }
    return AnonFault(ctx, proc, region, va, write);
  }

  FileHandle handle;
  handle.data_home = region.data_home;
  handle.vnode = region.vnode;
  handle.generation = region.generation;

  const uint64_t page_index =
      region.file_page_offset + (va_page - region.va_start) / page_size;
  // Paper section 4.2 policy: faulting a page into a *writable portion* of an
  // address space grants the whole client cell write access, even on a read
  // fault -- so the cell can freely reschedule the process on its CPUs.
  const bool want_write = region.writable;
  auto got = cell.fs().GetPage(ctx, handle, page_index, want_write,
                               FileSystem::AccessPath::kFault);
  if (!got.ok()) {
    return got.status();
  }
  if (mapping != nullptr) {
    cell.fs().ReleasePage(ctx, mapping->pfdat);
    proc.address_space().RemoveMapping(va_page);
  }
  proc.address_space().InstallMapping(va_page, *got, region.writable);
  if ((*got)->imported_from != kInvalidCell && want_write) {
    // A writable imported page is a hard dependency: a wild write from the
    // data home's side could corrupt it undetectably.
    proc.AddDependency((*got)->imported_from);
  }
  return base::OkStatus();
}

}  // namespace hive
