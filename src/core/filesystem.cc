#include "src/core/filesystem.h"

#include <algorithm>
#include <utility>

#include "src/base/log.h"
#include "src/base/sim_profile.h"
#include "src/core/cell.h"
#include "src/core/hive_system.h"
#include "src/flash/bus_error.h"

namespace hive {
namespace {

// Client-side hash lookup from read()/write() (no trap overhead).
constexpr Time kSyscallPageLookupNs = 1200;
// Pages per kReadAhead / kWriteBehind RPC batch (bounded by the reply words).
constexpr uint64_t kBulkBatchPages = 8;

uint64_t ShadowKey(CellId data_home, VnodeId remote_id) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(data_home)) << 48) ^
         static_cast<uint64_t>(remote_id);
}

}  // namespace

FileSystem::FileSystem(Cell* cell) : cell_(cell) {}

Vnode* FileSystem::FindVnode(VnodeId id) {
  auto it = vnodes_.find(id);
  return it == vnodes_.end() ? nullptr : &it->second;
}

const Vnode* FileSystem::FindVnode(VnodeId id) const {
  auto it = vnodes_.find(id);
  return it == vnodes_.end() ? nullptr : &it->second;
}

Vnode* FileSystem::FindShadowFor(CellId data_home, VnodeId remote_id) {
  auto it = shadow_index_.find(ShadowKey(data_home, remote_id));
  return it == shadow_index_.end() ? nullptr : FindVnode(it->second);
}

base::Result<FileId> FileSystem::Create(Ctx& ctx, const std::string& path,
                                        std::vector<uint8_t> initial_data) {
  base::SimProfileScope profile_scope(base::SimSubsystem::kFilesystem);
  cell_->ChargeSyscallTax(ctx);
  ctx.Charge(cell_->costs().create_local_ns);
  if (cell_->system()->LookupPath(path).ok()) {
    return base::AlreadyExists();
  }
  const VnodeId id = next_vnode_id_++;
  Vnode& vnode = vnodes_[id];
  vnode.id = id;
  vnode.path = path;
  vnode.size_bytes = initial_data.size();
  vnode.disk_image = std::move(initial_data);
  const FileId file_id{cell_->id(), id};
  cell_->system()->RegisterPath(path, file_id);
  return file_id;
}

base::Result<VnodeId> FileSystem::EnsureShadow(Ctx& ctx, CellId data_home, VnodeId remote_id,
                                               const std::string& path) {
  (void)ctx;
  if (Vnode* existing = FindShadowFor(data_home, remote_id)) {
    return existing->id;
  }
  const VnodeId id = next_vnode_id_++;
  Vnode& vnode = vnodes_[id];
  vnode.id = id;
  vnode.path = path;
  vnode.is_shadow = true;
  vnode.shadow_data_home = data_home;
  vnode.shadow_remote_id = remote_id;
  shadow_index_[ShadowKey(data_home, remote_id)] = id;
  return id;
}

base::Result<FileHandle> FileSystem::Open(Ctx& ctx, const std::string& path) {
  base::SimProfileScope profile_scope(base::SimSubsystem::kFilesystem);
  cell_->ChargeSyscallTax(ctx);
  ctx.Charge(cell_->costs().open_local_ns);

  auto file_id = cell_->system()->LookupPath(path);
  if (!file_id.ok()) {
    return file_id.status();
  }
  const CellId home = file_id->data_home;

  if (home == cell_->id()) {
    Vnode* vnode = FindVnode(file_id->vnode);
    if (vnode == nullptr) {
      return base::NotFound();
    }
    ++vnode->open_count;
    FileHandle handle;
    handle.data_home = home;
    handle.vnode = vnode->id;
    handle.local_vnode = vnode->id;
    handle.generation = vnode->generation;
    handle.size_bytes = vnode->size_bytes;
    return handle;
  }

  // Remote open: shadow vnode + queued RPC to the data home to validate the
  // file and fetch its generation and size.
  ctx.Charge(cell_->costs().open_remote_extra_ns);
  RpcArgs args;
  args.w[0] = static_cast<uint64_t>(file_id->vnode);
  RpcReply reply;
  RETURN_IF_ERROR_RESULT(
      cell_->rpc().Call(ctx, home, MsgType::kOpen, args, &reply, CallOptions{.fat_stub = true}));

  ASSIGN_OR_RETURN(const VnodeId shadow_id, EnsureShadow(ctx, home, file_id->vnode, path));
  FileHandle handle;
  handle.data_home = home;
  handle.vnode = file_id->vnode;
  handle.local_vnode = shadow_id;
  handle.generation = static_cast<Generation>(reply.w[0]);
  handle.size_bytes = reply.w[1];
  return handle;
}

void FileSystem::Close(Ctx& ctx, FileHandle& handle) {
  base::SimProfileScope profile_scope(base::SimSubsystem::kFilesystem);
  cell_->ChargeSyscallTax(ctx);
  ctx.Charge(cell_->costs().close_ns);
  if (handle.data_home == cell_->id()) {
    // Local close triggers write-behind of dirty pages.
    (void)Sync(handle.local_vnode);
    if (Vnode* vnode = FindVnode(handle.local_vnode)) {
      vnode->open_count = std::max(0, vnode->open_count - 1);
    }
  } else if (handle.valid()) {
    // Remote close: the data home flushes our dirty data.
    RpcArgs args;
    args.w[0] = static_cast<uint64_t>(handle.vnode);
    RpcReply reply;
    (void)cell_->rpc().Call(ctx, handle.data_home, MsgType::kSyncFile, args, &reply);
  }
  handle = FileHandle{};
}

base::Status FileSystem::Unlink(Ctx& ctx, const std::string& path) {
  base::SimProfileScope profile_scope(base::SimSubsystem::kFilesystem);
  cell_->ChargeSyscallTax(ctx);
  ctx.Charge(cell_->costs().close_ns);
  auto file_id = cell_->system()->LookupPath(path);
  if (!file_id.ok()) {
    return file_id.status();
  }
  cell_->system()->UnregisterPath(path);
  if (file_id->data_home != cell_->id()) {
    RpcArgs args;
    args.w[0] = static_cast<uint64_t>(file_id->vnode);
    RpcReply reply;
    return cell_->rpc().Call(ctx, file_id->data_home, MsgType::kUnlink, args, &reply,
                             CallOptions{.fat_stub = true});
  }
  return RemoveVnode(ctx, file_id->vnode);
}

base::Status FileSystem::RemoveVnode(Ctx& ctx, VnodeId vnode_id) {
  auto it = vnodes_.find(vnode_id);
  if (it == vnodes_.end() || it->second.is_shadow) {
    return base::NotFound();
  }
  // Drop every cached page of the file.
  std::vector<Pfdat*> cached;
  cell_->pfdats().ForEach([&](Pfdat* pfdat) {
    if (pfdat->HasLogicalBinding() && pfdat->lpid.kind == LogicalPageId::Kind::kFile &&
        pfdat->lpid.data_home == cell_->id() &&
        pfdat->lpid.object == static_cast<uint64_t>(vnode_id)) {
      cached.push_back(pfdat);
    }
  });
  for (Pfdat* pfdat : cached) {
    cell_->pfdats().RemoveHash(pfdat);
    pfdat->lpid = LogicalPageId{};
    pfdat->dirty = false;
    if (!pfdat->extended && pfdat->refcount == 0 && !pfdat->loaned_out) {
      cell_->allocator().ReleaseToFreeList(pfdat);
    }
    ctx.Charge(500);
  }
  vnodes_.erase(it);
  return base::OkStatus();
}

base::Status FileSystem::Rename(Ctx& ctx, const std::string& from, const std::string& to) {
  base::SimProfileScope profile_scope(base::SimSubsystem::kFilesystem);
  cell_->ChargeSyscallTax(ctx);
  ctx.Charge(cell_->costs().close_ns);
  return cell_->system()->RenamePath(from, to);
}

base::Result<Pfdat*> FileSystem::GetPageLocal(Ctx& ctx, VnodeId vnode_id, uint64_t page_index,
                                              bool want_write, CellId place_near) {
  Vnode* vnode = FindVnode(vnode_id);
  if (vnode == nullptr || vnode->is_shadow) {
    return base::NotFound();
  }
  const uint64_t page_size = cell_->machine().mem().page_size();
  LogicalPageId lpid;
  lpid.kind = LogicalPageId::Kind::kFile;
  lpid.data_home = cell_->id();
  lpid.object = static_cast<uint64_t>(vnode_id);
  lpid.page_offset = page_index;

  Pfdat* pfdat = cell_->pfdats().FindByLpid(lpid);
  if (pfdat == nullptr) {
    AllocConstraints constraints;  // File cache pages may live anywhere.
    if (place_near != kInvalidCell && place_near != cell_->id() &&
        cell_->system()->options().numa_placement) {
      constraints.preferred_cell = place_near;
    }
    ASSIGN_OR_RETURN(pfdat, cell_->allocator().AllocFrame(ctx, constraints));
    // The allocator's reference transfers to this caller (counted below);
    // cached pages at refcount 0 are reclaimable by the clock hand.
    pfdat->refcount = 0;
    pfdat->lpid = lpid;
    pfdat->generation = vnode->generation;
    pfdat->salvage_sum_valid = false;  // Fresh binding: no content baseline yet.
    cell_->pfdats().InsertHash(pfdat);

    const uint64_t byte_off = page_index * page_size;
    if (byte_off < vnode->disk_image.size()) {
      // DMA the disk block into the frame (firewall-checked as a write from
      // this node; borrowed frames were granted to us at loan time).
      const uint64_t n = std::min<uint64_t>(page_size, vnode->disk_image.size() - byte_off);
      ctx.Charge(cell_->machine().disk(cell_->first_node()).AccessTime(byte_off, n));
      cell_->machine().mem().Write(
          ctx.cpu, pfdat->frame,
          std::span<const uint8_t>(vnode->disk_image.data() + byte_off, n));
    }
    // Pages past the on-disk image are zero-filled (frames are zeroed when
    // reused; newly booted memory is zero).
  }
  if (want_write) {
    pfdat->dirty = true;
  }
  pfdat->refcount++;
  return pfdat;
}

base::Result<PhysAddr> FileSystem::ExportPage(Ctx& ctx, VnodeId vnode_id, uint64_t page_index,
                                              CellId client, bool writable,
                                              Generation* gen_out) {
  // export(): record the client cell in the data home's pfdat, which prevents
  // deallocation and feeds the failure recovery algorithms; modify the
  // firewall if write access is requested (paper table 5.1 / section 5.2).
  ctx.Charge(cell_->costs().fault_export_ns);
  if (ctx.fault_bd != nullptr) {
    ctx.fault_bd->home_export += cell_->costs().fault_export_ns;
  }
  ASSIGN_OR_RETURN(Pfdat * pfdat, GetPageLocal(ctx, vnode_id, page_index, /*want_write=*/false,
                                               /*place_near=*/client));
  // CC-NUMA placement (sections 5.5/5.6): on the first writable export of a
  // locally-framed page with no other users, migrate it into a frame
  // borrowed from the client's memory so the client's stores become local.
  // The borrowed frame is "simultaneously loaned out and imported back".
  if (writable && cell_->system()->options().numa_placement && client != cell_->id() &&
      cell_->OwnsAddr(pfdat->frame) && pfdat->exported_to == 0 &&
      pfdat->exported_writable == 0 && pfdat->refcount == 1) {
    auto migrated = MigratePageNear(ctx, pfdat, client);
    if (migrated.ok()) {
      pfdat = *migrated;
    }
  }
  pfdat->exported_to |= 1ull << client;
  // The export record alone is not proof of write access: under the
  // single-writer ablation policy another cell's grant may have evicted ours.
  const bool hw_granted =
      (pfdat->exported_writable & (1ull << client)) != 0 &&
      (!cell_->OwnsAddr(pfdat->frame) ||
       cell_->machine().firewall().MayWrite(
           cell_->machine().mem().PfnOfAddr(pfdat->frame),
           cell_->system()->cell(client).FirstCpu()));
  if (writable && !hw_granted) {
    pfdat->exported_writable |= 1ull << client;
    // Conservatively dirty: the client writes to the frame without telling us.
    pfdat->dirty = true;
    Vnode* vnode = FindVnode(vnode_id);
    const uint64_t page_size = cell_->machine().mem().page_size();
    vnode->size_bytes = std::max(vnode->size_bytes, (page_index + 1) * page_size);

    const Pfn pfn = cell_->machine().mem().PfnOfAddr(pfdat->frame);
    if (cell_->OwnsAddr(pfdat->frame)) {
      RETURN_IF_ERROR_RESULT(cell_->firewall_manager().GrantWrite(ctx, pfn, client));
    } else {
      // The frame was borrowed: only the memory home can change its firewall
      // bits (paper section 5.4).
      RpcArgs args;
      args.w[0] = pfdat->frame;
      args.w[1] = static_cast<uint64_t>(client);
      RpcReply reply;
      RETURN_IF_ERROR_RESULT(cell_->rpc().Call(ctx, pfdat->borrowed_from,
                                               MsgType::kGrantFirewall, args, &reply));
    }
  }
  if (writable) {
    // Baseline snapshot at grant time: the recovery salvage walk compares
    // against this to prove the client never scribbled the page.
    RecordSalvageSum(pfdat);
  }
  // The export keeps a reference until every client releases.
  if (gen_out != nullptr) {
    *gen_out = pfdat->generation;
  }
  return pfdat->frame;
}

base::Result<Pfdat*> FileSystem::ImportRemotePage(Ctx& ctx, const FileHandle& handle,
                                                  uint64_t page_index, bool want_write) {
  ++remote_faults_;
  const KernelCosts& costs = cell_->costs();

  // Client cell components of table 5.2.
  ctx.Charge(costs.fault_client_fs_ns + costs.fault_client_locking_ns +
             costs.fault_client_vm_misc_ns);
  if (ctx.fault_bd != nullptr) {
    ctx.fault_bd->client_fs += costs.fault_client_fs_ns;
    ctx.fault_bd->client_locking += costs.fault_client_locking_ns;
    ctx.fault_bd->client_vm_misc += costs.fault_client_vm_misc_ns;
  }

  RpcArgs args;
  args.w[0] = static_cast<uint64_t>(handle.vnode);
  args.w[1] = page_index;
  args.w[2] = want_write ? 1 : 0;
  args.w[3] = static_cast<uint64_t>(cell_->id());
  args.w[4] = handle.generation;
  RpcReply reply;
  RETURN_IF_ERROR_RESULT(
      cell_->rpc().CallFault(ctx, handle.data_home, MsgType::kPageFault, args, &reply));

  const PhysAddr frame = reply.w[0];
  const Generation gen = static_cast<Generation>(reply.w[1]);

  // Sanity-check everything received from the other cell: the frame must be a
  // page-aligned address inside memory the data home could legitimately hand
  // us (its own range or a range it borrowed -- i.e. not *our* kernel range).
  if (frame % cell_->machine().mem().page_size() != 0 ||
      !cell_->machine().mem().ValidRange(frame, cell_->machine().mem().page_size()) ||
      cell_->heap().Contains(frame)) {
    cell_->detector().RaiseHint(ctx, handle.data_home, HintReason::kCarefulCheckFailed);
    return base::BadRemoteData();
  }

  // import(): allocate an extended pfdat and insert it into the hash so
  // further faults hit locally (paper section 5.2).
  ctx.Charge(costs.fault_import_ns);
  if (ctx.fault_bd != nullptr) {
    ctx.fault_bd->client_import += costs.fault_import_ns;
  }
  LogicalPageId lpid;
  lpid.kind = LogicalPageId::Kind::kFile;
  lpid.data_home = handle.data_home;
  lpid.object = static_cast<uint64_t>(handle.vnode);
  lpid.page_offset = page_index;

  Pfdat* pfdat = cell_->pfdats().FindByFrame(frame);
  if (pfdat == nullptr) {
    pfdat = cell_->pfdats().AddExtended(frame);
  } else if (pfdat->HasLogicalBinding()) {
    // The frame is already bound (e.g. a frame we loaned out and now import
    // back, paper section 5.5): reuse the pre-existing pfdat.
    cell_->pfdats().RemoveHash(pfdat);
  }
  pfdat->lpid = lpid;
  pfdat->imported_from = handle.data_home;
  pfdat->import_writable = want_write;
  pfdat->generation = gen;
  pfdat->refcount++;
  cell_->pfdats().InsertHash(pfdat);
  return pfdat;
}

base::Result<Pfdat*> FileSystem::GetPage(Ctx& ctx, const FileHandle& handle,
                                         uint64_t page_index, bool want_write,
                                         AccessPath path) {
  LogicalPageId lpid;
  lpid.kind = LogicalPageId::Kind::kFile;
  lpid.data_home = handle.data_home;
  lpid.object = static_cast<uint64_t>(handle.vnode);
  lpid.page_offset = page_index;

  Pfdat* pfdat = cell_->pfdats().FindByLpid(lpid);
  if (pfdat != nullptr) {
    // Hit in the local (client or home) page cache.
    if (handle.generation != pfdat->generation) {
      return base::StaleGeneration();
    }
    ctx.Charge(path == AccessPath::kFault ? cell_->costs().fault_local_ns
                                          : kSyscallPageLookupNs);
    ++local_fault_hits_;
    if (want_write && pfdat->imported_from != kInvalidCell && !pfdat->import_writable) {
      // Upgrade to a writable import.
      RpcArgs args;
      args.w[0] = static_cast<uint64_t>(handle.vnode);
      args.w[1] = page_index;
      args.w[2] = static_cast<uint64_t>(cell_->id());
      RpcReply reply;
      RETURN_IF_ERROR_RESULT(cell_->rpc().Call(ctx, handle.data_home, MsgType::kUpgradeWrite,
                                               args, &reply, CallOptions{.fat_stub = true}));
      pfdat->import_writable = true;
    }
    if (want_write && pfdat->imported_from == kInvalidCell) {
      pfdat->dirty = true;
    }
    pfdat->refcount++;
    return pfdat;
  }

  if (handle.data_home == cell_->id()) {
    if (path == AccessPath::kFault) {
      ctx.Charge(cell_->costs().fault_local_ns);
    }
    Vnode* vnode = FindVnode(handle.vnode);
    if (vnode == nullptr) {
      return base::NotFound();
    }
    if (handle.generation != vnode->generation) {
      return base::StaleGeneration();
    }
    return GetPageLocal(ctx, handle.vnode, page_index, want_write);
  }

  return ImportRemotePage(ctx, handle, page_index, want_write);
}

void FileSystem::ReleasePage(Ctx& ctx, Pfdat* pfdat) {
  (void)ctx;
  CHECK_GT(pfdat->refcount, 0);
  pfdat->refcount--;
  // Pages stay cached at refcount 0; imported bindings are dropped at process
  // teardown / recovery (release()), local pages are reclaimed under memory
  // pressure by the clock hand (not modelled: memory is provisioned to fit).
}

base::Result<Pfdat*> FileSystem::MigratePageNear(Ctx& ctx, Pfdat* pfdat, CellId client) {
  AllocConstraints constraints;
  constraints.preferred_cell = client;
  auto borrowed = cell_->allocator().AllocFrame(ctx, constraints);
  if (!borrowed.ok()) {
    return borrowed.status();  // Client out of frames: keep the local copy.
  }
  Pfdat* dest = *borrowed;
  if (cell_->system()->CellOfAddr(dest->frame) != client) {
    dest->refcount = 0;
    cell_->allocator().FreeFrame(ctx, dest);
    return base::ResourceExhausted();
  }
  // Copy the page into the borrowed frame (our stores are permitted there:
  // the loan granted this cell's processors).
  const uint64_t page_size = cell_->machine().mem().page_size();
  std::vector<uint8_t> buf(page_size);
  cell_->machine().mem().Read(ctx.cpu, pfdat->frame, std::span<uint8_t>(buf));
  cell_->machine().mem().Write(ctx.cpu, dest->frame, std::span<const uint8_t>(buf));
  ctx.Charge(static_cast<Time>(page_size / 128) * cell_->costs().remote_miss_ns / 2);

  // Move the logical binding onto the borrowed frame and free the old one.
  cell_->pfdats().RemoveHash(pfdat);
  dest->lpid = pfdat->lpid;
  dest->generation = pfdat->generation;
  dest->dirty = pfdat->dirty;
  dest->refcount = pfdat->refcount;
  dest->salvage_sum = pfdat->salvage_sum;
  dest->salvage_gen = pfdat->salvage_gen;
  dest->salvage_sum_valid = pfdat->salvage_sum_valid;
  cell_->pfdats().InsertHash(dest);
  pfdat->lpid = LogicalPageId{};
  pfdat->dirty = false;
  pfdat->refcount = 0;
  cell_->allocator().ReleaseToFreeList(pfdat);
  cell_->Trace(TraceEvent::kPageMigrated, pfdat->frame, dest->frame);
  return dest;
}

void FileSystem::DropImport(Ctx& ctx, Pfdat* pfdat) {
  CHECK_NE(pfdat->imported_from, kInvalidCell);
  CHECK_EQ(pfdat->refcount, 0);
  RpcArgs args;
  args.w[0] = pfdat->lpid.object;
  args.w[1] = pfdat->lpid.page_offset;
  args.w[2] = static_cast<uint64_t>(cell_->id());
  args.w[3] = static_cast<uint64_t>(pfdat->lpid.kind);
  RpcReply reply;
  // Best effort: if the home is dead or in recovery it cleans up on its own.
  (void)cell_->rpc().Call(ctx, pfdat->imported_from, MsgType::kReleasePage, args, &reply);
  if (!pfdat->extended || pfdat->borrowed_from != kInvalidCell) {
    // A loaned-out local frame imported back (section 5.5 pre-existing pfdat)
    // or a borrowed frame: only drop the logical binding.
    cell_->pfdats().RemoveHash(pfdat);
    pfdat->imported_from = kInvalidCell;
    pfdat->import_writable = false;
    pfdat->lpid = LogicalPageId{};
    return;
  }
  cell_->pfdats().RemoveExtended(pfdat);
}

base::Status FileSystem::Read(Ctx& ctx, const FileHandle& handle, uint64_t offset,
                              std::span<uint8_t> out) {
  base::SimProfileScope profile_scope(base::SimSubsystem::kFilesystem);
  cell_->ChargeSyscallTax(ctx);
  const uint64_t page_size = cell_->machine().mem().page_size();
  const bool remote = handle.data_home != cell_->id();
  const KernelCosts& costs = cell_->costs();

  std::unordered_map<uint64_t, PhysAddr> bulk_frames;  // page index -> home frame.
  uint64_t done = 0;
  while (done < out.size()) {
    const uint64_t byte = offset + done;
    const uint64_t page = byte / page_size;
    const uint64_t in_page = byte % page_size;
    const uint64_t chunk = std::min<uint64_t>(page_size - in_page, out.size() - done);

    ctx.Charge(costs.file_read_per_page_ns);
    PhysAddr frame = flash::kInvalidPhysAddr;

    // Imported or local pages hit the local hash; otherwise the remote bulk
    // path reads straight out of the data home's page cache.
    LogicalPageId lpid;
    lpid.kind = LogicalPageId::Kind::kFile;
    lpid.data_home = handle.data_home;
    lpid.object = static_cast<uint64_t>(handle.vnode);
    lpid.page_offset = page;
    Pfdat* pfdat = cell_->pfdats().FindByLpid(lpid);
    if (pfdat != nullptr) {
      if (handle.generation != pfdat->generation) {
        return base::StaleGeneration();
      }
      frame = pfdat->frame;
    } else if (!remote) {
      Vnode* vnode = FindVnode(handle.vnode);
      if (vnode == nullptr) {
        return base::NotFound();
      }
      if (handle.generation != vnode->generation) {
        return base::StaleGeneration();
      }
      auto got = GetPageLocal(ctx, handle.vnode, page, /*want_write=*/false);
      RETURN_IF_ERROR(got.status());
      frame = (*got)->frame;
      (*got)->refcount--;
    } else {
      ctx.Charge(costs.file_read_remote_extra_ns);
      auto it = bulk_frames.find(page);
      if (it == bulk_frames.end()) {
        // Fetch the next batch of data-home frame addresses with one RPC.
        const uint64_t last_page = (offset + out.size() - 1) / page_size;
        const uint64_t count = std::min<uint64_t>(kBulkBatchPages, last_page - page + 1);
        RpcArgs args;
        args.w[0] = static_cast<uint64_t>(handle.vnode);
        args.w[1] = page;
        args.w[2] = count;
        args.w[3] = handle.generation;
        RpcReply reply;
        base::Status status = cell_->rpc().Call(ctx, handle.data_home, MsgType::kReadAhead,
                                                args, &reply, CallOptions{.fat_stub = true});
        RETURN_IF_ERROR(status);
        const uint64_t got = std::min<uint64_t>(reply.w[0], kBulkBatchPages);
        for (uint64_t i = 0; i < got; ++i) {
          const PhysAddr f = reply.w[1 + i];
          if (f % page_size != 0 || !cell_->machine().mem().ValidRange(f, page_size)) {
            cell_->detector().RaiseHint(ctx, handle.data_home,
                                        HintReason::kCarefulCheckFailed);
            return base::BadRemoteData();
          }
          bulk_frames[page + i] = f;
        }
        it = bulk_frames.find(page);
        if (it == bulk_frames.end()) {
          return base::IoError();
        }
      }
      frame = it->second;
    }

    // The data home's memory may vanish mid-copy: hint and fail the read.
    if (flash::CaptureTrap([&] {
          cell_->machine().mem().Read(ctx.cpu, frame + in_page, out.subspan(done, chunk));
        })) {
      cell_->detector().RaiseHint(ctx, handle.data_home, HintReason::kBusError);
      return base::IoError();
    }
    done += chunk;
  }
  return base::OkStatus();
}

base::Status FileSystem::Write(Ctx& ctx, const FileHandle& handle, uint64_t offset,
                               std::span<const uint8_t> data) {
  base::SimProfileScope profile_scope(base::SimSubsystem::kFilesystem);
  cell_->ChargeSyscallTax(ctx);
  const uint64_t page_size = cell_->machine().mem().page_size();
  const bool remote = handle.data_home != cell_->id();
  const KernelCosts& costs = cell_->costs();

  if (!remote) {
    uint64_t done = 0;
    while (done < data.size()) {
      const uint64_t byte = offset + done;
      const uint64_t page = byte / page_size;
      const uint64_t in_page = byte % page_size;
      const uint64_t chunk = std::min<uint64_t>(page_size - in_page, data.size() - done);
      ctx.Charge(costs.file_write_per_page_ns);

      Vnode* vnode = FindVnode(handle.vnode);
      if (vnode == nullptr) {
        return base::NotFound();
      }
      if (handle.generation != vnode->generation) {
        return base::StaleGeneration();
      }
      auto got = GetPageLocal(ctx, handle.vnode, page, /*want_write=*/true);
      RETURN_IF_ERROR(got.status());
      Pfdat* pfdat = *got;
      cell_->machine().mem().Write(ctx.cpu, pfdat->frame + in_page,
                                   data.subspan(done, chunk));
      vnode->size_bytes = std::max(vnode->size_bytes, byte + chunk);
      RecordSalvageSum(pfdat);
      pfdat->refcount--;
      done += chunk;
    }
    return base::OkStatus();
  }

  // Remote write: stage the data in local kernel frames and pass them by
  // reference; the data home copies into its own page cache (its stores are
  // local, so no firewall grant is needed for write() traffic). Full pages go
  // in batches of kBulkBatchPages per RPC; unaligned edges go one at a time.
  AllocConstraints staging;
  staging.kernel_internal = true;
  std::vector<Pfdat*> stages;
  for (uint64_t i = 0; i < kBulkBatchPages; ++i) {
    auto stage = cell_->allocator().AllocFrame(ctx, staging);
    if (!stage.ok()) {
      for (Pfdat* s : stages) {
        s->refcount = 0;
        cell_->allocator().FreeFrame(ctx, s);
      }
      return stage.status();
    }
    stages.push_back(*stage);
  }
  auto release_stages = [&] {
    for (Pfdat* s : stages) {
      s->refcount = 0;
      cell_->allocator().FreeFrame(ctx, s);
    }
  };

  uint64_t done = 0;
  base::Status status = base::OkStatus();
  while (done < data.size() && status.ok()) {
    const uint64_t byte = offset + done;
    const uint64_t page = byte / page_size;
    const uint64_t in_page = byte % page_size;

    if (in_page == 0 && data.size() - done >= page_size) {
      // Batched full pages.
      const uint64_t batch = std::min<uint64_t>((data.size() - done) / page_size,
                                                kBulkBatchPages);
      RpcArgs args;
      args.w[0] = static_cast<uint64_t>(handle.vnode);
      args.w[1] = page;
      args.w[2] = batch;
      args.w[3] = handle.generation;
      for (uint64_t i = 0; i < batch; ++i) {
        ctx.Charge(costs.file_write_per_page_ns + costs.file_write_remote_extra_ns);
        cell_->machine().mem().Write(ctx.cpu, stages[i]->frame,
                                     data.subspan(done + i * page_size, page_size));
        args.w[4 + i] = stages[i]->frame;
      }
      RpcReply reply;
      status = cell_->rpc().Call(ctx, handle.data_home, MsgType::kWriteBehindBulk, args,
                                 &reply, CallOptions{.fat_stub = true});
      done += batch * page_size;
      continue;
    }

    // Unaligned edge: single partial page.
    const uint64_t chunk = std::min<uint64_t>(page_size - in_page, data.size() - done);
    ctx.Charge(costs.file_write_per_page_ns + costs.file_write_remote_extra_ns);
    cell_->machine().mem().Write(ctx.cpu, stages[0]->frame, data.subspan(done, chunk));
    RpcArgs args;
    args.w[0] = static_cast<uint64_t>(handle.vnode);
    args.w[1] = page;
    args.w[2] = in_page;
    args.w[3] = chunk;
    args.w[4] = stages[0]->frame;
    args.w[5] = handle.generation;
    RpcReply reply;
    status = cell_->rpc().Call(ctx, handle.data_home, MsgType::kWriteBehind, args, &reply,
                               CallOptions{.fat_stub = true, .bulk_bytes = chunk});
    done += chunk;
  }
  release_stages();
  return status;
}

base::Status FileSystem::Sync(VnodeId local_vnode) {
  base::SimProfileScope profile_scope(base::SimSubsystem::kFilesystem);
  Vnode* vnode = FindVnode(local_vnode);
  if (vnode == nullptr || vnode->is_shadow) {
    return base::NotFound();
  }
  const uint64_t page_size = cell_->machine().mem().page_size();
  const uint64_t pages = (vnode->size_bytes + page_size - 1) / page_size;
  if (vnode->disk_image.size() < vnode->size_bytes) {
    vnode->disk_image.resize(vnode->size_bytes, 0);
  }
  for (uint64_t page = 0; page < pages; ++page) {
    LogicalPageId lpid;
    lpid.kind = LogicalPageId::Kind::kFile;
    lpid.data_home = cell_->id();
    lpid.object = static_cast<uint64_t>(local_vnode);
    lpid.page_offset = page;
    Pfdat* pfdat = cell_->pfdats().FindByLpid(lpid);
    if (pfdat == nullptr || !pfdat->dirty) {
      continue;
    }
    const uint64_t byte = page * page_size;
    const uint64_t n = std::min<uint64_t>(page_size, vnode->size_bytes - byte);
    // A borrowed frame may have died with its memory home: lose this page only.
    if (flash::CaptureTrap([&] {
          cell_->machine().mem().DmaRead(cell_->first_node(), pfdat->frame,
                                         std::span<uint8_t>(vnode->disk_image.data() + byte, n));
        })) {
      NoteDirtyPageLost(local_vnode);
      continue;
    }
    // Write-behind is asynchronous; we charge the disk occupancy, not the
    // caller's latency.
    (void)cell_->machine().disk(cell_->first_node()).AccessTime(byte, n);
    // Pages still write-shared with other cells stay conservatively dirty.
    if (pfdat->exported_writable == 0) {
      pfdat->dirty = false;
    }
  }
  return base::OkStatus();
}

bool FileSystem::PageChecksum(PhysAddr frame, uint64_t* sum_out) const {
  const uint64_t page_size = cell_->machine().mem().page_size();
  std::vector<uint8_t> buf(page_size);
  // The frame may live in failed memory: an unreadable page has no checksum.
  if (flash::CaptureTrap([&] {
        cell_->machine().mem().DmaRead(cell_->first_node(), frame, std::span<uint8_t>(buf));
      })) {
    return false;
  }
  // FNV-1a over the page bytes.
  uint64_t h = 0xCBF29CE484222325ull;
  for (uint8_t b : buf) {
    h ^= b;
    h *= 0x100000001B3ull;
  }
  *sum_out = h;
  return true;
}

void FileSystem::RecordSalvageSum(Pfdat* pfdat) {
  if (!cell_->system()->options().salvage_pages) {
    return;
  }
  // Only pages another cell can scribble need a baseline: read-only exports
  // keep their content by construction and are never discard candidates.
  if (pfdat->exported_writable == 0) {
    pfdat->salvage_sum_valid = false;
    return;
  }
  uint64_t sum = 0;
  if (!PageChecksum(pfdat->frame, &sum)) {
    pfdat->salvage_sum_valid = false;
    return;
  }
  pfdat->salvage_sum = sum;
  pfdat->salvage_gen = pfdat->generation;
  pfdat->salvage_sum_valid = true;
}

void FileSystem::NoteDirtyPageLost(VnodeId vnode_id) {
  Vnode* vnode = FindVnode(vnode_id);
  if (vnode != nullptr) {
    ++vnode->generation;
  }
}

int FileSystem::DropAllImports(Ctx& ctx) {
  (void)ctx;
  std::vector<Pfdat*> to_drop;
  cell_->pfdats().ForEach([&](Pfdat* pfdat) {
    if (pfdat->extended && pfdat->imported_from != kInvalidCell &&
        pfdat->borrowed_from == kInvalidCell) {
      to_drop.push_back(pfdat);
    } else if (pfdat->imported_from != kInvalidCell) {
      // A loaned-back import on a borrowed pfdat: just drop the binding.
      cell_->pfdats().RemoveHash(pfdat);
      pfdat->imported_from = kInvalidCell;
      pfdat->import_writable = false;
      pfdat->lpid = LogicalPageId{};
    }
  });
  for (Pfdat* pfdat : to_drop) {
    cell_->pfdats().RemoveExtended(pfdat);
  }
  return static_cast<int>(to_drop.size());
}

void FileSystem::OnReboot() {
  for (auto it = vnodes_.begin(); it != vnodes_.end();) {
    if (it->second.is_shadow) {
      it = vnodes_.erase(it);
    } else {
      it->second.open_count = 0;
      // In-memory size reverts to what reached the disk before the failure.
      it->second.size_bytes = it->second.disk_image.size();
      ++it;
    }
  }
  shadow_index_.clear();
}

void FileSystem::RegisterHandlers() {
  RpcLayer& rpc = cell_->rpc();
  const uint64_t page_size = cell_->machine().mem().page_size();

  // Page fault service: interrupt-level so faults that hit in the file cache
  // avoid the queued path (paper section 4.3 / 5.2).
  rpc.Register(
      MsgType::kPageFault,
      [this, page_size](Ctx& sctx, const RpcArgs& args, RpcReply* reply) -> base::Status {
        const VnodeId vnode_id = static_cast<VnodeId>(args.w[0]);
        const uint64_t page = args.w[1];
        const bool writable = args.w[2] != 0;
        const CellId client = static_cast<CellId>(args.w[3]);
        const Generation client_gen = static_cast<Generation>(args.w[4]);
        if (client < 0 || client >= cell_->system()->num_cells() ||
            client == cell_->id()) {
          return base::InvalidArgument();
        }
        Vnode* vnode = FindVnode(vnode_id);
        if (vnode == nullptr || vnode->is_shadow) {
          return base::NotFound();
        }
        if (client_gen != vnode->generation) {
          return base::StaleGeneration();
        }
        sctx.Charge(cell_->costs().fault_home_vm_misc_ns);
        if (sctx.fault_bd != nullptr) {
          sctx.fault_bd->home_vm_misc += cell_->costs().fault_home_vm_misc_ns;
        }
        // A fault that cannot be serviced at interrupt level (cold page ->
        // disk I/O) falls back to the queued service path (section 6).
        LogicalPageId lpid;
        lpid.kind = LogicalPageId::Kind::kFile;
        lpid.data_home = cell_->id();
        lpid.object = static_cast<uint64_t>(vnode_id);
        lpid.page_offset = page;
        if (cell_->pfdats().FindByLpid(lpid) == nullptr ||
            cell_->costs().force_queued_fault_rpc) {
          sctx.Charge(cell_->costs().rpc_queue_service_ns);
        }
        Generation gen = 0;
        ASSIGN_OR_RETURN(const PhysAddr frame,
                         ExportPage(sctx, vnode_id, page, client, writable, &gen));
        reply->w[0] = frame;
        reply->w[1] = gen;
        reply->w[2] = vnode->size_bytes;
        return base::OkStatus();
      });

  rpc.Register(
      MsgType::kUpgradeWrite,
      [this](Ctx& sctx, const RpcArgs& args, RpcReply* reply) -> base::Status {
        (void)reply;
        const VnodeId vnode_id = static_cast<VnodeId>(args.w[0]);
        const uint64_t page = args.w[1];
        const CellId client = static_cast<CellId>(args.w[2]);
        if (client < 0 || client >= cell_->system()->num_cells()) {
          return base::InvalidArgument();
        }
        Generation gen = 0;
        return ExportPage(sctx, vnode_id, page, client, /*writable=*/true, &gen).status();
      });

  rpc.Register(
      MsgType::kReleasePage,
      [this](Ctx& sctx, const RpcArgs& args, RpcReply* reply) -> base::Status {
        (void)reply;
        const VnodeId vnode_id = static_cast<VnodeId>(args.w[0]);
        const uint64_t page = args.w[1];
        const CellId client = static_cast<CellId>(args.w[2]);
        if (client < 0 || client >= cell_->system()->num_cells()) {
          return base::InvalidArgument();
        }
        LogicalPageId lpid;
        lpid.kind = static_cast<LogicalPageId::Kind>(args.w[3]);
        lpid.data_home = cell_->id();
        lpid.object = static_cast<uint64_t>(vnode_id);
        lpid.page_offset = page;
        Pfdat* pfdat = cell_->pfdats().FindByLpid(lpid);
        if (pfdat == nullptr) {
          return base::NotFound();
        }
        const uint64_t bit = 1ull << client;
        if ((pfdat->exported_writable & bit) != 0) {
          pfdat->exported_writable &= ~bit;
          if (cell_->OwnsAddr(pfdat->frame)) {
            (void)cell_->firewall_manager().RevokeWrite(
                sctx, cell_->machine().mem().PfnOfAddr(pfdat->frame), client);
          }
        }
        pfdat->exported_to &= ~bit;
        return base::OkStatus();
      });

  rpc.Register(
      MsgType::kOpen,
      [this](Ctx& sctx, const RpcArgs& args, RpcReply* reply) -> base::Status {
        (void)sctx;
        const VnodeId vnode_id = static_cast<VnodeId>(args.w[0]);
        Vnode* vnode = FindVnode(vnode_id);
        if (vnode == nullptr || vnode->is_shadow) {
          return base::NotFound();
        }
        ++vnode->open_count;
        reply->w[0] = vnode->generation;
        reply->w[1] = vnode->size_bytes;
        return base::OkStatus();
      });

  rpc.Register(
      MsgType::kReadAhead,
      [this](Ctx& sctx, const RpcArgs& args, RpcReply* reply) -> base::Status {
        const VnodeId vnode_id = static_cast<VnodeId>(args.w[0]);
        const uint64_t first_page = args.w[1];
        const uint64_t count = std::min<uint64_t>(args.w[2], kBulkBatchPages);
        const Generation gen = static_cast<Generation>(args.w[3]);
        Vnode* vnode = FindVnode(vnode_id);
        if (vnode == nullptr || vnode->is_shadow) {
          return base::NotFound();
        }
        if (gen != vnode->generation) {
          return base::StaleGeneration();
        }
        uint64_t filled = 0;
        for (uint64_t i = 0; i < count; ++i) {
          ASSIGN_OR_RETURN(Pfdat * pfdat, GetPageLocal(sctx, vnode_id, first_page + i,
                                                       /*want_write=*/false));
          pfdat->refcount--;
          reply->w[1 + i] = pfdat->frame;
          ++filled;
        }
        reply->w[0] = filled;
        return base::OkStatus();
      });

  // Write-behind launches asynchronously; the copy itself runs at interrupt
  // level (no server process hand-off).
  rpc.Register(
      MsgType::kWriteBehindBulk,
      [this, page_size](Ctx& sctx, const RpcArgs& args, RpcReply* reply) -> base::Status {
        (void)reply;
        const VnodeId vnode_id = static_cast<VnodeId>(args.w[0]);
        const uint64_t first_page = args.w[1];
        const uint64_t count = std::min<uint64_t>(args.w[2], kBulkBatchPages);
        const Generation gen = static_cast<Generation>(args.w[3]);
        Vnode* vnode = FindVnode(vnode_id);
        if (vnode == nullptr || vnode->is_shadow) {
          return base::NotFound();
        }
        if (gen != vnode->generation) {
          return base::StaleGeneration();
        }
        std::vector<uint8_t> buf(page_size);
        for (uint64_t i = 0; i < count; ++i) {
          const PhysAddr src = args.w[4 + i];
          if (src % page_size != 0 || !cell_->machine().mem().ValidRange(src, page_size)) {
            return base::InvalidArgument();
          }
          ASSIGN_OR_RETURN(Pfdat * pfdat, GetPageLocal(sctx, vnode_id, first_page + i,
                                                       /*want_write=*/true));
          // The client's buffer may have failed since it asked: fail the request.
          if (flash::CaptureTrap([&] {
                cell_->machine().mem().Read(sctx.cpu, src, std::span<uint8_t>(buf));
              })) {
            pfdat->refcount--;
            return base::IoError();
          }
          cell_->machine().mem().Write(sctx.cpu, pfdat->frame, std::span<const uint8_t>(buf));
          RecordSalvageSum(pfdat);
          pfdat->refcount--;
        }
        vnode->size_bytes = std::max(vnode->size_bytes, (first_page + count) * page_size);
        return base::OkStatus();
      });

  // Unlink destroys the vnode: a retransmitted request must not observe a
  // spurious kNotFound for a removal that already succeeded, so the replay
  // ring answers it (an at-most-once type in Traits).
  rpc.Register(
      MsgType::kUnlink,
      [this](Ctx& sctx, const RpcArgs& args, RpcReply* reply) -> base::Status {
        (void)reply;
        return RemoveVnode(sctx, static_cast<VnodeId>(args.w[0]));
      });

  rpc.Register(
      MsgType::kSyncFile,
      [this](Ctx&, const RpcArgs& args, RpcReply*) -> base::Status {
        return Sync(static_cast<VnodeId>(args.w[0]));
      });

  rpc.Register(
      MsgType::kWriteBehind,
      [this, page_size](Ctx& sctx, const RpcArgs& args, RpcReply* reply) -> base::Status {
        (void)reply;
        const VnodeId vnode_id = static_cast<VnodeId>(args.w[0]);
        const uint64_t page = args.w[1];
        const uint64_t in_page = args.w[2];
        const uint64_t chunk = args.w[3];
        const PhysAddr src = args.w[4];
        const Generation gen = static_cast<Generation>(args.w[5]);
        if (chunk == 0 || chunk > page_size || in_page >= page_size ||
            in_page + chunk > page_size ||
            !cell_->machine().mem().ValidRange(src, chunk)) {
          return base::InvalidArgument();
        }
        Vnode* vnode = FindVnode(vnode_id);
        if (vnode == nullptr || vnode->is_shadow) {
          return base::NotFound();
        }
        if (gen != vnode->generation) {
          return base::StaleGeneration();
        }
        ASSIGN_OR_RETURN(Pfdat * pfdat,
                         GetPageLocal(sctx, vnode_id, page, /*want_write=*/true));
        std::vector<uint8_t> buf(chunk);
        // The client's buffer may have failed since it asked: fail the request.
        if (flash::CaptureTrap([&] {
              cell_->machine().mem().Read(sctx.cpu, src, std::span<uint8_t>(buf));
            })) {
          pfdat->refcount--;
          return base::IoError();
        }
        cell_->machine().mem().Write(sctx.cpu, pfdat->frame + in_page,
                                     std::span<const uint8_t>(buf));
        vnode->size_bytes = std::max(vnode->size_bytes, page * page_size + in_page + chunk);
        RecordSalvageSum(pfdat);
        pfdat->refcount--;
        return base::OkStatus();
      });
}

}  // namespace hive
