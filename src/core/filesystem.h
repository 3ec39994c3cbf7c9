// Per-cell file system with a page cache unified with the virtual memory
// system (paper sections 5.1-5.2). The same GetPage path serves page faults,
// read(), and write(); pages cached on other cells are reached through the
// export/import logical-level sharing mechanism.

#ifndef HIVE_SRC_CORE_FILESYSTEM_H_
#define HIVE_SRC_CORE_FILESYSTEM_H_

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/status.h"
#include "src/core/context.h"
#include "src/core/pfdat.h"
#include "src/core/types.h"
#include "src/core/vnode.h"

namespace hive {

class Cell;

class FileSystem {
 public:
  explicit FileSystem(Cell* cell);

  // --- Name space operations. ---

  // Creates a file with this cell as data home and registers it in the global
  // name space. `initial_data` is moved in as the on-disk contents.
  base::Result<FileId> Create(Ctx& ctx, const std::string& path,
                              std::vector<uint8_t> initial_data = {});

  // Opens a file by path; resolves the data home through the global name
  // space, setting up a shadow vnode for remote files.
  base::Result<FileHandle> Open(Ctx& ctx, const std::string& path);

  void Close(Ctx& ctx, FileHandle& handle);

  // Removes a file from the global name space and its data home. Cached
  // pages are dropped; handles opened earlier observe kNotFound afterwards
  // (a simplification of UNIX's unlink-while-open semantics).
  base::Status Unlink(Ctx& ctx, const std::string& path);

  // Renames within the globally coherent name space.
  base::Status Rename(Ctx& ctx, const std::string& from, const std::string& to);

  // --- Data operations (unified page cache). ---

  // Reads [offset, offset+out.size()) into `out`. Checks the handle's
  // generation: a stale handle (the file lost dirty pages in a recovery)
  // fails with kStaleGeneration.
  base::Status Read(Ctx& ctx, const FileHandle& handle, uint64_t offset,
                    std::span<uint8_t> out);

  // Writes bytes, extending the file if needed. The store into the page frame
  // goes through the firewall-checked path as ctx.cpu.
  base::Status Write(Ctx& ctx, const FileHandle& handle, uint64_t offset,
                     std::span<const uint8_t> data);

  // Writes all dirty locally-homed pages of the file back to disk. The
  // write-behind is asynchronous: it occupies the disk but charges the caller
  // nothing, so it takes no context.
  base::Status Sync(VnodeId local_vnode);

  // How a page lookup was reached; determines the cost accounting (a trap
  // through the fault path is dearer than a lookup from read()/write()).
  enum class AccessPath { kFault, kSyscall };

  // The unified page lookup used by faults and I/O. For a remotely-homed file
  // this is the full remote fault path of table 5.2 (export/import).
  // `want_write` requests a writable binding (firewall grant on export).
  base::Result<Pfdat*> GetPage(Ctx& ctx, const FileHandle& handle, uint64_t page_index,
                               bool want_write, AccessPath path = AccessPath::kFault);

  // Data-home-local page lookup/creation for a locally-owned vnode. When
  // `place_near` names a cell and CC-NUMA placement is enabled, a fresh page
  // is cached in a frame borrowed from that cell's memory, so the client's
  // later accesses are node-local (paper section 5.5: the loaned frame is
  // imported back by its memory home through the pre-existing pfdat).
  base::Result<Pfdat*> GetPageLocal(Ctx& ctx, VnodeId vnode_id, uint64_t page_index,
                                    bool want_write, CellId place_near = kInvalidCell);

  // Releases one client reference to a page previously returned by GetPage.
  void ReleasePage(Ctx& ctx, Pfdat* pfdat);

  // release() (paper table 5.1): frees the extended pfdat and tells the data
  // home, which drops its export record and revokes any firewall grant. Used
  // when the last mapping of a writable import goes away (the section 4.2
  // policy: "write permission remains granted as long as any process on that
  // cell has the page mapped").
  void DropImport(Ctx& ctx, Pfdat* pfdat);

  // --- Recovery integration. ---

  // Content checksum of one page frame (FNV-1a over the frame bytes, read by
  // DMA). Returns false if the frame's memory is unreachable. Used by the
  // salvage path to recompute a candidate's checksum during recovery.
  bool PageChecksum(PhysAddr frame, uint64_t* sum_out) const;

  // A dirty page of `vnode_id` was discarded: bump the generation so handles
  // opened before the failure observe an error (paper section 4.2).
  void NoteDirtyPageLost(VnodeId vnode_id);

  // Recovery: drops every import regardless of home. After the first global
  // barrier no remote mapping is valid anywhere, so bindings are rebuilt by
  // fresh faults (paper section 4.3).
  int DropAllImports(Ctx& ctx);

  // --- Accessors. ---
  Vnode* FindVnode(VnodeId id);
  const Vnode* FindVnode(VnodeId id) const;
  Vnode* FindShadowFor(CellId data_home, VnodeId remote_id);

  uint64_t remote_faults() const { return remote_faults_; }
  uint64_t local_fault_hits() const { return local_fault_hits_; }

  // RPC service entry points (registered by Cell at boot).
  void RegisterHandlers();

  // Reboot: page cache state is gone (it lived in failed memory), disk images
  // and generations persist. Shadow bindings are transient and dropped.
  void OnReboot();

 private:
  friend class CowManager;

  base::Result<Pfdat*> ImportRemotePage(Ctx& ctx, const FileHandle& handle,
                                        uint64_t page_index, bool want_write);
  base::Result<VnodeId> EnsureShadow(Ctx& ctx, CellId data_home, VnodeId remote_id,
                                     const std::string& path);
  // Export service (data home side): binds the page for `client` and adjusts
  // the firewall. Returns the frame address.
  base::Result<PhysAddr> ExportPage(Ctx& ctx, VnodeId vnode_id, uint64_t page_index,
                                    CellId client, bool writable, Generation* gen_out);

  // Unlink service: drops the vnode and its cached pages at the data home.
  base::Status RemoveVnode(Ctx& ctx, VnodeId vnode_id);

  // CC-NUMA page migration: rebinds the page onto a frame borrowed from
  // `client`'s memory (sections 5.5/5.6). Returns the new pfdat.
  base::Result<Pfdat*> MigratePageNear(Ctx& ctx, Pfdat* pfdat, CellId client);

  // Salvage support (HiveOptions::salvage_pages): records the page's current
  // content checksum and generation in the pfdat, so recovery can verify the
  // page was not scribbled by the failed cell before adopting it.
  void RecordSalvageSum(Pfdat* pfdat);

  Cell* cell_;
  std::unordered_map<VnodeId, Vnode> vnodes_;
  VnodeId next_vnode_id_ = 1;
  // (data_home, remote_id) -> local shadow vnode id.
  std::unordered_map<uint64_t, VnodeId> shadow_index_;

  uint64_t remote_faults_ = 0;
  uint64_t local_fault_hits_ = 0;
};

}  // namespace hive

#endif  // HIVE_SRC_CORE_FILESYSTEM_H_
