// Process address spaces: a list of regions mapping virtual ranges to file
// pages or anonymous (COW) pages, plus the set of hardware mappings
// (modelling the TLB + page tables).
//
// Region entries live in kernel-heap simulated memory so fault injection can
// corrupt them like the paper does (table 7.4, "corrupt pointer in process
// address map"). Traversal verifies allocator type tags; a mismatch means the
// kernel's own memory is corrupt and the cell panics.

#ifndef HIVE_SRC_CORE_ADDRESS_SPACE_H_
#define HIVE_SRC_CORE_ADDRESS_SPACE_H_

#include <unordered_map>
#include <vector>

#include "src/base/status.h"
#include "src/core/context.h"
#include "src/core/pfdat.h"
#include "src/core/types.h"
#include "src/core/vnode.h"

namespace hive {

class Cell;

// Layout of a region entry in simulated memory.
struct AddrMapEntryLayout {
  static constexpr uint64_t kVaStart = 0;      // u64
  static constexpr uint64_t kLength = 8;       // u64
  static constexpr uint64_t kKind = 16;        // u32: 1 = file, 2 = anon
  static constexpr uint64_t kWritable = 20;    // u32
  static constexpr uint64_t kObject = 24;      // u64: vnode id (file regions)
  static constexpr uint64_t kDataHome = 32;    // u32
  static constexpr uint64_t kGeneration = 36;  // u32
  static constexpr uint64_t kFileOffset = 40;  // u64: starting page offset
  static constexpr uint64_t kNext = 48;        // u64: next entry (0 = end)
  static constexpr uint64_t kEntryBytes = 56;

  static constexpr uint32_t kKindFile = 1;
  static constexpr uint32_t kKindAnon = 2;
};

// Decoded form of a region entry.
struct Region {
  PhysAddr entry_addr = 0;
  VirtAddr va_start = 0;
  uint64_t length = 0;
  bool is_file = false;
  bool writable = false;
  VnodeId vnode = kInvalidVnode;  // On the data home (file regions).
  CellId data_home = kInvalidCell;
  Generation generation = 0;
  uint64_t file_page_offset = 0;
};

// A hardware mapping currently installed for the process.
struct Mapping {
  Pfdat* pfdat = nullptr;
  bool writable = false;
};

class AddressSpace {
 public:
  explicit AddressSpace(Cell* cell) : cell_(cell) {}

  // Appends a file-backed region. The generation snapshot comes from the
  // handle (stale after preemptive discard => faults observe an error).
  base::Status MapFile(Ctx& ctx, VirtAddr va, uint64_t length, const FileHandle& handle,
                       bool writable, uint64_t file_page_offset = 0);

  // Appends an anonymous region (pages found through the process COW leaf).
  base::Status MapAnon(Ctx& ctx, VirtAddr va, uint64_t length, bool writable);

  // Region lookup by virtual address. Traverses the simulated-memory list
  // verifying type tags; returns kInternal (and panics the cell) on
  // corruption, kNotFound for an unmapped address.
  base::Result<Region> FindRegion(Ctx& ctx, VirtAddr va);

  // Hardware mappings (TLB + ptes).
  Mapping* FindMapping(VirtAddr va_page);
  void InstallMapping(VirtAddr va_page, Pfdat* pfdat, bool writable);
  void RemoveMapping(VirtAddr va_page);

  // Recovery: drop every hardware mapping (TLB flush); optionally only those
  // whose frame is not local to `cell`. Returns mappings removed. Installed
  // pfdat references are released through the file system.
  int FlushMappings(Ctx& ctx, bool remote_only);

  // Fork support: duplicates the region list of `parent` into this (empty)
  // address space. `parent_ctx` runs on the parent's cell.
  base::Status CopyFrom(Ctx& ctx, Ctx& parent_ctx, AddressSpace& parent);

  // Process teardown: frees all entries and mappings, and the mapping
  // table's storage (a finished process is a record only).
  void Teardown(Ctx& ctx);

  // Enumerates decoded regions (trusted local walk for teardown/recovery).
  std::vector<Region> ListRegions(Ctx& ctx);

  size_t mapping_count() const { return mappings_.size(); }

 private:
  base::Status AppendEntry(Ctx& ctx, const Region& region);

  Cell* cell_;
  PhysAddr head_ = 0;  // First entry in simulated memory; 0 = empty.
  PhysAddr tail_ = 0;
  std::unordered_map<VirtAddr, Mapping> mappings_;  // Keyed by page-aligned VA.
};

}  // namespace hive

#endif  // HIVE_SRC_CORE_ADDRESS_SPACE_H_
