// Page frame data structures (paper section 5.1-5.2).
//
// Each page frame in paged memory is managed by a pfdat recording the logical
// page id of the data stored in the frame. Pfdats are linked into a hash
// table for lookup by logical page id. When a cell needs to access a page of
// another cell it allocates an *extended* pfdat binding the remote physical
// address to a local hash entry, after which most kernel modules operate on
// the page without knowing it is remote.
//
// Logical-level sharing state (export/import) and physical-level sharing
// state (loan/borrow) use separate storage within each pfdat, so a frame can
// be simultaneously loaned out and imported back (paper section 5.5).

#ifndef HIVE_SRC_CORE_PFDAT_H_
#define HIVE_SRC_CORE_PFDAT_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/base/status.h"
#include "src/core/types.h"

namespace hive {

struct Pfdat {
  // Identity: the frame this pfdat manages. For a regular pfdat the frame is
  // in the owning cell's memory; for an extended pfdat it is remote.
  PhysAddr frame = flash::kInvalidPhysAddr;
  bool extended = false;

  // Logical binding: which data page currently lives in the frame.
  LogicalPageId lpid;  // kind == kInvalid when the frame holds no data.
  bool dirty = false;
  Generation generation = 0;  // Snapshot of the file generation at bind time.
  int refcount = 0;           // Local references (mappings, ongoing I/O).

  // --- Logical-level sharing: data home side. ---
  uint64_t exported_to = 0;        // Bitmask of client cells using this page.
  uint64_t exported_writable = 0;  // Clients granted write access.

  // --- Logical-level sharing: client side. ---
  CellId imported_from = kInvalidCell;  // Data home, for imported pages.
  bool import_writable = false;         // Write access was granted to us.

  // --- Physical-level sharing: memory home side. ---
  bool loaned_out = false;
  CellId loaned_to = kInvalidCell;

  // --- Physical-level sharing: borrower side. ---
  CellId borrowed_from = kInvalidCell;  // Memory home, for borrowed frames.

  // --- Salvage bookkeeping (HiveOptions::salvage_pages only). ---
  // Content checksum recorded by the data home when the page was last written
  // through a checked kernel path, plus the file generation at that moment.
  // Recovery may adopt (rather than discard) a page writable by a failed
  // cell only if recomputing the checksum over the frame matches and the
  // generation is unchanged -- any unchecked store (a wild write) breaks the
  // match and forces the discard.
  uint64_t salvage_sum = 0;
  Generation salvage_gen = 0;
  bool salvage_sum_valid = false;

  // Next pfdat in the same logical-page hash bucket (PfdatTable).
  Pfdat* hash_next = nullptr;

  bool HasLogicalBinding() const { return lpid.valid(); }
};

// Per-cell pfdat table + hash (paper figure 5.3). Owns regular pfdats for
// every local paged frame and dynamically allocated extended pfdats.
//
// Regular pfdats are lazy: boot registers the paged range once, and a frame's
// pfdat is carved out of the slab arena the first time the frame is looked up
// or allocated. An untouched frame's pfdat would be default-valued (unbound,
// unexported, not loaned), so no walker has anything to do with it and
// ForEach skips it. Extended pfdats come from the same arena, and their
// borrow/return churn reuses freed slots without touching the host
// allocator. Pfdat pointers are stable for the life of the table (slabs never
// move).
class PfdatTable {
 public:
  PfdatTable() = default;

  // Registers the regular frames [base, base + count * page_size) (called
  // once at cell boot, after Clear()).
  void SetRegularRange(PhysAddr base, uint64_t page_size, size_t count);

  // The regular pfdat of the range's `index`-th frame, materialized on first
  // use. The page allocator hands frames out in index order.
  Pfdat* Regular(size_t index);
  size_t regular_frames() const { return dense_.size(); }

  // Allocates an extended pfdat bound to a remote frame.
  Pfdat* AddExtended(PhysAddr frame);

  // Removes an extended pfdat (release/return_frame).
  void RemoveExtended(Pfdat* pfdat);

  // Frame index: any pfdat (regular or extended) for this frame address. A
  // regular frame that was never touched yields its fresh, unbound pfdat.
  Pfdat* FindByFrame(PhysAddr frame);

  // Logical page hash: pfdats chain through Pfdat::hash_next from a
  // power-of-two bucket array that doubles with the entry count. A pfdat's
  // lpid must not change while it is hashed (RemoveHash first).
  Pfdat* FindByLpid(const LogicalPageId& lpid);
  void InsertHash(Pfdat* pfdat);  // CHECKs that the lpid is not yet hashed.
  // No-op unless `pfdat` itself is the one hashed under its lpid.
  void RemoveHash(Pfdat* pfdat);

  // Enumeration for recovery scans. Visits the materialized pfdats in
  // ascending frame order: several callers bound or order their side effects
  // by visit order (pageout passes stop at max_pages, recovery scans build
  // drop lists), so container iteration order must not leak into simulation
  // outcomes (determinism purity, lint R10). The dense index is frame-sorted
  // and extended pfdats live in an ordered map, so the merged walk needs no
  // per-call sort. Extended entries are snapshotted first because `fn` may
  // call RemoveExtended/AddExtended: one added during the walk is not
  // visited, one removed during it still is.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    // Borrow the scratch buffer's capacity; a reentrant walk just gets a
    // fresh (empty) vector.
    std::vector<Pfdat*> extended;
    extended.swap(foreach_scratch_);
    extended.clear();
    extended.reserve(extended_by_frame_.size());
    for (const auto& [frame, pfdat] : extended_by_frame_) {
      extended.push_back(pfdat);
    }
    size_t ei = 0;
    const size_t en = extended.size();
    // dense_hi_ is re-read each step: a pfdat `fn` materializes further on
    // is still visited.
    for (size_t ri = 0; ri < dense_hi_; ++ri) {
      Pfdat* regular = dense_[ri];
      if (regular == nullptr) {
        continue;
      }
      while (ei < en && extended[ei]->frame < regular->frame) {
        fn(extended[ei++]);
      }
      fn(regular);
    }
    while (ei < en) {
      fn(extended[ei++]);
    }
    foreach_scratch_.swap(extended);
  }

  size_t hash_size() const { return hash_count_; }
  // Every registered regular frame counts, materialized or not.
  size_t total_pfdats() const { return dense_.size() + extended_by_frame_.size(); }

  // Arena introspection (tests): slabs allocated so far.
  size_t arena_slabs() const { return slabs_.size(); }

  // Reboot: drops everything. Slab memory and hash buckets are retained and
  // recycled by the next boot.
  void Clear() {
    std::fill(buckets_.begin(), buckets_.end(), nullptr);
    hash_count_ = 0;
    dense_.clear();
    dense_base_ = 0;
    dense_stride_ = 0;
    dense_hi_ = 0;
    extended_by_frame_.clear();
    free_slots_.clear();
    slab_used_ = slabs_.empty() ? kSlabPfdats : 0;
    slab_cursor_ = 0;
  }

  static constexpr size_t kSlabPfdats = 256;
  static constexpr size_t kInitialHashBuckets = 1024;

 private:
  Pfdat* AllocateSlot();
  void ReleaseSlot(Pfdat* pfdat);

  Pfdat** Bucket(const LogicalPageId& lpid) {
    return &buckets_[LogicalPageIdHash{}(lpid) & (buckets_.size() - 1)];
  }
  // Relinks every hashed pfdat into `count` (a power of two) buckets.
  void Rehash(size_t count);

  // Dense-index slot for a regular frame, or dense_.size() if `frame` is not
  // one of the registered frames.
  size_t DenseIndex(PhysAddr frame) const;

  // Slab arena: blocks never move, so Pfdat* stays valid until Clear().
  std::vector<std::unique_ptr<Pfdat[]>> slabs_;
  size_t slab_cursor_ = 0;             // Slab currently being carved.
  size_t slab_used_ = kSlabPfdats;     // Slots used in that slab (full = new slab).
  std::vector<Pfdat*> free_slots_;     // Recycled slots (RemoveExtended).

  // Regular (local-frame) pfdats: index = (frame - base) / stride, nullptr
  // until the frame is first touched. dense_hi_ is one past the highest
  // materialized index, so ForEach stops where the touched frames end.
  std::vector<Pfdat*> dense_;
  PhysAddr dense_base_ = 0;
  uint64_t dense_stride_ = 0;
  size_t dense_hi_ = 0;

  // Extended (remote-frame) pfdats, ordered by frame so ForEach can merge.
  std::map<PhysAddr, Pfdat*> extended_by_frame_;

  // Chain heads, allocated at the first insert; nothing walks them in order.
  std::vector<Pfdat*> buckets_;
  size_t hash_count_ = 0;
  std::vector<Pfdat*> foreach_scratch_;
};

}  // namespace hive

#endif  // HIVE_SRC_CORE_PFDAT_H_
