// Per-cell page frame allocation with physical-level sharing (paper
// section 5.4): a cell that has a free page frame can transfer control over
// that frame to another cell (loan_frame / borrow_frame / return_frame).
//
// Frame loaning is demand-driven: when a request cannot or should not be
// satisfied locally, the allocator sends an RPC to a memory home asking for a
// set of pages. Allocation requests carry constraints: a set of cells
// acceptable for the request and one preferred cell. Frames allocated for
// internal kernel use must be local, since the firewall does not defend
// against wild writes by the memory home.
//
// Loaned and borrowed frames are bucketed per peer cell so the hot reuse
// probe in AllocFrame is O(1) and the failure-time sweeps
// (ReclaimLoansTo / DropBorrowsFrom) are proportional to the *failed cell's*
// frames, not to every loan or borrow this cell has outstanding.

#ifndef HIVE_SRC_CORE_PAGE_ALLOCATOR_H_
#define HIVE_SRC_CORE_PAGE_ALLOCATOR_H_

#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/base/status.h"
#include "src/core/context.h"
#include "src/core/pfdat.h"
#include "src/core/types.h"

namespace hive {

class Cell;

struct AllocConstraints {
  uint64_t acceptable_cells = ~0ull;   // Bitmask; default: anywhere.
  CellId preferred_cell = kInvalidCell;  // kInvalidCell: local.
  bool kernel_internal = false;        // Must be local memory.
};

class PageAllocator {
 public:
  // Hands out the cell's paged frames (its pfdat table's regular range,
  // registered at boot) in frame order, then recycled frames FIFO.
  PageAllocator(Cell* cell);

  // Allocates a frame subject to constraints. May borrow remotely. The
  // returned pfdat has no logical binding and refcount 1.
  base::Result<Pfdat*> AllocFrame(Ctx& ctx, const AllocConstraints& constraints = {});

  // Frees a frame previously returned by AllocFrame. Borrowed frames are
  // returned to their memory home with an RPC (current policy: immediately,
  // section 5.4 "we have not yet developed a better policy").
  void FreeFrame(Ctx& ctx, Pfdat* pfdat);

  // --- Memory home side of physical-level sharing. ---
  // Loans up to `count` local free frames to `client`. Returns the frame
  // addresses. Loaned frames move to the reserved list and are ignored until
  // returned or until the borrower fails.
  std::vector<PhysAddr> LoanFrames(Ctx& ctx, CellId client, int count);

  // return_frame service: the borrower freed the frame.
  base::Status AcceptReturnedFrame(Ctx& ctx, PhysAddr frame, CellId client);

  // Recovery: reclaims every frame loaned to a failed cell (contents are
  // untrusted; the frame goes back to the free list). O(frames loaned to the
  // failed cell); reclaimed frames rejoin the free list in frame-address
  // order (deterministic regardless of hash/pointer layout).
  int ReclaimLoansTo(CellId failed_cell);

  // Recovery: drops records of frames borrowed from a failed memory home.
  // O(frames borrowed from that home).
  int DropBorrowsFrom(CellId failed_cell);

  // Recovery/eviction: puts an unbound local frame back on the free list.
  void ReleaseToFreeList(Pfdat* pfdat);

  // Recovery salvage: the data home adopted a bound page instead of
  // discarding it. Audits that the frame is a live local cache page (not
  // free, not loaned) and counts the adoption.
  void NoteSalvagedAdoption(Pfdat* pfdat);
  uint64_t frames_salvaged() const { return frames_salvaged_; }

  // Invariant auditing: whether this local frame is currently loaned out
  // (must agree with the pfdat's loaned_out flag). Scans the per-client
  // buckets rather than trusting the pfdat's own loaned_to field, so corrupt
  // pfdat state cannot hide a disagreement.
  bool IsLoanedFrame(const Pfdat* pfdat) const;

  size_t free_frames() const;
  size_t loaned_frames() const { return loaned_count_; }
  uint64_t borrow_rpcs() const { return borrow_rpcs_; }

  // Low-water mark: below this many local free frames the allocator tries to
  // borrow for non-local-constrained requests (keeps local reserve to avoid
  // deadlock, section 3.2).
  static constexpr size_t kLocalReserveFrames = 32;

 private:
  base::Result<Pfdat*> BorrowFrom(Ctx& ctx, CellId memory_home);
  base::Result<Pfdat*> TakeLocalFree(Ctx& ctx);
  // Pops the next local free frame (nullptr when there is none).
  Pfdat* PopLocalFree();

  Cell* cell_;
  // Local free frames: the regular frames from next_boot_frame_ on have
  // never been handed out, and come first in frame order; freed frames
  // queue behind them FIFO. That is the pop order of one deque seeded with
  // every frame at boot, without building it.
  size_t next_boot_frame_ = 0;
  std::deque<Pfdat*> free_list_;
  // Borrowed frames not yet in use, bucketed by memory home: the AllocFrame
  // reuse probe pops the target home's bucket in O(1).
  std::unordered_map<CellId, std::deque<Pfdat*>> borrowed_free_;
  // Local frames loaned out, bucketed by borrower.
  std::unordered_map<CellId, std::unordered_set<Pfdat*>> loaned_;
  size_t loaned_count_ = 0;
  uint64_t borrow_rpcs_ = 0;
  uint64_t frames_salvaged_ = 0;
};

}  // namespace hive

#endif  // HIVE_SRC_CORE_PAGE_ALLOCATOR_H_
