#include "src/core/page_allocator.h"

#include <algorithm>

#include "src/base/log.h"
#include "src/core/cell.h"
#include "src/core/hive_system.h"

namespace hive {
namespace {

// Local allocation path cost (free list pop + bookkeeping).
constexpr Time kLocalAllocNs = 800;
// Frames requested per borrow RPC (paper 5.4: "asking for a set of pages").
constexpr int kBorrowBatch = 4;

}  // namespace

PageAllocator::PageAllocator(Cell* cell) : cell_(cell) {}

size_t PageAllocator::free_frames() const {
  return cell_->pfdats().regular_frames() - next_boot_frame_ + free_list_.size();
}

Pfdat* PageAllocator::PopLocalFree() {
  if (next_boot_frame_ < cell_->pfdats().regular_frames()) {
    return cell_->pfdats().Regular(next_boot_frame_++);
  }
  if (free_list_.empty()) {
    return nullptr;
  }
  Pfdat* pfdat = free_list_.front();
  free_list_.pop_front();
  return pfdat;
}

base::Result<Pfdat*> PageAllocator::TakeLocalFree(Ctx& ctx) {
  Pfdat* pfdat = PopLocalFree();
  if (pfdat == nullptr) {
    return base::OutOfMemory();
  }
  ctx.Charge(kLocalAllocNs);
  pfdat->refcount = 1;
  pfdat->dirty = false;
  pfdat->lpid = LogicalPageId{};
  return pfdat;
}

base::Result<Pfdat*> PageAllocator::AllocFrame(Ctx& ctx, const AllocConstraints& constraints) {
  const CellId self = cell_->id();
  const bool local_ok = (constraints.acceptable_cells & (1ull << self)) != 0;

  if (constraints.kernel_internal) {
    // Kernel-internal frames must be local: the firewall does not defend
    // against wild writes by the memory home (paper 5.4).
    CHECK(local_ok);
    return TakeLocalFree(ctx);
  }

  // Decide whether to go remote: an explicit remote preference, or local
  // memory pressure with remote cells acceptable.
  CellId remote_target = kInvalidCell;
  if (constraints.preferred_cell != kInvalidCell && constraints.preferred_cell != self) {
    remote_target = constraints.preferred_cell;
  } else if (free_frames() <= kLocalReserveFrames) {
    // Under pressure: consult the Wax hint, fall back to any acceptable cell.
    const WaxHints& hints = cell_->wax_hints();
    if (hints.valid && hints.preferred_borrow_target != kInvalidCell &&
        hints.preferred_borrow_target != self) {
      remote_target = hints.preferred_borrow_target;
    } else {
      for (CellId c = 0; c < cell_->system()->num_cells(); ++c) {
        if (c != self && (constraints.acceptable_cells & (1ull << c)) != 0 &&
            cell_->system()->cell(c).alive()) {
          remote_target = c;
          break;
        }
      }
    }
  }

  if (remote_target != kInvalidCell &&
      (constraints.acceptable_cells & (1ull << remote_target)) != 0) {
    // Use a previously borrowed free frame from that home if available:
    // an O(1) bucket probe instead of a scan over every borrowed frame.
    auto bucket_it = borrowed_free_.find(remote_target);
    if (bucket_it != borrowed_free_.end() && !bucket_it->second.empty()) {
      Pfdat* pfdat = bucket_it->second.front();
      bucket_it->second.pop_front();
      if (bucket_it->second.empty()) {
        borrowed_free_.erase(bucket_it);
      }
      pfdat->refcount = 1;
      ctx.Charge(kLocalAllocNs);
      return pfdat;
    }
    auto borrowed = BorrowFrom(ctx, remote_target);
    if (borrowed.ok()) {
      return borrowed;
    }
    // Borrowing failed (home dead / out of memory): fall through to local.
  }

  if (!local_ok) {
    return base::ResourceExhausted();
  }
  return TakeLocalFree(ctx);
}

base::Result<Pfdat*> PageAllocator::BorrowFrom(Ctx& ctx, CellId memory_home) {
  ++borrow_rpcs_;
  RpcArgs args;
  args.w[0] = static_cast<uint64_t>(cell_->id());
  args.w[1] = kBorrowBatch;
  RpcReply reply;
  base::Status status = cell_->rpc().Call(ctx, memory_home, MsgType::kBorrowFrames, args,
                                          &reply, CallOptions{.fat_stub = true});
  if (!status.ok()) {
    return status;
  }
  const uint64_t count = reply.w[0];
  if (count == 0) {
    return base::OutOfMemory();
  }
  if (count > kRpcWords - 1) {
    // A frame count that cannot fit in the reply is garbage, not a short
    // loan: never index past the payload. The evidence lets agreement voters
    // corroborate with their own null RPC instead of trusting the accuser.
    HintEvidence evidence;
    evidence.structure = EvidenceStructure::kRpcReply;
    cell_->detector().RaiseHintWithEvidence(ctx, memory_home,
                                            HintReason::kInvariantMismatch, evidence);
    return base::BadRemoteData();
  }
  Pfdat* first = nullptr;
  for (uint64_t i = 0; i < count; ++i) {
    const PhysAddr frame = reply.w[1 + i];
    // Sanity-check the reply: frames must be page-aligned addresses within
    // the memory home's range (inputs from other cells are never trusted).
    if (frame % cell_->machine().mem().page_size() != 0 ||
        !cell_->system()->cell(memory_home).OwnsAddr(frame)) {
      HintEvidence evidence;
      evidence.structure = EvidenceStructure::kRpcReply;
      cell_->detector().RaiseHintWithEvidence(ctx, memory_home,
                                              HintReason::kInvariantMismatch, evidence);
      continue;
    }
    Pfdat* pfdat = cell_->pfdats().AddExtended(frame);
    pfdat->borrowed_from = memory_home;
    if (first == nullptr) {
      pfdat->refcount = 1;
      first = pfdat;
    } else {
      borrowed_free_[memory_home].push_back(pfdat);
    }
  }
  if (first == nullptr) {
    return base::OutOfMemory();
  }
  return first;
}

void PageAllocator::FreeFrame(Ctx& ctx, Pfdat* pfdat) {
  CHECK_EQ(pfdat->refcount, 0);
  pfdat->dirty = false;
  pfdat->lpid = LogicalPageId{};
  if (pfdat->borrowed_from != kInvalidCell) {
    // Current policy (paper 5.4): return the frame to the memory home as soon
    // as the data cached in it is no longer in use.
    RpcArgs args;
    args.w[0] = static_cast<uint64_t>(cell_->id());
    args.w[1] = pfdat->frame;
    RpcReply reply;
    (void)cell_->rpc().Call(ctx, pfdat->borrowed_from, MsgType::kReturnFrame, args, &reply);
    cell_->pfdats().RemoveExtended(pfdat);
    return;
  }
  free_list_.push_back(pfdat);
}

std::vector<PhysAddr> PageAllocator::LoanFrames(Ctx& ctx, CellId client, int count) {
  std::vector<PhysAddr> frames;
  // Keep a local reserve so loaning cannot deadlock this cell (section 3.2:
  // each cell preserves enough local free memory to avoid deadlock).
  while (static_cast<int>(frames.size()) < count && free_frames() > kLocalReserveFrames) {
    Pfdat* pfdat = PopLocalFree();
    pfdat->loaned_out = true;
    pfdat->loaned_to = client;
    loaned_[client].insert(pfdat);
    ++loaned_count_;
    // The loan hands write control to the borrower: the frame's firewall
    // vector becomes the borrowing cell's processors.
    const Pfn loan_pfn = cell_->machine().mem().PfnOfAddr(pfdat->frame);
    cell_->machine().firewall().SetVector(
        loan_pfn, cell_->system()->cell(client).CpuMask(),
        cell_->machine().firewall().NodeOfPfn(loan_pfn) *
            cell_->machine().config().cpus_per_node);
    ctx.Charge(cell_->machine().config().latency.firewall_grant_ns);
    frames.push_back(pfdat->frame);
  }
  return frames;
}

base::Status PageAllocator::AcceptReturnedFrame(Ctx& ctx, PhysAddr frame, CellId client) {
  Pfdat* pfdat = cell_->pfdats().FindByFrame(frame);
  if (pfdat == nullptr || !pfdat->loaned_out || pfdat->loaned_to != client) {
    // Bogus return: never trust remote input.
    cell_->detector().RaiseHint(ctx, client, HintReason::kCarefulCheckFailed);
    return base::InvalidArgument();
  }
  auto bucket_it = loaned_.find(client);
  if (bucket_it == loaned_.end() || bucket_it->second.erase(pfdat) == 0) {
    // The allocator has no record of this loan: treat like a bogus return.
    cell_->detector().RaiseHint(ctx, client, HintReason::kCarefulCheckFailed);
    return base::InvalidArgument();
  }
  if (bucket_it->second.empty()) {
    loaned_.erase(bucket_it);
  }
  --loaned_count_;
  pfdat->loaned_out = false;
  pfdat->loaned_to = kInvalidCell;
  cell_->firewall_manager().ProtectLocal(cell_->machine().mem().PfnOfAddr(frame));
  ctx.Charge(cell_->machine().config().latency.firewall_revoke_ns);
  free_list_.push_back(pfdat);
  return base::OkStatus();
}

int PageAllocator::ReclaimLoansTo(CellId failed_cell) {
  auto bucket_it = loaned_.find(failed_cell);
  if (bucket_it == loaned_.end()) {
    return 0;
  }
  // Sweep only the failed borrower's bucket. Frames rejoin the free list in
  // frame-address order so recovery is deterministic regardless of where the
  // pfdats happen to live in host memory.
  std::vector<Pfdat*> reclaimed(bucket_it->second.begin(), bucket_it->second.end());
  loaned_.erase(bucket_it);
  std::sort(reclaimed.begin(), reclaimed.end(),
            [](const Pfdat* a, const Pfdat* b) { return a->frame < b->frame; });
  for (Pfdat* pfdat : reclaimed) {
    pfdat->loaned_out = false;
    pfdat->loaned_to = kInvalidCell;
    cell_->firewall_manager().ProtectLocal(cell_->machine().mem().PfnOfAddr(pfdat->frame));
    free_list_.push_back(pfdat);
  }
  loaned_count_ -= reclaimed.size();
  return static_cast<int>(reclaimed.size());
}

void PageAllocator::ReleaseToFreeList(Pfdat* pfdat) {
  CHECK(!pfdat->extended);
  pfdat->refcount = 0;
  pfdat->dirty = false;
  pfdat->lpid = LogicalPageId{};
  pfdat->salvage_sum_valid = false;
  pfdat->exported_to = 0;
  pfdat->exported_writable = 0;
  free_list_.push_back(pfdat);
}

void PageAllocator::NoteSalvagedAdoption(Pfdat* pfdat) {
  // Recovery adopted a bound page the discard walk would have freed. The
  // frame must still be a live local cache page: not on the free list (it
  // keeps its binding) and not loaned out (loaned frames are unbound).
  CHECK(!pfdat->extended);
  CHECK(pfdat->HasLogicalBinding());
  CHECK(!pfdat->loaned_out);
  ++frames_salvaged_;
}

int PageAllocator::DropBorrowsFrom(CellId failed_cell) {
  auto bucket_it = borrowed_free_.find(failed_cell);
  if (bucket_it == borrowed_free_.end()) {
    return 0;
  }
  // Only this home's bucket is touched: O(frames borrowed from it).
  const int dropped = static_cast<int>(bucket_it->second.size());
  for (Pfdat* pfdat : bucket_it->second) {
    cell_->pfdats().RemoveExtended(pfdat);
  }
  borrowed_free_.erase(bucket_it);
  return dropped;
}

bool PageAllocator::IsLoanedFrame(const Pfdat* pfdat) const {
  Pfdat* key = const_cast<Pfdat*>(pfdat);
  // hive-lint: allow(R10): pure membership predicate; the same bool falls out in any iteration order and nothing is mutated.
  for (const auto& [client, bucket] : loaned_) {
    if (bucket.count(key) > 0) {
      return true;
    }
  }
  return false;
}

}  // namespace hive
