// Tests for the hot-path data structures behind the simulator overhaul:
// the firewall manager's per-client reverse index and globally-writable
// counter, the page allocator's per-cell loan/borrow buckets, the pfdat slab
// arena, the pfdat logical-page hash, and lazy pfdats (boot cost
// proportional to touched frames).

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "src/core/cell.h"
#include "src/core/filesystem.h"
#include "src/core/pfdat.h"
#include "src/workloads/workload.h"
#include "tests/test_util.h"

namespace hive {
namespace {

// --- FirewallManager reverse index + counters. ---

class FirewallIndexTest : public ::testing::Test {
 protected:
  FirewallIndexTest() : ts_(hivetest::BootHive(4)) {}

  Pfn LocalPfn(CellId cell, uint64_t offset_pages) {
    return ts_.machine->mem().PfnOfAddr(ts_.cell(cell).mem_base()) + offset_pages;
  }

  hivetest::TestSystem ts_;
};

TEST_F(FirewallIndexTest, RevokeAllForSweepsOnlyFailedCellAndSortsByPfn) {
  Cell& home = ts_.cell(0);
  Ctx ctx = home.MakeCtx();
  // Grant a scattered set of pages to cell 2 and a disjoint set to cell 3.
  const std::vector<uint64_t> cell2_pages = {9, 3, 14, 6};
  for (uint64_t page : cell2_pages) {
    ASSERT_TRUE(home.firewall_manager().GrantWrite(ctx, LocalPfn(0, page), 2).ok());
  }
  ASSERT_TRUE(home.firewall_manager().GrantWrite(ctx, LocalPfn(0, 4), 3).ok());
  ASSERT_TRUE(home.firewall_manager().GrantWrite(ctx, LocalPfn(0, 11), 3).ok());

  const std::vector<Pfn> swept = home.firewall_manager().RevokeAllFor(ctx, 2);
  ASSERT_EQ(swept.size(), cell2_pages.size());
  EXPECT_TRUE(std::is_sorted(swept.begin(), swept.end()));
  for (uint64_t page : cell2_pages) {
    EXPECT_TRUE(std::count(swept.begin(), swept.end(), LocalPfn(0, page)) == 1);
    EXPECT_FALSE(home.firewall_manager().HasGrant(LocalPfn(0, page), 2));
  }
  // Cell 3's grants are untouched.
  EXPECT_TRUE(home.firewall_manager().HasGrant(LocalPfn(0, 4), 3));
  EXPECT_TRUE(home.firewall_manager().HasGrant(LocalPfn(0, 11), 3));
  // A second sweep for the same cell finds nothing.
  EXPECT_TRUE(home.firewall_manager().RevokeAllFor(ctx, 2).empty());
}

TEST_F(FirewallIndexTest, NestedGrantsUnindexOnlyAtLastRevoke) {
  Cell& home = ts_.cell(0);
  Ctx ctx = home.MakeCtx();
  const Pfn pfn = LocalPfn(0, 5);
  // Two overlapping grants to the same cell: one revoke must not drop the
  // page from the reverse index.
  ASSERT_TRUE(home.firewall_manager().GrantWrite(ctx, pfn, 2).ok());
  ASSERT_TRUE(home.firewall_manager().GrantWrite(ctx, pfn, 2).ok());
  ASSERT_TRUE(home.firewall_manager().RevokeWrite(ctx, pfn, 2).ok());
  EXPECT_TRUE(home.firewall_manager().HasGrant(pfn, 2));
  EXPECT_EQ(home.firewall_manager().RevokeAllFor(ctx, 2).size(), 1u);
  EXPECT_FALSE(home.firewall_manager().HasGrant(pfn, 2));
}

TEST(FirewallCounterTest, GloballyWritableCounterTracksTransitions) {
  // Under the one-bit-per-page ablation a grant opens the page to everyone;
  // the counter must track kAllowAll transitions without scanning.
  HiveOptions options;
  options.firewall_policy = FirewallPolicy::kGlobalBit;
  auto ts = hivetest::BootHive(4, 4, options);
  Cell& home = ts.cell(0);
  Ctx ctx = home.MakeCtx();
  const Pfn base = ts.machine->mem().PfnOfAddr(home.mem_base());
  EXPECT_EQ(home.firewall_manager().GloballyWritablePages(), 0);

  ASSERT_TRUE(home.firewall_manager().GrantWrite(ctx, base + 1, 2).ok());
  ASSERT_TRUE(home.firewall_manager().GrantWrite(ctx, base + 2, 3).ok());
  EXPECT_EQ(home.firewall_manager().GloballyWritablePages(), 2);
  // Overlapping grant on an already-open page: no double count.
  ASSERT_TRUE(home.firewall_manager().GrantWrite(ctx, base + 1, 3).ok());
  EXPECT_EQ(home.firewall_manager().GloballyWritablePages(), 2);

  ASSERT_TRUE(home.firewall_manager().RevokeWrite(ctx, base + 2, 3).ok());
  EXPECT_EQ(home.firewall_manager().GloballyWritablePages(), 1);
  // Failure sweep closes the remaining open page.
  (void)home.firewall_manager().RevokeAllFor(ctx, 2);
  (void)home.firewall_manager().RevokeAllFor(ctx, 3);
  EXPECT_EQ(home.firewall_manager().GloballyWritablePages(), 0);
}

// --- PageAllocator per-cell buckets. ---

class AllocatorBucketTest : public ::testing::Test {
 protected:
  AllocatorBucketTest() : ts_(hivetest::BootHive(4)) {}

  hivetest::TestSystem ts_;
};

TEST_F(AllocatorBucketTest, BorrowedFreeBucketServesRepeatAllocations) {
  Cell& client = ts_.cell(0);
  Ctx ctx = client.MakeCtx();
  AllocConstraints constraints;
  constraints.preferred_cell = 2;
  auto first = client.allocator().AllocFrame(ctx, constraints);
  ASSERT_TRUE(first.ok());
  const uint64_t rpcs_after_first = client.allocator().borrow_rpcs();
  EXPECT_EQ(rpcs_after_first, 1u);
  // The borrow batch left spare frames in cell 2's bucket: later requests for
  // that home are served locally, with no further RPC.
  auto second = client.allocator().AllocFrame(ctx, constraints);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(client.allocator().borrow_rpcs(), rpcs_after_first);
  EXPECT_EQ((*second)->borrowed_from, 2);

  (*first)->refcount = 0;
  (*second)->refcount = 0;
  client.allocator().FreeFrame(ctx, *first);
  client.allocator().FreeFrame(ctx, *second);
}

TEST_F(AllocatorBucketTest, ReclaimLoansSweepsOnlyFailedBorrower) {
  Cell& home = ts_.cell(1);
  Ctx ctx = home.MakeCtx();
  const size_t free_before = home.allocator().free_frames();
  const std::vector<PhysAddr> to2 = home.allocator().LoanFrames(ctx, 2, 3);
  const std::vector<PhysAddr> to3 = home.allocator().LoanFrames(ctx, 3, 2);
  ASSERT_EQ(to2.size(), 3u);
  ASSERT_EQ(to3.size(), 2u);
  EXPECT_EQ(home.allocator().loaned_frames(), 5u);

  EXPECT_EQ(home.allocator().ReclaimLoansTo(2), 3);
  EXPECT_EQ(home.allocator().loaned_frames(), 2u);
  // Cell 3's loans survive; reclaiming cell 2 again is a no-op.
  EXPECT_EQ(home.allocator().ReclaimLoansTo(2), 0);
  EXPECT_EQ(home.allocator().ReclaimLoansTo(3), 2);
  EXPECT_EQ(home.allocator().loaned_frames(), 0u);
  EXPECT_EQ(home.allocator().free_frames(), free_before);
}

TEST_F(AllocatorBucketTest, DoubleReturnIsRejectedAsCarefulCheckFailure) {
  Cell& home = ts_.cell(1);
  Ctx ctx = home.MakeCtx();
  const std::vector<PhysAddr> frames = home.allocator().LoanFrames(ctx, 2, 1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_TRUE(home.allocator().AcceptReturnedFrame(ctx, frames[0], 2).ok());
  // Returning the same frame twice (a confused or malicious borrower) must
  // fail the careful check, not corrupt the free list.
  EXPECT_FALSE(home.allocator().AcceptReturnedFrame(ctx, frames[0], 2).ok());
  EXPECT_EQ(home.allocator().loaned_frames(), 0u);
}

// --- Pfdat slab arena. ---

TEST(PfdatArenaTest, SlabsGrowByBlockAndRecycleSlots) {
  PfdatTable table;
  std::vector<Pfdat*> extended;
  for (uint64_t i = 0; i < PfdatTable::kSlabPfdats + 10; ++i) {
    extended.push_back(table.AddExtended(0x100000 + i * 4096));
  }
  EXPECT_EQ(table.arena_slabs(), 2u);
  EXPECT_EQ(table.total_pfdats(), PfdatTable::kSlabPfdats + 10);

  // Free half, then re-add as many: recycled slots, no new slab.
  for (uint64_t i = 0; i < PfdatTable::kSlabPfdats / 2; ++i) {
    table.RemoveExtended(extended[i]);
  }
  for (uint64_t i = 0; i < PfdatTable::kSlabPfdats / 2; ++i) {
    table.AddExtended(0x900000 + i * 4096);
  }
  EXPECT_EQ(table.arena_slabs(), 2u);
  EXPECT_EQ(table.total_pfdats(), PfdatTable::kSlabPfdats + 10);
}

TEST(PfdatArenaTest, PointersStayStableAsArenaGrows) {
  PfdatTable table;
  table.SetRegularRange(0x1000, 4096, 1);
  Pfdat* first = table.Regular(0);
  first->refcount = 7;
  for (uint64_t i = 0; i < 4 * PfdatTable::kSlabPfdats; ++i) {
    table.AddExtended(0x200000 + i * 4096);
  }
  // The original pointer still names the same pfdat after the arena added
  // several slabs (slabs never move).
  EXPECT_EQ(table.FindByFrame(0x1000), first);
  EXPECT_EQ(first->refcount, 7);
  EXPECT_EQ(first->frame, 0x1000u);
}

TEST(PfdatArenaTest, ClearRetainsSlabMemoryForReboot) {
  PfdatTable table;
  for (uint64_t i = 0; i < 3 * PfdatTable::kSlabPfdats; ++i) {
    table.AddExtended(0x300000 + i * 4096);
  }
  const size_t slabs_before = table.arena_slabs();
  table.Clear();
  EXPECT_EQ(table.total_pfdats(), 0u);
  // Reboot re-populates out of the retained slabs: no new allocations.
  for (uint64_t i = 0; i < 3 * PfdatTable::kSlabPfdats; ++i) {
    table.AddExtended(0x300000 + i * 4096);
  }
  EXPECT_EQ(table.arena_slabs(), slabs_before);
}

// --- Logical page hash: pfdats chained through Pfdat::hash_next. ---

LogicalPageId FileLpid(uint64_t object, uint64_t page) {
  LogicalPageId lpid;
  lpid.kind = LogicalPageId::Kind::kFile;
  lpid.data_home = 0;
  lpid.object = object;
  lpid.page_offset = page;
  return lpid;
}

// Regular pfdats hashed under distinct lpids, three times as many as the
// initial bucket count, so the bucket array has doubled twice.
class PfdatHashTest : public ::testing::Test {
 protected:
  static constexpr PhysAddr kBase = 0x10000;
  static constexpr size_t kEntries = 3 * PfdatTable::kInitialHashBuckets + 7;

  PfdatHashTest() {
    table_.SetRegularRange(kBase, 4096, kEntries);
    for (size_t i = 0; i < kEntries; ++i) {
      Pfdat* pfdat = table_.Regular(i);
      pfdat->lpid = Lpid(i);
      table_.InsertHash(pfdat);
      pfdats_.push_back(pfdat);
    }
  }

  static LogicalPageId Lpid(size_t i) { return FileLpid(i % 5, i); }

  PfdatTable table_;
  std::vector<Pfdat*> pfdats_;
};

TEST_F(PfdatHashTest, FindsEveryEntryPastTheInitialBuckets) {
  EXPECT_EQ(table_.hash_size(), kEntries);
  for (size_t i = 0; i < kEntries; ++i) {
    EXPECT_EQ(table_.FindByLpid(Lpid(i)), pfdats_[i]) << i;
  }
  EXPECT_EQ(table_.FindByLpid(FileLpid(9, 0)), nullptr);
}

TEST_F(PfdatHashTest, RemovingEveryOtherEntryKeepsTheRest) {
  for (size_t i = 0; i < kEntries; i += 2) {
    table_.RemoveHash(pfdats_[i]);
  }
  EXPECT_EQ(table_.hash_size(), kEntries / 2);
  for (size_t i = 0; i < kEntries; ++i) {
    EXPECT_EQ(table_.FindByLpid(Lpid(i)), i % 2 == 0 ? nullptr : pfdats_[i]) << i;
  }
}

TEST_F(PfdatHashTest, RemoveHashOfANonMemberSharingItsLpidIsANoOp) {
  Pfdat* member = pfdats_[17];
  Pfdat* stranger = table_.AddExtended(0x40000000);
  stranger->lpid = member->lpid;
  table_.RemoveHash(stranger);
  EXPECT_EQ(table_.FindByLpid(member->lpid), member);
  EXPECT_EQ(table_.hash_size(), kEntries);
}

TEST_F(PfdatHashTest, ClearEmptiesTheHashForTheNextBoot) {
  table_.Clear();
  EXPECT_EQ(table_.hash_size(), 0u);
  for (size_t i = 0; i < kEntries; ++i) {
    EXPECT_EQ(table_.FindByLpid(Lpid(i)), nullptr) << i;
  }
  // The next boot hashes into the retained buckets; no stale chain answers.
  table_.SetRegularRange(kBase, 4096, kEntries);
  Pfdat* pfdat = table_.Regular(3);
  pfdat->lpid = Lpid(3);
  table_.InsertHash(pfdat);
  EXPECT_EQ(table_.hash_size(), 1u);
  for (size_t i = 0; i < kEntries; ++i) {
    EXPECT_EQ(table_.FindByLpid(Lpid(i)), i == 3 ? pfdat : nullptr) << i;
  }
}

TEST_F(PfdatHashTest, ExtendedPfdatRecycledByRemoveExtendedLeavesNoChain) {
  // Bound extended pfdats join the chains in front of the regular ones.
  for (uint64_t i = 0; i < 64; ++i) {
    Pfdat* pfdat = table_.AddExtended(0x40000000 + i * 4096);
    pfdat->lpid = FileLpid(7, i);
    table_.InsertHash(pfdat);
  }
  EXPECT_EQ(table_.hash_size(), kEntries + 64);
  for (uint64_t i = 0; i < 64; ++i) {
    table_.RemoveExtended(table_.FindByFrame(0x40000000 + i * 4096));
  }
  EXPECT_EQ(table_.hash_size(), kEntries);
  // Their slots come back for new frames, reset and unchained.
  for (uint64_t i = 0; i < 64; ++i) {
    Pfdat* recycled = table_.AddExtended(0x50000000 + i * 4096);
    EXPECT_EQ(recycled->hash_next, nullptr);
    EXPECT_FALSE(recycled->HasLogicalBinding());
  }
  for (uint64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(table_.FindByLpid(FileLpid(7, i)), nullptr) << i;
  }
  for (size_t i = 0; i < kEntries; ++i) {
    EXPECT_EQ(table_.FindByLpid(Lpid(i)), pfdats_[i]) << i;
  }
}

// --- Lazy pfdats: boot registers the paged range, frames materialize on use. ---

PhysAddr FirstPagedFrame(Cell& cell) {
  const uint64_t page_size = cell.machine().mem().page_size();
  return cell.mem_base() + cell.mem_size() - cell.paged_frames() * page_size;
}

TEST(LazyPfdatTest, BootMaterializesNoFramePfdats) {
  hivetest::TestSystem ts = hivetest::BootHive(4);
  for (CellId c = 0; c < 4; ++c) {
    Cell& cell = ts.cell(c);
    ASSERT_GT(cell.paged_frames(), PfdatTable::kSlabPfdats);
    // Every paged frame counts (recovery charges its scan by this)...
    EXPECT_EQ(cell.pfdats().total_pfdats(), cell.paged_frames()) << "cell " << c;
    // ...but an eager boot would have carved paged_frames / kSlabPfdats slabs.
    EXPECT_LE(cell.pfdats().arena_slabs(), 1u) << "cell " << c;
  }
}

TEST(LazyPfdatTest, AllocatorPopsUntouchedFramesThenRecycledFifo) {
  hivetest::TestSystem ts = hivetest::BootHive(4);
  Cell& cell = ts.cell(1);
  Ctx ctx = cell.MakeCtx();
  const uint64_t page_size = cell.machine().mem().page_size();
  // Model: a FIFO seeded at boot with every paged frame in ascending order.
  std::deque<PhysAddr> model;
  for (uint64_t i = 0; i < cell.paged_frames(); ++i) {
    model.push_back(FirstPagedFrame(cell) + i * page_size);
  }
  std::vector<Pfdat*> held;
  auto alloc_and_match = [&]() {
    auto pfdat = cell.allocator().AllocFrame(ctx, AllocConstraints{.kernel_internal = true});
    ASSERT_TRUE(pfdat.ok());
    ASSERT_FALSE(model.empty());
    EXPECT_EQ((*pfdat)->frame, model.front());
    model.pop_front();
    held.push_back(*pfdat);
    EXPECT_EQ(cell.allocator().free_frames(), model.size());
  };
  auto free_held = [&](size_t i) {
    held[i]->refcount = 0;
    model.push_back(held[i]->frame);
    cell.allocator().FreeFrame(ctx, held[i]);
    EXPECT_EQ(cell.allocator().free_frames(), model.size());
  };

  for (int i = 0; i < 8; ++i) {
    alloc_and_match();
  }
  // Freed frames queue behind every untouched frame, in the order freed.
  free_held(5);
  free_held(2);
  free_held(7);
  while (model.size() > 3) {
    alloc_and_match();
  }
  free_held(0);
  while (!model.empty()) {
    alloc_and_match();
  }
  EXPECT_FALSE(cell.allocator().AllocFrame(ctx, AllocConstraints{.kernel_internal = true}).ok());
}

TEST(LazyPfdatTest, FindByFrameOnUntouchedFrameYieldsUnboundPfdat) {
  hivetest::TestSystem ts = hivetest::BootHive(4);
  Cell& cell = ts.cell(2);
  const uint64_t page_size = cell.machine().mem().page_size();
  const PhysAddr last = cell.mem_base() + cell.mem_size() - page_size;
  Pfdat* pfdat = cell.pfdats().FindByFrame(last);
  ASSERT_NE(pfdat, nullptr);
  EXPECT_EQ(pfdat->frame, last);
  EXPECT_FALSE(pfdat->extended);
  EXPECT_FALSE(pfdat->HasLogicalBinding());
  EXPECT_FALSE(pfdat->loaned_out);
  EXPECT_EQ(pfdat->refcount, 0);
  EXPECT_EQ(pfdat->imported_from, kInvalidCell);
  // The same pfdat on every later lookup; the kernel region has none.
  EXPECT_EQ(cell.pfdats().FindByFrame(last), pfdat);
  EXPECT_EQ(cell.pfdats().FindByFrame(cell.mem_base()), nullptr);
  EXPECT_EQ(cell.pfdats().total_pfdats(), cell.paged_frames());
}

TEST(LazyPfdatTest, ForEachMergesMaterializedRegularsWithExtendedInFrameOrder) {
  PfdatTable table;
  const PhysAddr base = 0x10000;
  table.SetRegularRange(base, 4096, 16);
  table.AddExtended(0x100000);
  Pfdat* r9 = table.Regular(9);
  table.AddExtended(0x1000);
  Pfdat* r3 = table.Regular(3);
  table.AddExtended(base + 16 * 4096);  // First frame past the range.
  table.AddExtended(0x8000);

  std::vector<PhysAddr> visited;
  table.ForEach([&](Pfdat* pfdat) { visited.push_back(pfdat->frame); });
  const std::vector<PhysAddr> expected = {0x1000, 0x8000, r3->frame, r9->frame,
                                          base + 16 * 4096, 0x100000};
  EXPECT_EQ(visited, expected);
  EXPECT_EQ(r3->frame, base + 3 * 4096);
  EXPECT_EQ(table.total_pfdats(), 16u + 4u);
}

}  // namespace
}  // namespace hive
