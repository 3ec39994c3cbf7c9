// The swap partition for anonymous pages (paper section 5.3's backing store)
// and its interaction with the pageout clock hand, faults, and remote COW
// binds.

#include "src/core/swap.h"

#include <gtest/gtest.h>

#include "src/core/cell.h"
#include "src/core/cow_tree.h"
#include "src/core/filesystem.h"
#include "src/core/pageout.h"
#include "src/core/vm_fault.h"
#include "src/workloads/workload.h"
#include "tests/test_util.h"

namespace hive {
namespace {

class SwapTest : public ::testing::Test {
 protected:
  SwapTest() : ts_(hivetest::BootHive(4)) {}

  Process* Spawn(CellId cell, Process* parent = nullptr) {
    Ctx ctx = ts_.cell(cell).MakeCtx();
    auto behavior = std::make_unique<workloads::ScriptedBehavior>("idle");
    auto pid = ts_.hive->Fork(ctx, cell, std::move(behavior), -1, parent);
    EXPECT_TRUE(pid.ok());
    return ts_.cell(cell).sched().FindProcess(*pid);
  }

  // Creates `pages` anon pages for proc, stamps each with its index, and
  // unmaps them (so refcounts drop to zero and the clock hand may act).
  void MakeAnonPages(Process* proc, uint64_t pages) {
    Cell& cell = *proc->cell();
    Ctx ctx = cell.MakeCtx();
    ASSERT_TRUE(
        proc->address_space().MapAnon(ctx, 0x1000000, pages * 4096, true).ok());
    for (uint64_t p = 0; p < pages; ++p) {
      ASSERT_TRUE(PageFault(ctx, *proc, 0x1000000 + p * 4096, true).ok());
      Mapping* mapping = proc->address_space().FindMapping(0x1000000 + p * 4096);
      ts_.machine->mem().WriteValue<uint64_t>(cell.FirstCpu(), mapping->pfdat->frame,
                                              1000 + p);
    }
    proc->address_space().FlushMappings(ctx, /*remote_only=*/false);
  }

  void DrainFreeFrames(Cell& cell) {
    Ctx ctx = cell.MakeCtx();
    AllocConstraints constraints;
    constraints.kernel_internal = true;
    while (cell.allocator().free_frames() >= PageoutDaemon::kLowWaterFrames) {
      ASSERT_TRUE(cell.allocator().AllocFrame(ctx, constraints).ok());
    }
  }

  hivetest::TestSystem ts_;
};

TEST_F(SwapTest, ClockHandSwapsOutAnonPagesUnderPressure) {
  Process* proc = Spawn(0);
  MakeAnonPages(proc, 32);
  DrainFreeFrames(ts_.cell(0));
  Ctx ctx = ts_.cell(0).MakeCtx();
  (void)ts_.cell(0).pageout().Scan(ctx, 4096);
  EXPECT_GT(ts_.cell(0).swap().swap_outs(), 0u);
  EXPECT_GT(ts_.cell(0).swap().slots_in_use(), 0u);
}

TEST_F(SwapTest, SwappedPageFaultsBackWithContents) {
  Process* proc = Spawn(0);
  MakeAnonPages(proc, 32);
  DrainFreeFrames(ts_.cell(0));
  Ctx ctx = ts_.cell(0).MakeCtx();
  (void)ts_.cell(0).pageout().Scan(ctx, 4096);
  ASSERT_GT(ts_.cell(0).swap().swap_outs(), 0u);

  // Re-fault every page: swapped ones come back from disk with their data.
  for (uint64_t p = 0; p < 32; ++p) {
    Ctx fctx = ts_.cell(0).MakeCtx();
    ASSERT_TRUE(PageFault(fctx, *proc, 0x1000000 + p * 4096, false).ok()) << p;
    Mapping* mapping = proc->address_space().FindMapping(0x1000000 + p * 4096);
    ASSERT_NE(mapping, nullptr);
    EXPECT_EQ(ts_.machine->mem().ReadValue<uint64_t>(ts_.cell(0).FirstCpu(),
                                                     mapping->pfdat->frame),
              1000 + p)
        << p;
  }
  EXPECT_GT(ts_.cell(0).swap().swap_ins(), 0u);
}

TEST_F(SwapTest, SwapInChargesDiskLatency) {
  Process* proc = Spawn(0);
  MakeAnonPages(proc, 8);
  DrainFreeFrames(ts_.cell(0));
  Ctx ctx = ts_.cell(0).MakeCtx();
  (void)ts_.cell(0).pageout().Scan(ctx, 4096);
  ASSERT_GT(ts_.cell(0).swap().swap_outs(), 0u);

  Ctx fctx = ts_.cell(0).MakeCtx();
  ASSERT_TRUE(PageFault(fctx, *proc, 0x1000000, false).ok());
  // A swap-in is a disk read: orders of magnitude above a cache-hit fault.
  EXPECT_GT(fctx.elapsed, 1 * kMillisecond);
}

TEST_F(SwapTest, RemoteChildBindsToSwappedParentPage) {
  // Parent's page gets swapped out; a child on another cell walks the COW
  // tree, the kCowBind handler swaps the page back in at the owner, and the
  // child imports it.
  Process* parent = Spawn(1);
  MakeAnonPages(parent, 16);
  Process* child = Spawn(2, parent);
  DrainFreeFrames(ts_.cell(1));
  Ctx ctx = ts_.cell(1).MakeCtx();
  (void)ts_.cell(1).pageout().Scan(ctx, 4096);
  ASSERT_GT(ts_.cell(1).swap().swap_outs(), 0u);

  Ctx cctx = ts_.cell(2).MakeCtx();
  ASSERT_TRUE(PageFault(cctx, *child, 0x1000000 + 5 * 4096, false).ok());
  Mapping* mapping = child->address_space().FindMapping(0x1000000 + 5 * 4096);
  ASSERT_NE(mapping, nullptr);
  EXPECT_EQ(ts_.machine->mem().ReadValue<uint64_t>(ts_.cell(2).FirstCpu(),
                                                   mapping->pfdat->frame),
            1005u);
}

TEST_F(SwapTest, TeardownDropsSwapSlots) {
  Process* proc = Spawn(3);
  MakeAnonPages(proc, 16);
  DrainFreeFrames(ts_.cell(3));
  Ctx ctx = ts_.cell(3).MakeCtx();
  (void)ts_.cell(3).pageout().Scan(ctx, 4096);
  ASSERT_GT(ts_.cell(3).swap().slots_in_use(), 0u);
  Ctx kctx = ts_.cell(3).MakeCtx();
  ts_.cell(3).sched().KillProcess(kctx, proc, "test teardown");
  EXPECT_EQ(ts_.cell(3).swap().slots_in_use(), 0u);
}

TEST_F(SwapTest, DropNodeRemovesExactlyThatNodesSlots) {
  Process* a = Spawn(0);
  Process* b = Spawn(0);
  MakeAnonPages(a, 16);
  MakeAnonPages(b, 16);
  SwapArea& swap = ts_.cell(0).swap();
  ASSERT_EQ(swap.slots_in_use(), 0u);
  DrainFreeFrames(ts_.cell(0));
  Ctx ctx = ts_.cell(0).MakeCtx();
  (void)ts_.cell(0).pageout().Scan(ctx, 4096);

  // Neither process forked, so each one's pages live in its own COW leaf.
  KernelHeap& heap = ts_.cell(0).heap();
  const auto page = [&heap](Process* proc, uint64_t p) {
    LogicalPageId lpid;
    lpid.kind = LogicalPageId::Kind::kAnon;
    lpid.data_home = 0;
    lpid.object = heap.Read<uint64_t>(proc->cow_leaf() + CowNodeLayout::kNodeId);
    lpid.page_offset = 0x1000000 / 4096 + p;
    return lpid;
  };
  const auto swapped = [&swap, &page](Process* proc) {
    size_t n = 0;
    for (uint64_t p = 0; p < 16; ++p) {
      n += swap.Contains(page(proc, p)) ? 1 : 0;
    }
    return n;
  };
  const size_t in_a = swapped(a);
  const size_t in_b = swapped(b);
  ASSERT_GT(in_a, 0u);
  ASSERT_GT(in_b, 0u);
  // SwapOut counted exactly the slots it made.
  EXPECT_EQ(swap.slots_in_use(), in_a + in_b);
  EXPECT_EQ(swap.swap_outs(), in_a + in_b);

  swap.DropNode(page(a, 0).object);
  EXPECT_EQ(swapped(a), 0u);
  EXPECT_EQ(swapped(b), in_b);
  EXPECT_EQ(swap.slots_in_use(), in_b);
  swap.DropNode(page(a, 0).object);  // Already empty: a no-op.
  EXPECT_EQ(swap.slots_in_use(), in_b);

  // Node b's pages still swap back in with their contents, one slot each.
  size_t left = in_b;
  for (uint64_t p = 0; p < 16; ++p) {
    const bool was_swapped = swap.Contains(page(b, p));
    Ctx fctx = ts_.cell(0).MakeCtx();
    ASSERT_TRUE(PageFault(fctx, *b, 0x1000000 + p * 4096, false).ok()) << p;
    Mapping* mapping = b->address_space().FindMapping(0x1000000 + p * 4096);
    ASSERT_NE(mapping, nullptr);
    EXPECT_EQ(ts_.machine->mem().ReadValue<uint64_t>(ts_.cell(0).FirstCpu(),
                                                     mapping->pfdat->frame),
              1000 + p)
        << p;
    left -= was_swapped ? 1 : 0;
    EXPECT_EQ(swap.slots_in_use(), left) << p;
  }
  EXPECT_EQ(swap.swap_ins(), in_b);
  EXPECT_EQ(swap.slots_in_use(), 0u);
}

TEST_F(SwapTest, PageoutTrapOnAFailedNodePanicsOnlyThatCell) {
  // Cell 0's node fails between two clock ticks. Its pageout tick at 250 ms
  // runs before the clock tick due then (it was scheduled first) and must
  // copy an anonymous page out of the dead memory. The trap panics cell 0
  // through its kernel boundary instead of escaping the event loop.
  ts_.machine->events().RunUntil(PageoutDaemon::kScanPeriod - 5 * kMillisecond);
  // A busy process keeps its anonymous pages (an idle one would exit and
  // free them).
  auto behavior = std::make_unique<workloads::ScriptedBehavior>("busy");
  behavior->Add(workloads::OpCompute(10 * kSecond));
  Ctx ctx = ts_.cell(0).MakeCtx();
  auto pid = ts_.hive->Fork(ctx, 0, std::move(behavior));
  ASSERT_TRUE(pid.ok());
  MakeAnonPages(ts_.cell(0).sched().FindProcess(*pid), 32);
  DrainFreeFrames(ts_.cell(0));
  ts_.machine->FailNode(0);
  ASSERT_TRUE(ts_.cell(0).alive());
  ASSERT_NO_THROW(ts_.machine->events().RunUntil(PageoutDaemon::kScanPeriod + kMillisecond));

  EXPECT_EQ(ts_.cell(0).panic_reason(), "bus error during pageout: bus error: node failed");
  for (CellId c = 1; c < 4; ++c) {
    EXPECT_TRUE(ts_.cell(c).alive()) << c;
    EXPECT_EQ(ts_.cell(c).panic_reason(), "") << c;
  }
}

TEST_F(SwapTest, ExportedPagesAreNotSwapped) {
  // A page imported by another cell stays in memory (the export pins it).
  Process* parent = Spawn(1);
  MakeAnonPages(parent, 4);
  Process* child = Spawn(0, parent);
  Ctx cctx = ts_.cell(0).MakeCtx();
  ASSERT_TRUE(PageFault(cctx, *child, 0x1000000, false).ok());  // Imports page 0.

  DrainFreeFrames(ts_.cell(1));
  Ctx ctx = ts_.cell(1).MakeCtx();
  (void)ts_.cell(1).pageout().Scan(ctx, 4096);
  // Page 0 is exported: it must still be present in the owner's cache.
  LogicalPageId lpid;
  lpid.kind = LogicalPageId::Kind::kAnon;
  lpid.data_home = 1;
  KernelHeap& heap = ts_.cell(1).heap();
  lpid.object = heap.Read<uint64_t>(parent->cow_leaf() + CowNodeLayout::kNodeId);
  // (The page was recorded in the pre-fork leaf, i.e. the parent of the
  // current leaf.)
  lpid.object = heap.Read<uint64_t>(
      heap.Read<uint64_t>(parent->cow_leaf() + CowNodeLayout::kParentAddr) +
      CowNodeLayout::kNodeId);
  lpid.page_offset = 0x1000000 / 4096;
  EXPECT_NE(ts_.cell(1).pfdats().FindByLpid(lpid), nullptr);
}

}  // namespace
}  // namespace hive
