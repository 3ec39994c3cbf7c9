// Wax, the user-level resource policy process (paper section 3.2), and the
// allocation paths it steers.

#include "src/core/wax.h"

#include <gtest/gtest.h>

#include "src/core/cell.h"
#include "src/flash/fault_injector.h"
#include "src/workloads/workload.h"
#include "tests/test_util.h"

namespace hive {
namespace {

class WaxTest : public ::testing::Test {
 protected:
  WaxTest() : ts_(hivetest::BootHive(4)) {}
  hivetest::TestSystem ts_;
};

TEST_F(WaxTest, PeriodicScanDeliversHintsToEveryCell) {
  ts_.machine->events().RunUntil(350 * kMillisecond);
  EXPECT_GE(ts_.hive->wax().scans(), 2u);
  for (CellId c = 0; c < 4; ++c) {
    EXPECT_TRUE(ts_.cell(c).wax_hints().valid) << c;
    EXPECT_NE(ts_.cell(c).wax_hints().preferred_borrow_target, kInvalidCell);
  }
}

TEST_F(WaxTest, BorrowTargetIsMemoryRichCell) {
  // Drain most of cell 2's free list so it is NOT the richest.
  Ctx ctx2 = ts_.cell(2).MakeCtx();
  const size_t drain = ts_.cell(2).allocator().free_frames() - 64;
  for (size_t i = 0; i < drain; ++i) {
    AllocConstraints constraints;
    constraints.kernel_internal = true;
    auto pfdat = ts_.cell(2).allocator().AllocFrame(ctx2, constraints);
    ASSERT_TRUE(pfdat.ok());
  }
  ts_.machine->events().RunUntil(ts_.machine->Now() + 250 * kMillisecond);
  for (CellId c = 0; c < 4; ++c) {
    EXPECT_NE(ts_.cell(c).wax_hints().preferred_borrow_target, 2) << c;
  }
}

TEST_F(WaxTest, CellsSanityCheckHints) {
  // A corrupt Wax pushes a bogus hint: the cell must reject it.
  Cell& cell = ts_.cell(1);
  Ctx ctx = ts_.cell(0).MakeCtx();
  RpcArgs args;
  args.w[0] = 999;       // Nonsense borrow target.
  args.w[1] = ~0ull;     // Nonsense fork target.
  RpcReply reply;
  ASSERT_TRUE(ts_.cell(0).rpc().Call(ctx, 1, MsgType::kWaxHint, args, &reply).ok());
  EXPECT_TRUE(cell.wax_hints().valid);
  EXPECT_EQ(cell.wax_hints().preferred_borrow_target, kInvalidCell);
  EXPECT_EQ(cell.wax_hints().preferred_fork_target, kInvalidCell);
}

TEST_F(WaxTest, HintsNeverNameDeadCells) {
  ts_.machine->events().RunUntil(150 * kMillisecond);
  flash::FaultInjector injector(ts_.machine.get(), 1);
  injector.ScheduleNodeFailure(1, ts_.machine->Now() + 10 * kMillisecond);
  ts_.machine->events().RunUntil(ts_.machine->Now() + 800 * kMillisecond);
  ASSERT_TRUE(ts_.hive->wax().running());  // Restarted incarnation.
  for (CellId c : ts_.hive->LiveCells()) {
    const WaxHints& hints = ts_.cell(c).wax_hints();
    EXPECT_NE(hints.preferred_borrow_target, 1) << c;
    EXPECT_NE(hints.preferred_fork_target, 1) << c;
  }
}

TEST_F(WaxTest, AllocatorUsesBorrowHintUnderPressure) {
  ts_.machine->events().RunUntil(150 * kMillisecond);  // Hints delivered.
  Cell& cell = ts_.cell(3);
  Ctx ctx = cell.MakeCtx();
  // Exhaust local memory down to the reserve.
  while (cell.allocator().free_frames() > PageAllocator::kLocalReserveFrames) {
    AllocConstraints constraints;
    constraints.kernel_internal = true;
    ASSERT_TRUE(cell.allocator().AllocFrame(ctx, constraints).ok());
  }
  // The next unconstrained allocation borrows from the hinted cell.
  const CellId hinted = cell.wax_hints().preferred_borrow_target;
  ASSERT_NE(hinted, kInvalidCell);
  auto pfdat = cell.allocator().AllocFrame(ctx, AllocConstraints{});
  ASSERT_TRUE(pfdat.ok());
  EXPECT_TRUE((*pfdat)->extended);
  EXPECT_EQ((*pfdat)->borrowed_from, hinted);
}

TEST_F(WaxTest, NotStartedInSmpMode) {
  auto smp = hivetest::BootSmp();
  smp.machine->events().RunUntil(500 * kMillisecond);
  EXPECT_FALSE(smp.hive->wax().running());
  EXPECT_EQ(smp.hive->wax().scans(), 0u);
}

TEST_F(WaxTest, IncarnationCountsRestarts) {
  ts_.machine->events().RunUntil(150 * kMillisecond);
  EXPECT_EQ(ts_.hive->wax().incarnation(), 1);
  flash::FaultInjector injector(ts_.machine.get(), 2);
  injector.ScheduleNodeFailure(2, ts_.machine->Now() + 5 * kMillisecond);
  ts_.machine->events().RunUntil(ts_.machine->Now() + 800 * kMillisecond);
  EXPECT_EQ(ts_.hive->wax().incarnation(), 2);
}

// Wax exits on any cell failure and recovery starts a fresh incarnation; the
// old one's scan must not keep running beside it. One chain scans 10 times
// per simulated second.
TEST_F(WaxTest, RestartLeavesOneScanChain) {
  ts_.machine->events().RunUntil(150 * kMillisecond);
  flash::FaultInjector injector(ts_.machine.get(), 1);
  injector.ScheduleNodeFailure(1, ts_.machine->Now() + 10 * kMillisecond);
  // Recovery, the restart delay and the new incarnation's first scan.
  ts_.machine->events().RunUntil(ts_.machine->Now() + 800 * kMillisecond);
  ASSERT_EQ(ts_.hive->wax().incarnation(), 2);
  const uint64_t before = ts_.hive->wax().scans();
  ts_.machine->events().RunUntil(ts_.machine->Now() + 2 * kSecond);
  EXPECT_NEAR(static_cast<double>(ts_.hive->wax().scans() - before), 20.0, 1.0);
}

// A hint RPC to a cell whose node died after its last clock tick times out
// and runs failure handling, including Wax's restart, inside Scan. The scan
// that was interrupted belongs to the old incarnation and must not
// reschedule itself.
TEST_F(WaxTest, HintTimeoutInsideScanLeavesOneScanChain) {
  // Scans run at boot + k * kScanPeriod, each ahead of the clock ticks that
  // share its instant. Node 2 dies 1 ns before the third scan and after
  // cell 2's clock last ticked, so the scan finds cell 2 alive but
  // unreachable.
  const Time scan = ts_.machine->Now() + 3 * Wax::kScanPeriod;
  flash::FaultInjector injector(ts_.machine.get(), 1);
  injector.ScheduleNodeFailure(2, scan - 1);
  ts_.machine->events().RunUntil(scan);
  ASSERT_FALSE(ts_.cell(2).alive());
  ASSERT_EQ(ts_.hive->wax().incarnation(), 2);  // Restarted inside that scan.
  ts_.machine->events().RunUntil(scan + 800 * kMillisecond);
  const uint64_t before = ts_.hive->wax().scans();
  ts_.machine->events().RunUntil(ts_.machine->Now() + 2 * kSecond);
  EXPECT_NEAR(static_cast<double>(ts_.hive->wax().scans() - before), 20.0, 1.0);
  EXPECT_EQ(ts_.hive->wax().incarnation(), 2);
}

}  // namespace
}  // namespace hive
