// Tests for the paper's stated future-work features that this repo
// implements: spanning tasks (section 3.2), process migration (section 3.2),
// the Wax-directed clock hand / pageout daemon (sections 3.2, 5.7), and
// multi-failure recovery.

#include <gtest/gtest.h>

#include "src/core/cell.h"
#include "src/core/filesystem.h"
#include "src/core/pageout.h"
#include "src/core/spanning_task.h"
#include "src/flash/fault_injector.h"
#include "src/workloads/workload.h"
#include "tests/test_util.h"

namespace hive {
namespace {

using workloads::OpBarrier;
using workloads::OpCompute;
using workloads::OpFaultRange;
using workloads::OpTouchMapped;
using workloads::ScriptedBehavior;

class SpanningTaskTest : public ::testing::Test {
 protected:
  SpanningTaskTest() : ts_(hivetest::BootHive(4)) {}
  hivetest::TestSystem ts_;
};

TEST_F(SpanningTaskTest, CreatesOneComponentPerCell) {
  Ctx ctx = ts_.cell(0).MakeCtx();
  auto task = SpanningTask::Create(ctx, ts_.hive.get(), {0, 1, 2, 3}, [](int thread) {
    auto behavior = std::make_unique<ScriptedBehavior>("t" + std::to_string(thread));
    behavior->Add(OpCompute(20 * kMillisecond));
    return behavior;
  });
  ASSERT_TRUE(task.ok());
  EXPECT_EQ((*task)->pids().size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ts_.hive->FindProcessCell((*task)->pids()[i]), static_cast<CellId>(i));
  }
  ASSERT_TRUE(ts_.hive->RunUntilDone((*task)->pids(), 60 * kSecond));
  EXPECT_TRUE((*task)->Finished());
}

TEST_F(SpanningTaskTest, MapFileAllKeepsAddressMapsConsistent) {
  Ctx sctx = ts_.cell(1).MakeCtx();
  ASSERT_TRUE(ts_.cell(1).fs()
                  .Create(sctx, "/span", workloads::PatternData(5, 16 * 4096))
                  .ok());

  auto barrier = std::make_shared<UserBarrier>(4);
  Ctx ctx = ts_.cell(0).MakeCtx();
  auto task = SpanningTask::Create(ctx, ts_.hive.get(), {0, 1, 2, 3}, [&](int) {
    auto behavior = std::make_unique<ScriptedBehavior>("mapper");
    behavior->Add(OpBarrier(barrier));  // Wait until the region exists.
    behavior->Add(OpFaultRange(0x7000000, 16, /*write=*/true));
    return behavior;
  });
  ASSERT_TRUE(task.ok());

  // The shared map update is applied to EVERY component.
  ASSERT_TRUE((*task)->MapFileAll(ctx, "/span", 0x7000000, 16 * 4096, true).ok());
  for (size_t i = 0; i < 4; ++i) {
    Cell& cell = ts_.hive->cell(static_cast<CellId>(i));
    Process* proc = cell.sched().FindProcess((*task)->pids()[i]);
    Ctx pctx = cell.MakeCtx();
    auto regions = proc->address_space().ListRegions(pctx);
    ASSERT_EQ(regions.size(), 1u) << i;
    EXPECT_EQ(regions[0].va_start, 0x7000000u);
    EXPECT_EQ(regions[0].data_home, 1);
  }
  // Release the components; all four write-fault the shared region.
  ASSERT_TRUE(ts_.hive->RunUntilDone((*task)->pids(), 60 * kSecond));
  for (ProcId pid : (*task)->pids()) {
    const CellId c = ts_.hive->FindProcessCell(pid);
    EXPECT_EQ(ts_.hive->cell(c).sched().FindProcess(pid)->state(), ProcState::kExited);
  }
}

TEST_F(SpanningTaskTest, KillAllTerminatesEveryComponent) {
  Ctx ctx = ts_.cell(0).MakeCtx();
  auto task = SpanningTask::Create(ctx, ts_.hive.get(), {0, 1, 2, 3}, [](int) {
    auto behavior = std::make_unique<ScriptedBehavior>("long");
    behavior->Add(OpCompute(10 * kSecond));
    return behavior;
  });
  ASSERT_TRUE(task.ok());
  (*task)->KillAll(ctx);
  for (size_t i = 0; i < 4; ++i) {
    Process* proc =
        ts_.hive->cell(static_cast<CellId>(i)).sched().FindProcess((*task)->pids()[i]);
    EXPECT_EQ(proc->state(), ProcState::kKilled) << i;
  }
}

TEST_F(SpanningTaskTest, DiesAsGroupWhenMemberCellFails) {
  Ctx ctx = ts_.cell(0).MakeCtx();
  auto task = SpanningTask::Create(ctx, ts_.hive.get(), {0, 1, 2, 3}, [](int) {
    auto behavior = std::make_unique<ScriptedBehavior>("long");
    behavior->Add(OpCompute(10 * kSecond));
    return behavior;
  });
  ASSERT_TRUE(task.ok());
  flash::FaultInjector injector(ts_.machine.get(), 1);
  injector.ScheduleNodeFailure(2, 50 * kMillisecond);
  ts_.machine->events().RunUntil(400 * kMillisecond);
  for (size_t i = 0; i < 4; ++i) {
    if (i == 2) {
      continue;  // Died with its cell.
    }
    Process* proc =
        ts_.hive->cell(static_cast<CellId>(i)).sched().FindProcess((*task)->pids()[i]);
    EXPECT_EQ(proc->state(), ProcState::kKilled) << i;
  }
}

class MigrationTest : public ::testing::Test {
 protected:
  MigrationTest() : ts_(hivetest::BootHive(4)) {}
  hivetest::TestSystem ts_;
};

TEST_F(MigrationTest, BehaviorResumesOnTargetCell) {
  // A process that computes in two halves; migrate it between them.
  auto behavior = std::make_unique<ScriptedBehavior>("mover");
  behavior->Add(OpCompute(50 * kMillisecond));
  behavior->Add(OpCompute(50 * kMillisecond));
  Ctx ctx = ts_.cell(0).MakeCtx();
  auto pid = ts_.hive->Fork(ctx, 0, std::move(behavior));
  ASSERT_TRUE(pid.ok());

  // Let it run half way, then migrate while it is queued (not mid-slice).
  auto new_pid = std::make_shared<ProcId>(kInvalidProc);
  auto try_migrate = std::make_shared<std::function<void()>>();
  std::function<void()>* retry = try_migrate.get();
  *try_migrate = [this, pid, new_pid, retry] {
    Ctx mctx = ts_.cell(0).MakeCtx();
    auto migrated = ts_.hive->Migrate(mctx, *pid, 3);
    if (migrated.ok()) {
      *new_pid = *migrated;
      return;
    }
    ts_.machine->events().ScheduleAfter(2 * kMillisecond, *retry);
  };
  ts_.machine->events().ScheduleAt(55 * kMillisecond, [try_migrate] { (*try_migrate)(); });

  ts_.machine->events().RunUntil(2 * kSecond);
  ASSERT_NE(*new_pid, kInvalidProc);
  EXPECT_EQ(ts_.hive->FindProcessCell(*new_pid), 3);
  Process* moved = ts_.cell(3).sched().FindProcess(*new_pid);
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved->state(), ProcState::kExited);  // Finished the second half.
  // The origin component was torn down as "migrated".
  Process* old_proc = ts_.cell(0).sched().FindProcess(*pid);
  EXPECT_EQ(old_proc->state(), ProcState::kKilled);
  EXPECT_NE(old_proc->exit_reason.find("migrated"), std::string::npos);
}

TEST_F(MigrationTest, MigratedProcessKeepsAnonPagesViaCowTree) {
  // The process creates anon data on cell 0, migrates to cell 2, and must
  // still read that data (through the cross-cell COW tree walk).
  auto behavior = std::make_unique<ScriptedBehavior>("anon-mover");
  behavior->Add(workloads::OpMapAnon(0x3000000, 8 * 4096, true));
  behavior->Add(OpFaultRange(0x3000000, 8, /*write=*/true));
  behavior->Add(OpCompute(40 * kMillisecond));
  // After migration: re-fault the same pages read-only (walks to cell 0).
  behavior->Add(OpFaultRange(0x3000000, 8, /*write=*/false));
  Ctx ctx = ts_.cell(0).MakeCtx();
  auto pid = ts_.hive->Fork(ctx, 0, std::move(behavior));
  ASSERT_TRUE(pid.ok());

  auto new_pid = std::make_shared<ProcId>(kInvalidProc);
  auto try_migrate = std::make_shared<std::function<void()>>();
  std::function<void()>* retry = try_migrate.get();
  *try_migrate = [this, pid, new_pid, retry] {
    Ctx mctx = ts_.cell(0).MakeCtx();
    auto migrated = ts_.hive->Migrate(mctx, *pid, 2);
    if (migrated.ok()) {
      *new_pid = *migrated;
      return;
    }
    ts_.machine->events().ScheduleAfter(2 * kMillisecond, *retry);
  };
  ts_.machine->events().ScheduleAt(25 * kMillisecond, [try_migrate] { (*try_migrate)(); });

  ts_.machine->events().RunUntil(2 * kSecond);
  ASSERT_NE(*new_pid, kInvalidProc);
  Process* moved = ts_.cell(2).sched().FindProcess(*new_pid);
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved->state(), ProcState::kExited);
  // Residual dependency on the origin cell (its anon pages live there).
  EXPECT_NE(moved->dependency_mask() & 1ull, 0u);
}

TEST_F(MigrationTest, MigrateToDeadCellFails) {
  auto behavior = std::make_unique<ScriptedBehavior>("stay");
  behavior->Add(OpCompute(1 * kSecond));
  Ctx ctx = ts_.cell(0).MakeCtx();
  auto pid = ts_.hive->Fork(ctx, 0, std::move(behavior));
  ts_.machine->FailNode(3);
  Ctx mctx = ts_.cell(0).MakeCtx();
  EXPECT_EQ(ts_.hive->Migrate(mctx, *pid, 3).status().code(),
            base::StatusCode::kCellFailed);
}

class PageoutTest : public ::testing::Test {
 protected:
  PageoutTest() : ts_(hivetest::BootHive(4)) {}
  hivetest::TestSystem ts_;
};

TEST_F(PageoutTest, NoReclaimAboveLowWater) {
  Cell& cell = ts_.cell(0);
  Ctx ctx = cell.MakeCtx();
  EXPECT_EQ(cell.pageout().Scan(ctx), 0);
}

TEST_F(PageoutTest, ReclaimsCleanFilePagesUnderPressure) {
  Cell& cell = ts_.cell(0);
  Ctx ctx = cell.MakeCtx();
  // Fill the page cache with a big clean file.
  auto id = cell.fs().Create(ctx, "/bigfile", workloads::PatternData(2, 512 * 4096));
  ASSERT_TRUE(id.ok());
  for (uint64_t p = 0; p < 512; ++p) {
    auto got = cell.fs().GetPageLocal(ctx, id->vnode, p, false);
    ASSERT_TRUE(got.ok());
    (*got)->refcount--;
  }
  // Drain free frames below the low-water mark.
  AllocConstraints constraints;
  constraints.kernel_internal = true;
  while (cell.allocator().free_frames() >= PageoutDaemon::kLowWaterFrames) {
    ASSERT_TRUE(cell.allocator().AllocFrame(ctx, constraints).ok());
  }
  const size_t before = cell.allocator().free_frames();
  const int freed = cell.pageout().Scan(ctx);
  EXPECT_GT(freed, 0);
  EXPECT_GT(cell.allocator().free_frames(), before);
}

TEST_F(PageoutTest, DirtyPagesWrittenBackBeforeReclaim) {
  Cell& cell = ts_.cell(0);
  Ctx ctx = cell.MakeCtx();
  auto id = cell.fs().Create(ctx, "/dirtyfile", {});
  ASSERT_TRUE(id.ok());
  auto handle = cell.fs().Open(ctx, "/dirtyfile");
  const auto data = workloads::PatternData(3, 64 * 4096);
  ASSERT_TRUE(cell.fs().Write(ctx, *handle, 0, std::span<const uint8_t>(data)).ok());

  AllocConstraints constraints;
  constraints.kernel_internal = true;
  while (cell.allocator().free_frames() >= PageoutDaemon::kLowWaterFrames) {
    ASSERT_TRUE(cell.allocator().AllocFrame(ctx, constraints).ok());
  }
  (void)cell.pageout().Scan(ctx, 1024);
  EXPECT_GT(cell.pageout().dirty_writebacks(), 0u);
  // The data survived on disk.
  const Vnode* vnode = cell.fs().FindVnode(id->vnode);
  ASSERT_GE(vnode->disk_image.size(), data.size());
  std::vector<uint8_t> disk(vnode->disk_image.begin(),
                            vnode->disk_image.begin() + static_cast<int64_t>(data.size()));
  EXPECT_EQ(disk, data);
}

TEST_F(PageoutTest, ReclaimedPageRefetchesCorrectly) {
  Cell& cell = ts_.cell(0);
  Ctx ctx = cell.MakeCtx();
  auto id = cell.fs().Create(ctx, "/refetch", workloads::PatternData(4, 16 * 4096));
  ASSERT_TRUE(id.ok());
  auto handle = cell.fs().Open(ctx, "/refetch");
  std::vector<uint8_t> buf(16 * 4096);
  ASSERT_TRUE(cell.fs().Read(ctx, *handle, 0, std::span<uint8_t>(buf)).ok());

  AllocConstraints constraints;
  constraints.kernel_internal = true;
  while (cell.allocator().free_frames() >= PageoutDaemon::kLowWaterFrames) {
    ASSERT_TRUE(cell.allocator().AllocFrame(ctx, constraints).ok());
  }
  (void)cell.pageout().Scan(ctx, 4096);
  // Read again: pages refetch from disk with identical contents.
  ASSERT_TRUE(cell.fs().Read(ctx, *handle, 0, std::span<uint8_t>(buf)).ok());
  EXPECT_EQ(buf, workloads::PatternData(4, 16 * 4096));
}

class MultiFailureTest : public ::testing::Test {
 protected:
  MultiFailureTest() : ts_(hivetest::BootHive(4)) {}
  hivetest::TestSystem ts_;
};

TEST_F(MultiFailureTest, TwoSequentialFailuresBothRecovered) {
  flash::FaultInjector injector(ts_.machine.get(), 1);
  injector.ScheduleNodeFailure(1, 30 * kMillisecond);
  injector.ScheduleNodeFailure(3, 400 * kMillisecond);
  ts_.machine->events().RunUntil(1 * kSecond);
  EXPECT_EQ(ts_.hive->recovery().recoveries_run(), 2);
  EXPECT_TRUE(ts_.cell(0).alive());
  EXPECT_FALSE(ts_.cell(1).alive());
  EXPECT_TRUE(ts_.cell(2).alive());
  EXPECT_FALSE(ts_.cell(3).alive());
}

TEST_F(MultiFailureTest, SimultaneousFailuresEventuallyBothConfirmed) {
  flash::FaultInjector injector(ts_.machine.get(), 2);
  injector.ScheduleNodeFailure(1, 30 * kMillisecond);
  injector.ScheduleNodeFailure(2, 30 * kMillisecond + 100);  // Same tick window.
  ts_.machine->events().RunUntil(1 * kSecond);
  EXPECT_FALSE(ts_.cell(1).alive());
  EXPECT_FALSE(ts_.cell(2).alive());
  EXPECT_TRUE(ts_.cell(0).alive());
  EXPECT_TRUE(ts_.cell(3).alive());
  EXPECT_GE(ts_.hive->recovery().recoveries_run(), 2);
  // Survivors keep functioning.
  Ctx ctx = ts_.cell(0).MakeCtx();
  EXPECT_TRUE(ts_.cell(0).fs().Create(ctx, "/after2", workloads::PatternData(1, 4096)).ok());
}

TEST_F(MultiFailureTest, OnlyOneLiveCellLeftStillStable) {
  flash::FaultInjector injector(ts_.machine.get(), 3);
  injector.ScheduleNodeFailure(0, 30 * kMillisecond);
  injector.ScheduleNodeFailure(1, 300 * kMillisecond);
  injector.ScheduleNodeFailure(2, 600 * kMillisecond);
  ts_.machine->events().RunUntil(2 * kSecond);
  EXPECT_TRUE(ts_.cell(3).alive());
  EXPECT_EQ(ts_.hive->LiveCells().size(), 1u);
  Ctx ctx = ts_.cell(3).MakeCtx();
  EXPECT_TRUE(ts_.cell(3).fs().Create(ctx, "/last", workloads::PatternData(9, 4096)).ok());
}

}  // namespace
}  // namespace hive

namespace hive {
namespace {

TEST(NumaPlacementTest, WritableExportMigratesPageNearClient) {
  auto machine = std::make_unique<flash::Machine>(hivetest::SmallConfig(), 55);
  HiveOptions options;
  options.num_cells = 4;
  options.numa_placement = true;
  HiveSystem hive(machine.get(), options);
  hive.Boot();

  Cell& home = hive.cell(1);
  Ctx hctx = home.MakeCtx();
  auto id = home.fs().Create(hctx, "/numa", workloads::PatternData(6, 4 * 4096));
  ASSERT_TRUE(id.ok());
  // Warm the home cache (pages in home frames initially).
  for (uint64_t p = 0; p < 4; ++p) {
    auto got = home.fs().GetPageLocal(hctx, id->vnode, p, false);
    ASSERT_TRUE(got.ok());
    (*got)->refcount--;
  }

  Cell& client = hive.cell(3);
  Ctx cctx = client.MakeCtx();
  auto handle = client.fs().Open(cctx, "/numa");
  ASSERT_TRUE(handle.ok());
  auto pfdat = client.fs().GetPage(cctx, *handle, 0, /*want_write=*/true);
  ASSERT_TRUE(pfdat.ok());
  // The page was migrated into the client's own memory (section 5.5: loaned
  // out and imported back through the pre-existing pfdat).
  EXPECT_EQ(hive.CellOfAddr((*pfdat)->frame), 3);
  EXPECT_FALSE((*pfdat)->extended);  // Reused regular pfdat of the loaned frame.
  // The client's store is local and permitted.
  machine->mem().WriteValue<uint64_t>(client.FirstCpu(), (*pfdat)->frame, 42);
  // The data home still serves the page (its hash points at the new frame),
  // and the contents survived the migration.
  std::vector<uint8_t> buf(4096);
  Ctx rctx = home.MakeCtx();
  auto hh = home.fs().Open(rctx, "/numa");
  ASSERT_TRUE(home.fs().Read(rctx, *hh, 4096, std::span<uint8_t>(buf)).ok());
  const auto expect = workloads::PatternData(6, 2 * 4096);
  EXPECT_TRUE(std::equal(buf.begin(), buf.end(), expect.begin() + 4096));
}

TEST(NumaPlacementTest, OffByDefaultKeepsPagesAtHome) {
  auto ts = hivetest::BootHive(4);
  Cell& home = ts.cell(1);
  Ctx hctx = home.MakeCtx();
  auto id = home.fs().Create(hctx, "/nonuma", workloads::PatternData(7, 4096));
  ASSERT_TRUE(id.ok());
  Cell& client = ts.cell(2);
  Ctx cctx = client.MakeCtx();
  auto handle = client.fs().Open(cctx, "/nonuma");
  auto pfdat = client.fs().GetPage(cctx, *handle, 0, true);
  ASSERT_TRUE(pfdat.ok());
  EXPECT_EQ(ts.hive->CellOfAddr((*pfdat)->frame), 1);
}

}  // namespace
}  // namespace hive
