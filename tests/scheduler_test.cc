#include "src/core/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/cell.h"
#include "src/flash/fault_injector.h"
#include "src/workloads/workload.h"
#include "tests/test_util.h"

namespace hive {
namespace {

using workloads::OpCompute;
using workloads::ScriptedBehavior;

class SchedulerTest : public ::testing::Test {
 protected:
  // One cell with 4 CPUs: an SMP cell.
  SchedulerTest() : ts_(hivetest::BootHive(1, 4, NoWaxOptions())) {}

  static HiveOptions NoWaxOptions() {
    HiveOptions options;
    options.start_wax = false;
    return options;
  }

  ProcId Spawn(Time compute) {
    auto behavior = std::make_unique<ScriptedBehavior>("compute");
    behavior->Add(OpCompute(compute));
    Ctx ctx = ts_.cell(0).MakeCtx();
    auto pid = ts_.hive->Fork(ctx, 0, std::move(behavior));
    EXPECT_TRUE(pid.ok());
    return *pid;
  }

  hivetest::TestSystem ts_;
};

TEST_F(SchedulerTest, SingleProcessRunsToCompletion) {
  const ProcId pid = Spawn(100 * kMillisecond);
  ASSERT_TRUE(ts_.hive->RunUntilDone({pid}, 10 * kSecond));
  Process* proc = ts_.cell(0).sched().FindProcess(pid);
  EXPECT_EQ(proc->state(), ProcState::kExited);
  // ~100ms of work plus fork/exit overheads.
  EXPECT_GE(proc->finished_at, 100 * kMillisecond);
  EXPECT_LE(proc->finished_at, 150 * kMillisecond);
}

TEST_F(SchedulerTest, FourProcessesRunInParallelOnFourCpus) {
  std::vector<ProcId> pids;
  for (int i = 0; i < 4; ++i) {
    pids.push_back(Spawn(200 * kMillisecond));
  }
  ASSERT_TRUE(ts_.hive->RunUntilDone(pids, 10 * kSecond));
  // All four finish in ~1x the single-process time: true parallelism.
  for (ProcId pid : pids) {
    EXPECT_LE(ts_.cell(0).sched().FindProcess(pid)->finished_at, 300 * kMillisecond);
  }
}

TEST_F(SchedulerTest, EightProcessesTimeShareFairly) {
  std::vector<ProcId> pids;
  for (int i = 0; i < 8; ++i) {
    pids.push_back(Spawn(100 * kMillisecond));
  }
  ASSERT_TRUE(ts_.hive->RunUntilDone(pids, 10 * kSecond));
  // 8 x 100ms over 4 CPUs: makespan ~200ms, and no process starves.
  Time max_finish = 0;
  for (ProcId pid : pids) {
    max_finish = std::max(max_finish, ts_.cell(0).sched().FindProcess(pid)->finished_at);
  }
  EXPECT_GE(max_finish, 190 * kMillisecond);
  EXPECT_LE(max_finish, 320 * kMillisecond);
}

TEST_F(SchedulerTest, BarrierBlocksUntilAllArrive) {
  auto barrier = std::make_shared<UserBarrier>(3);
  std::vector<ProcId> pids;
  std::vector<Time> computes = {10 * kMillisecond, 50 * kMillisecond, 90 * kMillisecond};
  for (Time c : computes) {
    auto behavior = std::make_unique<ScriptedBehavior>("barrier-proc");
    behavior->Add(OpCompute(c));
    behavior->Add(workloads::OpBarrier(barrier));
    behavior->Add(OpCompute(10 * kMillisecond));
    Ctx ctx = ts_.cell(0).MakeCtx();
    auto pid = ts_.hive->Fork(ctx, 0, std::move(behavior));
    ASSERT_TRUE(pid.ok());
    pids.push_back(*pid);
  }
  ASSERT_TRUE(ts_.hive->RunUntilDone(pids, 10 * kSecond));
  // Everyone finishes after the slowest arriver (90ms) plus the tail work.
  for (ProcId pid : pids) {
    EXPECT_GE(ts_.cell(0).sched().FindProcess(pid)->finished_at, 99 * kMillisecond);
  }
}

TEST_F(SchedulerTest, WaitAllBlocksParentUntilChildrenExit) {
  auto child_pids = std::make_shared<std::vector<ProcId>>();
  auto parent = std::make_unique<ScriptedBehavior>("parent");
  for (int i = 0; i < 3; ++i) {
    parent->Add(workloads::OpFork(
        0,
        [] {
          auto child = std::make_unique<ScriptedBehavior>("child");
          child->Add(OpCompute(50 * kMillisecond));
          return child;
        },
        child_pids));
  }
  parent->Add(workloads::OpWaitAll(child_pids));
  Ctx ctx = ts_.cell(0).MakeCtx();
  auto parent_pid = ts_.hive->Fork(ctx, 0, std::move(parent));
  ASSERT_TRUE(parent_pid.ok());
  ASSERT_TRUE(ts_.hive->RunUntilDone({*parent_pid}, 10 * kSecond));
  Process* parent_proc = ts_.cell(0).sched().FindProcess(*parent_pid);
  // The parent outlives its children.
  for (ProcId child : *child_pids) {
    EXPECT_LE(ts_.cell(0).sched().FindProcess(child)->finished_at,
              parent_proc->finished_at);
  }
}

// The live index as a pid list, checking each entry on the way.
std::vector<ProcId> LivePids(const Scheduler& sched) {
  std::vector<ProcId> pids;
  for (const auto& [pid, proc] : sched.live_processes()) {
    EXPECT_EQ(proc->pid(), pid);
    EXPECT_FALSE(proc->finished()) << pid;
    pids.push_back(pid);
  }
  return pids;
}

TEST_F(SchedulerTest, LiveIndexDropsExitedAndKilledProcesses) {
  std::vector<ProcId> pids;
  for (Time compute : {20 * kMillisecond, 2 * kSecond, 20 * kMillisecond, 2 * kSecond,
                       2 * kSecond}) {
    pids.push_back(Spawn(compute));
  }
  Scheduler& sched = ts_.cell(0).sched();
  EXPECT_EQ(LivePids(sched), pids);

  ASSERT_TRUE(ts_.hive->RunUntilDone({pids[0], pids[2]}, 1 * kSecond));
  EXPECT_EQ(LivePids(sched), (std::vector<ProcId>{pids[1], pids[3], pids[4]}));

  Ctx ctx = ts_.cell(0).MakeCtx();
  sched.KillProcess(ctx, sched.FindProcess(pids[3]), "test kill");
  EXPECT_EQ(LivePids(sched), (std::vector<ProcId>{pids[1], pids[4]}));
  // Finished processes stay inspectable.
  EXPECT_EQ(sched.process_count(), pids.size());
  EXPECT_EQ(sched.FindProcess(pids[3])->state(), ProcState::kKilled);
}

TEST(SchedulerRecoveryTest, RecoverySweepKillsLeaveTheLiveIndex) {
  hivetest::TestSystem ts = hivetest::BootHive(4);
  Scheduler& sched = ts.cell(0).sched();
  // Pid order: two dependents of cell 1 back to back, a bystander, then a
  // third dependent, so the kill sweep removes neighbours as it walks.
  std::vector<ProcId> dependents;
  ProcId bystander = kInvalidProc;
  for (bool dependent : {true, true, false, true}) {
    auto behavior = std::make_unique<ScriptedBehavior>("long");
    behavior->Add(OpCompute(5 * kSecond));
    Ctx ctx = ts.cell(0).MakeCtx();
    auto pid = ts.hive->Fork(ctx, 0, std::move(behavior));
    ASSERT_TRUE(pid.ok());
    if (dependent) {
      sched.FindProcess(*pid)->AddDependency(1);
      dependents.push_back(*pid);
    } else {
      bystander = *pid;
    }
  }

  flash::FaultInjector injector(ts.machine.get(), 1);
  injector.ScheduleNodeFailure(1, 25 * kMillisecond);
  ts.machine->events().RunUntil(300 * kMillisecond);
  ASSERT_EQ(ts.hive->recovery().recoveries_run(), 1);
  ASSERT_TRUE(ts.cell(0).alive());

  for (ProcId pid : dependents) {
    EXPECT_EQ(sched.FindProcess(pid)->state(), ProcState::kKilled) << pid;
    EXPECT_EQ(sched.FindProcess(pid)->exit_reason, "used resources of a failed cell");
  }
  const std::vector<ProcId> live = LivePids(sched);
  EXPECT_NE(std::find(live.begin(), live.end(), bystander), live.end());
  for (ProcId pid : dependents) {
    EXPECT_EQ(std::find(live.begin(), live.end(), pid), live.end()) << pid;
  }
}

// A step that stores into another cell's memory without a firewall grant:
// the hardware denies the write with a bus error.
class WildStoreBehavior : public Behavior {
 public:
  explicit WildStoreBehavior(PhysAddr target) : target_(target) {}

  StepOutcome Step(Ctx& ctx, Process& proc) override {
    (void)proc;
    ctx.Charge(1000);
    ctx.cell->machine().mem().WriteValue<uint64_t>(ctx.cpu, target_, 0xBAD);
    return StepOutcome::kContinue;
  }
  std::string name() const override { return "wild-store"; }

 private:
  PhysAddr target_;
};

TEST(SchedulerBoundaryTest, TrapInProcessStepPanicsOnlyItsCell) {
  hivetest::TestSystem ts = hivetest::BootHive(4);
  const PhysAddr target = ts.cell(1).mem_base() + 4096;
  const uint64_t before = ts.machine->mem().ReadValue<uint64_t>(ts.cell(1).FirstCpu(), target);
  Ctx ctx = ts.cell(0).MakeCtx();
  ASSERT_TRUE(ts.hive->Fork(ctx, 0, std::make_unique<WildStoreBehavior>(target)).ok());
  ASSERT_NO_THROW(ts.machine->events().RunUntil(300 * kMillisecond));

  EXPECT_EQ(ts.cell(0).panic_reason(),
            "bus error during process execution: bus error: firewall write denied");
  for (CellId c = 1; c < 4; ++c) {
    EXPECT_TRUE(ts.cell(c).alive()) << c;
    EXPECT_EQ(ts.cell(c).panic_reason(), "") << c;
  }
  EXPECT_EQ(ts.machine->mem().ReadValue<uint64_t>(ts.cell(1).FirstCpu(), target), before);
}

TEST_F(SchedulerTest, CpuBusyTimeAccounted) {
  const ProcId pid = Spawn(100 * kMillisecond);
  ASSERT_TRUE(ts_.hive->RunUntilDone({pid}, 10 * kSecond));
  EXPECT_GE(ts_.cell(0).sched().cpu_busy_ns(), 100 * kMillisecond);
}

}  // namespace
}  // namespace hive
