// Failure detection, distributed agreement, and recovery (paper sections 4.3
// and 7.4).

#include <gtest/gtest.h>

#include "src/core/agreement.h"
#include "src/core/cell.h"
#include "src/core/failure_detection.h"
#include "src/core/filesystem.h"
#include "src/core/recovery.h"
#include "src/core/rpc.h"
#include "src/core/trace.h"
#include "src/flash/fault_injector.h"
#include "src/workloads/workload.h"
#include "tests/test_util.h"

namespace hive {
namespace {

class FailureRecoveryTest : public ::testing::Test {
 protected:
  explicit FailureRecoveryTest(const HiveOptions& options = {})
      : ts_(hivetest::BootHive(4, 4, options)) {}

  hivetest::TestSystem ts_;
};

// Failed cells reboot and rejoin once their diagnostics pass.
class AutoReintegrateTest : public FailureRecoveryTest {
 protected:
  AutoReintegrateTest() : FailureRecoveryTest(Options()) {}

  static HiveOptions Options() {
    HiveOptions options;
    options.auto_reintegrate = true;
    return options;
  }
};

TEST_F(FailureRecoveryTest, ClockMonitoringDetectsNodeFailure) {
  // Fail node 2 at t=25ms; clock monitoring (10 ms ticks, careful reads of
  // the next cell's clock word) must detect it within tens of milliseconds
  // (table 7.4: node failures detected in 10-45 ms).
  flash::FaultInjector injector(ts_.machine.get(), 1);
  const Time inject_at = 25 * kMillisecond;
  injector.ScheduleNodeFailure(2, inject_at);
  ts_.machine->events().RunUntil(200 * kMillisecond);

  ASSERT_EQ(ts_.hive->recovery().recoveries_run(), 1);
  const RecoveryStats& stats = ts_.hive->recovery().last_stats();
  ASSERT_EQ(stats.failed_cells.size(), 1u);
  EXPECT_EQ(stats.failed_cells[0], 2);
  const Time latency = stats.detect_time - inject_at;
  EXPECT_GT(latency, 0);
  EXPECT_LT(latency, 60 * kMillisecond);
  // Containment: only cell 2 died.
  EXPECT_FALSE(ts_.cell(2).alive());
  EXPECT_TRUE(ts_.cell(0).alive());
  EXPECT_TRUE(ts_.cell(1).alive());
  EXPECT_TRUE(ts_.cell(3).alive());
}

TEST_F(FailureRecoveryTest, SurvivingCellsKeepWorkingAfterRecovery) {
  flash::FaultInjector injector(ts_.machine.get(), 1);
  injector.ScheduleNodeFailure(1, 25 * kMillisecond);
  ts_.machine->events().RunUntil(300 * kMillisecond);
  ASSERT_FALSE(ts_.cell(1).alive());

  // The survivors can still create, share, and read files.
  Cell& a = ts_.cell(0);
  Ctx actx = a.MakeCtx();
  ASSERT_TRUE(a.fs().Create(actx, "/after", workloads::PatternData(3, 8192)).ok());
  Cell& b = ts_.cell(3);
  Ctx bctx = b.MakeCtx();
  auto handle = b.fs().Open(bctx, "/after");
  ASSERT_TRUE(handle.ok());
  std::vector<uint8_t> buf(8192);
  ASSERT_TRUE(b.fs().Read(bctx, *handle, 0, std::span<uint8_t>(buf)).ok());
  EXPECT_EQ(buf, workloads::PatternData(3, 8192));
}

TEST_F(FailureRecoveryTest, PreemptiveDiscardDropsPagesWritableByFailedCell) {
  // Cell 2 imports a page of cell 0's file writable; then cell 2 fails. The
  // page must be discarded at the data home and, being dirty, bump the
  // file generation (section 4.2).
  Cell& home = ts_.cell(0);
  Ctx hctx = home.MakeCtx();
  auto id = home.fs().Create(hctx, "/victim", workloads::PatternData(9, 4096));
  ASSERT_TRUE(id.ok());
  auto pre_failure_handle = home.fs().Open(hctx, "/victim");
  ASSERT_TRUE(pre_failure_handle.ok());

  Cell& client = ts_.cell(2);
  Ctx cctx = client.MakeCtx();
  auto chandle = client.fs().Open(cctx, "/victim");
  ASSERT_TRUE(chandle.ok());
  auto pfdat = client.fs().GetPage(cctx, *chandle, 0, /*want_write=*/true);
  ASSERT_TRUE(pfdat.ok());
  // Cell 2 scribbles on the page (a legitimate write... or a wild one).
  ts_.machine->mem().WriteValue<uint64_t>(client.FirstCpu(), (*pfdat)->frame, 0xBAD);

  flash::FaultInjector injector(ts_.machine.get(), 1);
  injector.ScheduleNodeFailure(2, ts_.machine->Now() + kMillisecond);
  ts_.machine->events().RunUntil(ts_.machine->Now() + 200 * kMillisecond);

  const RecoveryStats& stats = ts_.hive->recovery().last_stats();
  EXPECT_GE(stats.pages_discarded, 1);
  EXPECT_GE(stats.dirty_pages_lost, 1);

  // Pre-failure handles observe the error...
  std::vector<uint8_t> buf(4096);
  Ctx hctx2 = home.MakeCtx();
  EXPECT_EQ(home.fs().Read(hctx2, *pre_failure_handle, 0, std::span<uint8_t>(buf)).code(),
            base::StatusCode::kStaleGeneration);
  // ...and a fresh open reads the stale-but-uncorrupted disk data.
  auto fresh = home.fs().Open(hctx2, "/victim");
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(home.fs().Read(hctx2, *fresh, 0, std::span<uint8_t>(buf)).ok());
  EXPECT_EQ(buf, workloads::PatternData(9, 4096));
}

TEST_F(FailureRecoveryTest, FirewallRevokedFromFailedCell) {
  Cell& home = ts_.cell(0);
  Ctx hctx = home.MakeCtx();
  auto id = home.fs().Create(hctx, "/fw", workloads::PatternData(2, 4096));
  ASSERT_TRUE(id.ok());
  Cell& client = ts_.cell(2);
  Ctx cctx = client.MakeCtx();
  auto handle = client.fs().Open(cctx, "/fw");
  auto pfdat = client.fs().GetPage(cctx, *handle, 0, true);
  ASSERT_TRUE(pfdat.ok());
  EXPECT_EQ(home.firewall_manager().RemotelyWritablePages(), 1);

  flash::FaultInjector injector(ts_.machine.get(), 1);
  injector.ScheduleNodeFailure(2, ts_.machine->Now() + kMillisecond);
  ts_.machine->events().RunUntil(ts_.machine->Now() + 200 * kMillisecond);

  EXPECT_EQ(home.firewall_manager().RemotelyWritablePages(), 0);
}

TEST_F(FailureRecoveryTest, ProcessesWithHardDependencyAreKilled) {
  // A process on cell 0 that imported an anon page from cell 1 dies when
  // cell 1 does; an independent process on cell 3 survives.
  auto make_busy = [](const std::string& name) {
    auto behavior = std::make_unique<workloads::ScriptedBehavior>(name);
    behavior->Add(workloads::OpCompute(10 * kSecond));
    return behavior;
  };
  Ctx ctx0 = ts_.cell(0).MakeCtx();
  auto dependent = ts_.hive->Fork(ctx0, 0, make_busy("dep"));
  ASSERT_TRUE(dependent.ok());
  Process* dep = ts_.cell(0).sched().FindProcess(*dependent);
  dep->AddDependency(1);

  auto independent_pid = ts_.hive->Fork(ctx0, 3, make_busy("ind"));
  ASSERT_TRUE(independent_pid.ok());

  flash::FaultInjector injector(ts_.machine.get(), 1);
  injector.ScheduleNodeFailure(1, 25 * kMillisecond);
  ts_.machine->events().RunUntil(300 * kMillisecond);

  EXPECT_EQ(dep->state(), ProcState::kKilled);
  Process* ind = ts_.cell(3).sched().FindProcess(*independent_pid);
  EXPECT_NE(ind->state(), ProcState::kKilled);
}

TEST_F(FailureRecoveryTest, TaskGroupSpanningFailedCellIsKilledEverywhere) {
  const int64_t group = ts_.hive->NextTaskGroup();
  Ctx ctx = ts_.cell(0).MakeCtx();
  std::vector<Process*> members;
  for (CellId c = 0; c < 4; ++c) {
    auto behavior = std::make_unique<workloads::ScriptedBehavior>("member");
    behavior->Add(workloads::OpCompute(10 * kSecond));
    auto pid = ts_.hive->Fork(ctx, c, std::move(behavior), group);
    ASSERT_TRUE(pid.ok());
    members.push_back(ts_.cell(c).sched().FindProcess(*pid));
  }
  flash::FaultInjector injector(ts_.machine.get(), 1);
  injector.ScheduleNodeFailure(3, 25 * kMillisecond);
  ts_.machine->events().RunUntil(300 * kMillisecond);

  for (CellId c = 0; c < 3; ++c) {
    EXPECT_EQ(members[static_cast<size_t>(c)]->state(), ProcState::kKilled) << c;
  }
}

TEST_F(FailureRecoveryTest, UsersSuspendedUntilSecondBarrier) {
  flash::FaultInjector injector(ts_.machine.get(), 1);
  injector.ScheduleNodeFailure(2, 25 * kMillisecond);
  ts_.machine->events().RunUntil(300 * kMillisecond);
  const RecoveryStats& stats = ts_.hive->recovery().last_stats();
  EXPECT_GT(stats.barrier1_time, stats.detect_time);
  EXPECT_GT(stats.barrier2_time, stats.barrier1_time);
  for (CellId c : ts_.hive->LiveCells()) {
    EXPECT_GE(ts_.cell(c).user_suspended_until(), stats.barrier2_time);
  }
  // Recovery latency in the paper's range (40-80 ms measured there; ours is
  // the same order).
  const Time recovery_latency = stats.barrier2_time - stats.detect_time;
  EXPECT_GT(recovery_latency, 5 * kMillisecond);
  EXPECT_LT(recovery_latency, 120 * kMillisecond);
}

TEST_F(FailureRecoveryTest, WaxExitsAndRestartsAfterFailure) {
  ts_.machine->events().RunUntil(150 * kMillisecond);
  EXPECT_TRUE(ts_.hive->wax().running());
  const int incarnation = ts_.hive->wax().incarnation();

  flash::FaultInjector injector(ts_.machine.get(), 1);
  injector.ScheduleNodeFailure(1, ts_.machine->Now() + kMillisecond);
  ts_.machine->events().RunUntil(ts_.machine->Now() + 500 * kMillisecond);

  EXPECT_TRUE(ts_.hive->wax().running());
  EXPECT_EQ(ts_.hive->wax().incarnation(), incarnation + 1);
}

TEST_F(FailureRecoveryTest, RecoveryMasterIsLowestLiveCell) {
  flash::FaultInjector injector(ts_.machine.get(), 1);
  injector.ScheduleNodeFailure(0, 25 * kMillisecond);
  ts_.machine->events().RunUntil(300 * kMillisecond);
  EXPECT_EQ(ts_.hive->recovery().last_stats().recovery_master, 1);
}

TEST_F(AutoReintegrateTest, ReintegrationRebootsFailedCell) {
  Cell& home = ts_.cell(2);
  Ctx hctx = home.MakeCtx();
  ASSERT_TRUE(home.fs().Create(hctx, "/persist", workloads::PatternData(4, 4096)).ok());

  flash::FaultInjector injector(ts_.machine.get(), 1);
  injector.ScheduleNodeFailure(2, 25 * kMillisecond);
  ts_.machine->events().RunUntil(1 * kSecond);

  // Rebooted and running again.
  EXPECT_TRUE(ts_.cell(2).alive());
  // File contents survived on disk and are served again.
  Cell& client = ts_.cell(0);
  Ctx cctx = client.MakeCtx();
  auto handle = client.fs().Open(cctx, "/persist");
  ASSERT_TRUE(handle.ok());
  std::vector<uint8_t> buf(4096);
  ASSERT_TRUE(client.fs().Read(cctx, *handle, 0, std::span<uint8_t>(buf)).ok());
  EXPECT_EQ(buf, workloads::PatternData(4, 4096));
  // And a later failure of the same cell is detectable again.
  injector.ScheduleNodeFailure(2, ts_.machine->Now() + 20 * kMillisecond);
  ts_.machine->events().RunUntil(ts_.machine->Now() + 300 * kMillisecond);
  EXPECT_EQ(ts_.hive->recovery().recoveries_run(), 2);
}

TEST_F(AutoReintegrateTest, ExitWaiterDoesNotOutliveItsCellsReboot) {
  // A waiter blocked in wait() on cell 2 for a child on cell 1. Cell 2 fails
  // and reboots, which frees the waiter, before the child exits; the child's
  // exit notification must then find no waiter rather than touch the freed
  // one (an ASan build reports the stale access as heap-use-after-free).
  auto child = std::make_unique<workloads::ScriptedBehavior>("child");
  child->Add(workloads::OpCompute(1 * kSecond));
  Ctx cctx = ts_.cell(1).MakeCtx();
  auto child_pid = ts_.hive->Fork(cctx, 1, std::move(child));
  ASSERT_TRUE(child_pid.ok());
  auto waiter = std::make_unique<workloads::ScriptedBehavior>("waiter");
  waiter->Add(workloads::OpWaitAll(std::make_shared<std::vector<ProcId>>(1, *child_pid)));
  Ctx wctx = ts_.cell(2).MakeCtx();
  auto waiter_pid = ts_.hive->Fork(wctx, 2, std::move(waiter));
  ASSERT_TRUE(waiter_pid.ok());
  ts_.machine->events().RunUntil(20 * kMillisecond);
  ASSERT_EQ(ts_.cell(2).sched().FindProcess(*waiter_pid)->state(), ProcState::kBlocked);

  flash::FaultInjector injector(ts_.machine.get(), 1);
  injector.ScheduleNodeFailure(2, 25 * kMillisecond);
  ts_.machine->events().RunUntil(500 * kMillisecond);
  ASSERT_EQ(ts_.hive->recovery().reintegration_log().size(), 1u);
  ASSERT_TRUE(ts_.cell(2).alive());
  ASSERT_FALSE(ts_.hive->ProcessFinished(*child_pid));

  ASSERT_TRUE(ts_.hive->RunUntilDone({*child_pid}, 3 * kSecond));
  ts_.machine->events().RunUntil(ts_.machine->Now() + 100 * kMillisecond);
  EXPECT_EQ(ts_.cell(1).sched().FindProcess(*child_pid)->state(), ProcState::kExited);
  EXPECT_EQ(ts_.cell(2).sched().FindProcess(*waiter_pid), nullptr);
  EXPECT_TRUE(ts_.cell(2).alive());
}

TEST_F(FailureRecoveryTest, VotingAgreementConfirmsRealFailure) {
  ts_.hive->agreement().set_mode(AgreementMode::kVoting);
  flash::FaultInjector injector(ts_.machine.get(), 1);
  injector.ScheduleNodeFailure(3, 25 * kMillisecond);
  ts_.machine->events().RunUntil(300 * kMillisecond);
  EXPECT_EQ(ts_.hive->recovery().recoveries_run(), 1);
  EXPECT_FALSE(ts_.cell(3).alive());
  EXPECT_EQ(ts_.hive->agreement().false_alerts(), 0u);
}

TEST_F(FailureRecoveryTest, VotingAgreementVotesDownFalseAccusation) {
  ts_.hive->agreement().set_mode(AgreementMode::kVoting);
  // Cell 0 falsely accuses a healthy cell 2.
  Ctx ctx = ts_.cell(0).MakeCtx();
  ts_.hive->HandleAlert(ctx, /*accuser=*/0, /*suspect=*/2, HintReason::kClockStale);
  EXPECT_EQ(ts_.hive->recovery().recoveries_run(), 0);
  EXPECT_TRUE(ts_.cell(2).alive());
  EXPECT_EQ(ts_.hive->agreement().false_alerts(), 1u);
}

TEST_F(FailureRecoveryTest, AccuserVotedDownTwiceIsDeclaredCorrupt) {
  ts_.hive->agreement().set_mode(AgreementMode::kVoting);
  Ctx ctx = ts_.cell(0).MakeCtx();
  ts_.hive->HandleAlert(ctx, 0, 2, HintReason::kClockStale);
  EXPECT_TRUE(ts_.cell(0).alive());
  ts_.hive->HandleAlert(ctx, 0, 2, HintReason::kClockStale);
  // Section 4.3: same alert twice, voted down both times -> the accuser is
  // considered corrupt by the other cells.
  EXPECT_FALSE(ts_.cell(0).alive());
  EXPECT_TRUE(ts_.cell(2).alive());
  EXPECT_EQ(ts_.hive->recovery().recoveries_run(), 1);
}

// --- Edge cases the fault campaign hits first: overlapping failures. ---

TEST_F(FailureRecoveryTest, SecondFailureDuringRecoveryRound) {
  // Cell 1's node fails at 25 ms; cell 2's node fails ~17 ms later, while
  // detection/recovery of the first failure is typically still in flight.
  // Both failures must end up detected and recovered, every survivor must
  // exit recovery, and containment must hold for cells 0 and 3.
  flash::FaultInjector injector(ts_.machine.get(), 1);
  injector.ScheduleNodeFailure(1, 25 * kMillisecond);
  injector.ScheduleNodeFailure(2, 42 * kMillisecond);
  ts_.machine->events().RunUntil(600 * kMillisecond);

  EXPECT_FALSE(ts_.cell(1).alive());
  EXPECT_FALSE(ts_.cell(2).alive());
  EXPECT_TRUE(ts_.cell(0).alive());
  EXPECT_TRUE(ts_.cell(3).alive());
  EXPECT_TRUE(ts_.hive->CellConfirmedFailed(1));
  EXPECT_TRUE(ts_.hive->CellConfirmedFailed(2));
  EXPECT_GE(ts_.hive->recovery().recoveries_run(), 2);
  for (CellId c : {0, 3}) {
    EXPECT_FALSE(ts_.cell(c).in_recovery()) << c;
    EXPECT_TRUE(ts_.cell(c).panic_reason().empty()) << ts_.cell(c).panic_reason();
  }
  // The last recovery round's barriers are ordered.
  const RecoveryStats& stats = ts_.hive->recovery().last_stats();
  EXPECT_LE(stats.detect_time, stats.barrier1_time);
  EXPECT_LE(stats.barrier1_time, stats.barrier2_time);
  // Survivors still share files.
  Ctx actx = ts_.cell(0).MakeCtx();
  ASSERT_TRUE(
      ts_.cell(0).fs().Create(actx, "/two-down", workloads::PatternData(9, 4096)).ok());
  Ctx bctx = ts_.cell(3).MakeCtx();
  auto handle = ts_.cell(3).fs().Open(bctx, "/two-down");
  ASSERT_TRUE(handle.ok());
  std::vector<uint8_t> buf(4096);
  EXPECT_TRUE(ts_.cell(3).fs().Read(bctx, *handle, 0, std::span<uint8_t>(buf)).ok());
}

TEST_F(FailureRecoveryTest, TwoFailuresInSameAgreementWindow) {
  // Under voting, two nodes fail in the same clock-monitoring window. The
  // probes must confirm both real failures -- neither alert may be mistaken
  // for a false accusation just because agreement was already busy.
  ts_.hive->agreement().set_mode(AgreementMode::kVoting);
  flash::FaultInjector injector(ts_.machine.get(), 1);
  injector.ScheduleNodeFailure(2, 25 * kMillisecond);
  injector.ScheduleNodeFailure(3, 25 * kMillisecond + 1);
  ts_.machine->events().RunUntil(600 * kMillisecond);

  EXPECT_FALSE(ts_.cell(2).alive());
  EXPECT_FALSE(ts_.cell(3).alive());
  EXPECT_TRUE(ts_.hive->CellConfirmedFailed(2));
  EXPECT_TRUE(ts_.hive->CellConfirmedFailed(3));
  EXPECT_GE(ts_.hive->recovery().recoveries_run(), 2);
  EXPECT_EQ(ts_.hive->agreement().false_alerts(), 0u);
  EXPECT_TRUE(ts_.cell(0).alive());
  EXPECT_TRUE(ts_.cell(1).alive());
}

TEST_F(FailureRecoveryTest, VotedDownStrikesArePerSuspect) {
  // The two-strike rule (section 4.3) is keyed by (accuser, suspect): being
  // voted down once each for two DIFFERENT suspects must not condemn the
  // accuser, but a second strike for the SAME suspect must.
  ts_.hive->agreement().set_mode(AgreementMode::kVoting);
  Ctx ctx = ts_.cell(0).MakeCtx();
  ts_.hive->HandleAlert(ctx, 0, 2, HintReason::kClockStale);
  ts_.hive->HandleAlert(ctx, 0, 3, HintReason::kClockStale);
  EXPECT_TRUE(ts_.cell(0).alive());
  EXPECT_EQ(ts_.hive->agreement().false_alerts(), 2u);
  EXPECT_EQ(ts_.hive->recovery().recoveries_run(), 0);

  ts_.hive->HandleAlert(ctx, 0, 2, HintReason::kClockStale);
  EXPECT_FALSE(ts_.cell(0).alive());
  EXPECT_TRUE(ts_.cell(2).alive());
  EXPECT_TRUE(ts_.cell(3).alive());
  EXPECT_EQ(ts_.hive->recovery().recoveries_run(), 1);
}

TEST_F(FailureRecoveryTest, PanickedCellMemoryIsCutOff) {
  ts_.cell(1).Panic("test panic");
  // Remote access to the panicked cell's memory traps (table 8.1 cutoff).
  EXPECT_THROW(ts_.machine->mem().ReadValue<uint64_t>(ts_.cell(0).FirstCpu(),
                                                      ts_.cell(1).mem_base() + 4096),
               flash::BusError);
}

TEST_F(FailureRecoveryTest, SpareBorrowedFramesDroppedOnceAtRecovery) {
  // Cell 0 borrows a batch of frames from cell 2; the batch leaves spare
  // frames in the allocator's per-home free bucket. When cell 2 then fails,
  // recovery must drop those spares from the pfdat table exactly once (the
  // bucket owns them AND they are borrowed-from-failed extended pfdats, so a
  // naive sweep removes them twice and corrupts the slab arena's free list).
  Cell& client = ts_.cell(0);
  Ctx ctx = client.MakeCtx();
  AllocConstraints constraints;
  constraints.preferred_cell = 2;
  auto in_use = client.allocator().AllocFrame(ctx, constraints);
  ASSERT_TRUE(in_use.ok());
  ASSERT_EQ((*in_use)->borrowed_from, 2);

  flash::FaultInjector injector(ts_.machine.get(), 1);
  injector.ScheduleNodeFailure(2, ts_.machine->Now() + kMillisecond);
  ts_.machine->events().RunUntil(ts_.machine->Now() + 200 * kMillisecond);
  ASSERT_EQ(ts_.hive->recovery().recoveries_run(), 1);

  // No pfdat borrowed from the failed cell survives on the client.
  client.pfdats().ForEach([&](Pfdat* pfdat) {
    EXPECT_NE(pfdat->borrowed_from, 2) << "frame " << pfdat->frame;
  });
  // A double release would hand the same arena slot to the next two
  // allocations; distinct pfdats prove the free list holds no duplicates.
  Ctx ctx2 = client.MakeCtx();
  auto a = client.allocator().AllocFrame(ctx2);
  auto b = client.allocator().AllocFrame(ctx2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
  EXPECT_EQ(client.pfdats().FindByFrame((*a)->frame), *a);
  EXPECT_EQ(client.pfdats().FindByFrame((*b)->frame), *b);
}

TEST_F(FailureRecoveryTest, SmpModeHasNoDetection) {
  auto smp = hivetest::BootSmp();
  flash::FaultInjector injector(smp.machine.get(), 1);
  injector.ScheduleNodeFailure(1, 25 * kMillisecond);
  smp.machine->events().RunUntil(300 * kMillisecond);
  // A shared-everything kernel has no containment story: no recovery runs.
  EXPECT_EQ(smp.hive->recovery().recoveries_run(), 0);
}

// --------------------------------------------------------------------------
// Byzantine survivors (DESIGN.md section 9): live-but-erroneous cells.
// --------------------------------------------------------------------------

TEST_F(FailureRecoveryTest, HintReasonNameRoundTrips) {
  for (HintReason reason : kAllHintReasons) {
    HintReason parsed;
    ASSERT_TRUE(HintReasonFromName(HintReasonName(reason), &parsed))
        << HintReasonName(reason);
    EXPECT_EQ(parsed, reason);
  }
  HintReason parsed;
  EXPECT_FALSE(HintReasonFromName("not-a-reason", &parsed));
  EXPECT_FALSE(HintReasonFromName("", &parsed));
}

TEST_F(FailureRecoveryTest, RogueFrozenClockIsExcised) {
  // The cell stays kRunning and answers RPCs, but its clock word freezes.
  // The stale check attaches the frozen value as evidence; every voter
  // re-reads the word and sees it pinned, so the live rogue is confirmed.
  ts_.hive->agreement().set_mode(AgreementMode::kVoting);
  RogueBehavior rogue;
  rogue.active = true;
  rogue.clock_freeze = true;
  ts_.cell(2).SetRogueBehavior(rogue);
  ts_.machine->events().RunUntil(300 * kMillisecond);

  ASSERT_GE(ts_.hive->recovery().recoveries_run(), 1);
  EXPECT_TRUE(ts_.hive->CellConfirmedFailed(2));
  EXPECT_FALSE(ts_.cell(2).alive());
  EXPECT_TRUE(ts_.cell(0).alive());
  EXPECT_TRUE(ts_.cell(1).alive());
  EXPECT_TRUE(ts_.cell(3).alive());
}

TEST_F(FailureRecoveryTest, RogueDriftingClockIsExcised) {
  // Half-rate drift never trips the stale check (the word does move); the
  // drift window catches the below-rate advance and voters corroborate it.
  ts_.hive->agreement().set_mode(AgreementMode::kVoting);
  RogueBehavior rogue;
  rogue.active = true;
  rogue.clock_drift = true;
  rogue.clock_drift_divisor = 2;
  ts_.cell(1).SetRogueBehavior(rogue);
  ts_.machine->events().RunUntil(400 * kMillisecond);

  EXPECT_TRUE(ts_.hive->CellConfirmedFailed(1));
  EXPECT_FALSE(ts_.cell(1).alive());
  EXPECT_TRUE(ts_.cell(0).alive());
  EXPECT_TRUE(ts_.cell(3).alive());
}

TEST_F(FailureRecoveryTest, MuteVoterTimesOutInsteadOfStallingTheRound) {
  // Cell 3 goes globally silent; a real node failure of cell 2 must still be
  // confirmed by the remaining voters, with cell 3 recorded as a timeout
  // rather than stalling the round forever.
  ts_.hive->agreement().set_mode(AgreementMode::kVoting);
  RogueBehavior rogue;
  rogue.active = true;
  rogue.rpc_silent = true;
  ts_.cell(3).SetRogueBehavior(rogue);
  flash::FaultInjector injector(ts_.machine.get(), 1);
  injector.ScheduleNodeFailure(2, 25 * kMillisecond);
  ts_.machine->events().RunUntil(300 * kMillisecond);

  EXPECT_TRUE(ts_.hive->CellConfirmedFailed(2));
  EXPECT_GE(ts_.hive->agreement().vote_timeouts(), 1u);
  // Bounded rounds: the mute voter cost one vote timeout, not a hang.
  EXPECT_LT(ts_.hive->agreement().max_round_cost_ns(), 100 * kMillisecond);
}

TEST_F(FailureRecoveryTest, ContrarianVoterCannotBlockConfirmation) {
  // Cell 1 inverts its votes. Three voters probe a genuinely dead cell 2:
  // the two honest ones outvote the contrarian.
  ts_.hive->agreement().set_mode(AgreementMode::kVoting);
  RogueBehavior rogue;
  rogue.active = true;
  rogue.vote_contrarian = true;
  ts_.cell(1).SetRogueBehavior(rogue);
  flash::FaultInjector injector(ts_.machine.get(), 1);
  injector.ScheduleNodeFailure(2, 25 * kMillisecond);
  ts_.machine->events().RunUntil(300 * kMillisecond);

  EXPECT_TRUE(ts_.hive->CellConfirmedFailed(2));
  EXPECT_TRUE(ts_.cell(0).alive());
  EXPECT_TRUE(ts_.cell(3).alive());
}

TEST_F(FailureRecoveryTest, GarbageRepliesCorroboratedByVotersOwnNullRpc) {
  // The rogue answers pings, so a classic probe would vote the accuser down.
  // With kRpcReply evidence every voter issues its own null RPC, sees the
  // scribbled payload, and the live rogue is confirmed -- no strikes accrue
  // against the healthy accuser.
  ts_.hive->agreement().set_mode(AgreementMode::kVoting);
  RogueBehavior rogue;
  rogue.active = true;
  rogue.rpc_garbage = true;
  rogue.garbage_seed = 0x5EED;
  ts_.cell(2).SetRogueBehavior(rogue);

  Cell& accuser = ts_.cell(0);
  Ctx ctx = accuser.MakeCtx();
  RpcArgs args;
  RpcReply reply;
  ASSERT_TRUE(accuser.rpc().Call(ctx, 2, MsgType::kNull, args, &reply).ok());
  bool garbage = false;
  for (uint64_t word : reply.w) {
    garbage = garbage || word != 0;
  }
  ASSERT_TRUE(garbage) << "rogue null reply was clean";

  HintEvidence evidence;
  evidence.structure = EvidenceStructure::kRpcReply;
  accuser.detector().RaiseHintWithEvidence(ctx, 2, HintReason::kInvariantMismatch,
                                           evidence);
  EXPECT_TRUE(ts_.hive->CellConfirmedFailed(2));
  EXPECT_TRUE(ts_.cell(0).alive());
  EXPECT_EQ(ts_.hive->agreement().false_alerts(), 0u);
}

TEST_F(FailureRecoveryTest, UncorroboratedEvidenceIsVotedDownAndCleared) {
  // Cell 0 claims cell 1's clock froze at a bogus value. Voters re-read the
  // healthy clock, fail to corroborate, and vote the accusation down; the
  // single-use evidence is cleared so it cannot back a later hint.
  ts_.hive->agreement().set_mode(AgreementMode::kVoting);
  Cell& accuser = ts_.cell(0);
  Ctx ctx = accuser.MakeCtx();
  HintEvidence evidence;
  evidence.structure = EvidenceStructure::kClockWord;
  evidence.clock_value = 0xDEAD;  // Not the suspect's actual clock value.
  accuser.detector().RaiseHintWithEvidence(ctx, 1, HintReason::kClockStale, evidence);

  EXPECT_TRUE(ts_.cell(1).alive());
  EXPECT_FALSE(ts_.hive->CellConfirmedFailed(1));
  EXPECT_GE(ts_.hive->agreement().false_alerts(), 1u);
  EXPECT_FALSE(accuser.detector().EvidenceAgainst(1).valid);
}

TEST_F(FailureRecoveryTest, BabbleThrottleMarksFloodingPeer) {
  // A flood of incoming requests from one peer crosses the throttle: the
  // peer is marked a babbler, further requests are rejected, and a
  // kBabbling hint is raised.
  Cell& victim = ts_.cell(0);
  Ctx ctx = victim.MakeCtx();
  FailureDetector& detector = victim.detector();
  ASSERT_FALSE(detector.IsBabbler(1));
  bool rejected = false;
  for (int i = 0; i < FailureDetector::kBabbleThreshold + 10 && !rejected; ++i) {
    rejected = !detector.RecordIncomingRequest(ctx, 1);
  }
  EXPECT_TRUE(rejected);
  EXPECT_TRUE(detector.IsBabbler(1));
  EXPECT_GE(detector.IncomingCount(1), FailureDetector::kBabbleThreshold);
  EXPECT_GE(detector.hints_for(HintReason::kBabbling), 1u);
}

// --- The section 4.1 boundary (Cell::RunKernel): a trap panics only the
// kernel that took it. ---

TEST_F(FailureRecoveryTest, TrapInAPeersRecoveryShareEndsOnlyThatPeer) {
  // The nodes of cells 2 and 3 fail before either cell's clock tick notices,
  // so both are still alive() when cell 1's alert about cell 2 runs
  // recovery. Cell 3's share of the round kills a process that depended on
  // cell 2, and tearing its address space down reads cell 3's own dead heap.
  // That trap panics cell 3 alone, inside the round; the round completes and
  // the alert machinery is free for the next failure.
  auto behavior = std::make_unique<workloads::ScriptedBehavior>("dep");
  behavior->Add(workloads::OpCompute(10 * kSecond));
  Ctx fork_ctx = ts_.cell(3).MakeCtx();
  auto pid = ts_.hive->Fork(fork_ctx, 3, std::move(behavior));
  ASSERT_TRUE(pid.ok());
  ts_.cell(3).sched().FindProcess(*pid)->AddDependency(2);

  ts_.machine->FailNode(2);
  ts_.machine->FailNode(3);
  ASSERT_TRUE(ts_.cell(2).alive());
  ASSERT_TRUE(ts_.cell(3).alive());

  Ctx ctx = ts_.cell(1).MakeCtx();
  ASSERT_NO_THROW(ts_.hive->HandleAlert(ctx, 1, 2, HintReason::kClockStale));
  EXPECT_EQ(ts_.cell(3).panic_reason(), "bus error during recovery: bus error: node failed");
  for (CellId c : {0, 1}) {
    EXPECT_TRUE(ts_.cell(c).alive()) << c;
    EXPECT_EQ(ts_.cell(c).panic_reason(), "") << c;
  }
  for (CellId c = 0; c < 4; ++c) {
    EXPECT_FALSE(ts_.cell(c).in_recovery()) << c;
  }

  ts_.hive->HandleAlert(ctx, 1, 3, HintReason::kClockStale);
  EXPECT_EQ(ts_.hive->recovery().recoveries_run(), 2);
  EXPECT_TRUE(ts_.hive->CellConfirmedFailed(3));
}

TEST_F(FailureRecoveryTest, DeniedClockWordStorePanicsOnlyThatCell) {
  // Cell 2 loses write permission on the page holding its own clock word:
  // the increment at its next clock tick takes a firewall trap, and that
  // kernel, and no other, panics.
  Cell& cell = ts_.cell(2);
  flash::PhysMem& mem = ts_.machine->mem();
  mem.firewall().SetVector(mem.PfnOfAddr(cell.clock_word_addr()), 0, cell.FirstCpu());
  ASSERT_NO_THROW(ts_.machine->events().RunUntil(300 * kMillisecond));

  EXPECT_EQ(cell.panic_reason(),
            "bus error updating own clock: bus error: firewall write denied");
  for (CellId c : {0, 1, 3}) {
    EXPECT_TRUE(ts_.cell(c).alive()) << c;
    EXPECT_EQ(ts_.cell(c).panic_reason(), "") << c;
  }
}

TEST_F(FailureRecoveryTest, TraversalHighWaterMarkTracksWorstWalk) {
  FailureDetector& detector = ts_.cell(0).detector();
  const int before = detector.max_traversal_hops();
  detector.NoteTraversal(7);
  detector.NoteTraversal(3);
  EXPECT_GE(detector.max_traversal_hops(), 7);
  EXPECT_GE(detector.max_traversal_hops(), before);
}

// --- Page salvage and live rejoin (HiveOptions::salvage_pages /
// HiveOptions::live_rejoin). ---

class SalvageTest : public ::testing::Test {
 protected:
  static HiveOptions Options() {
    HiveOptions options;
    options.salvage_pages = true;
    return options;
  }
  SalvageTest() : ts_(hivetest::BootHive(4, 4, Options())) {}

  // Home creates a file; the client imports page 0 writable, which records
  // the export and the checksum baseline at the home. Returns the frame.
  PhysAddr StageWriteExport() {
    Cell& home = ts_.cell(0);
    Ctx hctx = home.MakeCtx();
    EXPECT_TRUE(
        home.fs().Create(hctx, "/salvage", workloads::PatternData(7, 4096)).ok());
    pre_failure_handle_ = *home.fs().Open(hctx, "/salvage");
    Cell& client = ts_.cell(2);
    Ctx cctx = client.MakeCtx();
    auto handle = client.fs().Open(cctx, "/salvage");
    EXPECT_TRUE(handle.ok());
    auto page = client.fs().GetPage(cctx, *handle, 0, /*want_write=*/true);
    EXPECT_TRUE(page.ok());
    const PhysAddr frame = (*page)->frame;
    client.fs().ReleasePage(cctx, *page);
    return frame;
  }

  void FailClientAndRecover() {
    flash::FaultInjector injector(ts_.machine.get(), 1);
    injector.ScheduleNodeFailure(2, ts_.machine->Now() + kMillisecond);
    ts_.machine->events().RunUntil(ts_.machine->Now() + 200 * kMillisecond);
    ASSERT_GE(ts_.hive->recovery().recoveries_run(), 1);
  }

  hivetest::TestSystem ts_;
  FileHandle pre_failure_handle_;
};

TEST_F(SalvageTest, CleanWriteExportedPageIsSalvagedNotDiscarded) {
  StageWriteExport();
  FailClientAndRecover();

  // The checksum proof admits the page: the dead client held write
  // permission but provably never used it.
  const RecoveryStats& stats = ts_.hive->recovery().last_stats();
  EXPECT_GE(stats.pages_salvaged, 1);
  ASSERT_GE(ts_.hive->recovery().salvage_log().size(), 1u);
  const SalvageRecord& record = ts_.hive->recovery().salvage_log()[0];
  EXPECT_EQ(record.owner, 0);
  EXPECT_TRUE(record.checksum_proof);
  EXPECT_GE(ts_.cell(0).allocator().frames_salvaged(), 1u);
  EXPECT_GE(ts_.cell(0).trace().Count(TraceEvent::kPageSalvaged), 1);

  // No discard means no generation bump: the pre-failure handle still reads
  // the intact data as current.
  Cell& home = ts_.cell(0);
  Ctx ctx = home.MakeCtx();
  std::vector<uint8_t> buf(4096);
  ASSERT_TRUE(
      home.fs().Read(ctx, pre_failure_handle_, 0, std::span<uint8_t>(buf)).ok());
  EXPECT_EQ(buf, workloads::PatternData(7, 4096));
}

TEST_F(SalvageTest, ScribbledWriteExportIsRejectedAndDiscarded) {
  const PhysAddr frame = StageWriteExport();
  // The client uses its hardware write permission before dying: the baseline
  // no longer matches, so the page must be discarded, not adopted.
  ts_.machine->mem().WriteValue<uint64_t>(ts_.cell(2).FirstCpu(), frame + 8, 0xBAD);
  FailClientAndRecover();

  const RecoveryStats& stats = ts_.hive->recovery().last_stats();
  EXPECT_EQ(stats.pages_salvaged, 0);
  EXPECT_GE(stats.pages_discarded, 1);
  EXPECT_TRUE(ts_.hive->recovery().salvage_log().empty());
  EXPECT_GE(ts_.cell(0).trace().Count(TraceEvent::kSalvageRejected), 1);

  // The discard bumped the generation; a fresh open re-reads clean disk data.
  Cell& home = ts_.cell(0);
  Ctx ctx = home.MakeCtx();
  std::vector<uint8_t> buf(4096);
  EXPECT_EQ(home.fs().Read(ctx, pre_failure_handle_, 0, std::span<uint8_t>(buf)).code(),
            base::StatusCode::kStaleGeneration);
  auto fresh = home.fs().Open(ctx, "/salvage");
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(home.fs().Read(ctx, *fresh, 0, std::span<uint8_t>(buf)).ok());
  EXPECT_EQ(buf, workloads::PatternData(7, 4096));
}

TEST(LiveRejoinTest, RebootedCellConvergesToFullMemberUnderLiveRejoin) {
  HiveOptions options;
  options.live_rejoin = true;
  options.auto_reintegrate = true;
  hivetest::TestSystem ts = hivetest::BootHive(4, 4, options);

  flash::FaultInjector injector(ts.machine.get(), 1);
  injector.ScheduleNodeFailure(2, 25 * kMillisecond);
  ts.machine->events().RunUntil(1 * kSecond);

  EXPECT_TRUE(ts.cell(2).alive());
  ASSERT_EQ(ts.hive->recovery().reintegration_log().size(), 1u);
  const ReintegrationRecord& record = ts.hive->recovery().reintegration_log()[0];
  EXPECT_EQ(record.cell, 2);
  EXPECT_GT(record.done_at, record.started_at);
  EXPECT_FALSE(record.re_excised);
  EXPECT_FALSE(record.failed);

  // The rejoined cell is a full member: it serves RPC and file reads under
  // its new incarnation, and survivors reach it without stale replay state.
  Cell& rejoined = ts.cell(2);
  Ctx rctx = rejoined.MakeCtx();
  ASSERT_TRUE(
      rejoined.fs().Create(rctx, "/after-rejoin", workloads::PatternData(5, 4096)).ok());
  Cell& peer = ts.cell(0);
  Ctx pctx = peer.MakeCtx();
  auto handle = peer.fs().Open(pctx, "/after-rejoin");
  ASSERT_TRUE(handle.ok());
  std::vector<uint8_t> buf(4096);
  ASSERT_TRUE(peer.fs().Read(pctx, *handle, 0, std::span<uint8_t>(buf)).ok());
  EXPECT_EQ(buf, workloads::PatternData(5, 4096));
}

}  // namespace
}  // namespace hive
