// Per-oracle unit tests: each containment/RPC/rogue oracle is driven against
// a hand-built violating state (it must fire) and a healthy twin (it must
// stay silent), so an oracle regression is caught without a campaign run.
//
// Tests call the individual Check* functions, not CheckAllOracles, so a
// deliberately broken state for one oracle cannot bleed into another's
// verdict.

#include "src/campaign/oracles.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/campaign/scenario.h"
#include "src/core/cell.h"
#include "src/core/failure_detection.h"
#include "src/core/filesystem.h"
#include "src/core/recovery.h"
#include "src/core/rpc.h"
#include "src/core/trace.h"
#include "src/flash/fault_injector.h"
#include "src/workloads/workload.h"
#include "tests/test_util.h"

namespace campaign {
namespace {

using hive::Cell;
using hive::CellId;
using hive::Ctx;
using hive::kMillisecond;
using hive::Time;

// Harness: a booted 4-cell hive plus the spec/canary/injection context the
// oracle under test reads. The spec defaults to zero faults.
struct OracleHarness {
  explicit OracleHarness(hive::HiveOptions options = {})
      : ts(hivetest::BootHive(4, 4, options)) {
    spec.master_seed = 1;
    spec.index = 0;
    spec.seed = 99;
    spec.num_cells = 4;
    spec.workload = WorkloadKind::kNone;
  }

  OracleInput Input() {
    OracleInput input;
    input.spec = &spec;
    input.system = ts.hive.get();
    input.canaries = &canaries;
    input.injected = injected;
    input.corrupt_outputs = corrupt_outputs;
    input.wild_write_frames = wild_write_frames;
    return input;
  }

  hivetest::TestSystem ts;
  ScenarioSpec spec;
  CanaryState canaries;
  std::vector<bool> injected;
  int corrupt_outputs = -1;
  std::vector<hive::PhysAddr> wild_write_frames;
};

bool Fired(const std::vector<OracleViolation>& violations, const std::string& oracle) {
  for (const OracleViolation& violation : violations) {
    if (violation.oracle == oracle) {
      return true;
    }
  }
  return false;
}

std::string Render(const std::vector<OracleViolation>& violations) {
  std::string out;
  for (const OracleViolation& violation : violations) {
    out += violation.ToString() + "\n";
  }
  return out;
}

FaultSpec NodeFailureFault(CellId victim) {
  FaultSpec fault;
  fault.kind = FaultKind::kNodeFailure;
  fault.victim = victim;
  fault.inject_at = 25 * kMillisecond;
  return fault;
}

TEST(FaultContainmentOracle, FiresOnUnexplainedDeath) {
  OracleHarness h;
  // A cell died with zero faults in the plan: the death is unexplained.
  h.ts.cell(1).Panic("spontaneous");
  std::vector<OracleViolation> violations;
  CheckContainmentAndDetection(h.Input(), &violations);
  EXPECT_TRUE(Fired(violations, "fault-containment")) << Render(violations);
}

TEST(FaultContainmentOracle, SilentOnHealthyHive) {
  OracleHarness h;
  std::vector<OracleViolation> violations;
  CheckContainmentAndDetection(h.Input(), &violations);
  EXPECT_TRUE(violations.empty()) << Render(violations);
}

TEST(DetectionCompleteOracle, FiresWhenFailStopVictimStaysAlive) {
  OracleHarness h;
  // The plan says cell 1 took a landed fail-stop fault, yet it is alive:
  // either the injection bookkeeping or the detection pipeline lost it.
  h.spec.faults.push_back(NodeFailureFault(1));
  h.injected = {true};
  std::vector<OracleViolation> violations;
  CheckContainmentAndDetection(h.Input(), &violations);
  EXPECT_TRUE(Fired(violations, "detection-complete")) << Render(violations);
}

TEST(DetectionCompleteOracle, SilentWhenTheFaultNeverLanded) {
  OracleHarness h;
  h.spec.faults.push_back(NodeFailureFault(1));
  h.injected = {false};
  std::vector<OracleViolation> violations;
  CheckContainmentAndDetection(h.Input(), &violations);
  EXPECT_TRUE(violations.empty()) << Render(violations);
}

TEST(DetectionCompleteOracle, SilentOnDetectedAndConfirmedFailure) {
  OracleHarness h;
  h.spec.faults.push_back(NodeFailureFault(2));
  h.injected = {true};
  // Real flow: fail the node, let clock monitoring detect and agreement
  // confirm. The victim is dead AND confirmed: nothing to report.
  flash::FaultInjector injector(h.ts.machine.get(), 1);
  injector.ScheduleNodeFailure(2, 25 * kMillisecond);
  h.ts.machine->events().RunUntil(300 * kMillisecond);
  ASSERT_FALSE(h.ts.cell(2).alive());
  ASSERT_TRUE(h.ts.hive->CellConfirmedFailed(2));
  std::vector<OracleViolation> violations;
  CheckContainmentAndDetection(h.Input(), &violations);
  EXPECT_TRUE(violations.empty()) << Render(violations);
}

TEST(RecoveryBarriersOracle, FiresOnLingeringInRecoveryFlag) {
  OracleHarness h;
  h.spec.faults.push_back(NodeFailureFault(2));
  h.injected = {true};
  flash::FaultInjector injector(h.ts.machine.get(), 1);
  injector.ScheduleNodeFailure(2, 25 * kMillisecond);
  h.ts.machine->events().RunUntil(300 * kMillisecond);
  ASSERT_GE(h.ts.hive->recovery().recoveries_run(), 1);
  // A survivor stuck in recovery at scenario end: barrier 2 never released it.
  h.ts.cell(0).set_in_recovery(true);
  std::vector<OracleViolation> violations;
  CheckRecoveryBarriers(h.Input(), &violations);
  EXPECT_TRUE(Fired(violations, "recovery-barriers")) << Render(violations);
}

TEST(RecoveryBarriersOracle, SilentAfterCleanRecovery) {
  OracleHarness h;
  h.spec.faults.push_back(NodeFailureFault(2));
  h.injected = {true};
  flash::FaultInjector injector(h.ts.machine.get(), 1);
  injector.ScheduleNodeFailure(2, 25 * kMillisecond);
  h.ts.machine->events().RunUntil(300 * kMillisecond);
  ASSERT_GE(h.ts.hive->recovery().recoveries_run(), 1);
  std::vector<OracleViolation> violations;
  CheckRecoveryBarriers(h.Input(), &violations);
  EXPECT_TRUE(violations.empty()) << Render(violations);
}

TEST(FirewallInvariantsOracle, FiresOnVectorKernelMismatch) {
  OracleHarness h;
  // Open the hardware firewall for another cell's CPU on one of cell 0's
  // pages without any kernel-side grant: the audit must see the extra bit.
  Cell& owner = h.ts.cell(0);
  flash::PhysMem& mem = h.ts.machine->mem();
  const hive::Pfn pfn = mem.PfnOfAddr(owner.mem_base());
  const int owner_cpu = h.ts.machine->FirstCpuOfNode(owner.first_node());
  const int rogue_cpu = h.ts.machine->FirstCpuOfNode(h.ts.cell(2).first_node());
  h.ts.machine->firewall().GrantCpus(pfn, 1ull << rogue_cpu, owner_cpu);
  std::vector<OracleViolation> violations;
  CheckFirewallInvariants(h.Input(), &violations);
  EXPECT_TRUE(Fired(violations, "firewall-invariants")) << Render(violations);
}

TEST(FirewallInvariantsOracle, SilentOnCleanBoot) {
  OracleHarness h;
  std::vector<OracleViolation> violations;
  CheckFirewallInvariants(h.Input(), &violations);
  EXPECT_TRUE(violations.empty()) << Render(violations);
}

TEST(NoStaleExportsOracle, FiresOnExportToFailedCell) {
  OracleHarness h;
  // Populate cell 0's pfdat table with a real file page, then mark it
  // exported to cell 2 and kill cell 2 without running recovery scrubbing.
  Cell& owner = h.ts.cell(0);
  Ctx ctx = owner.MakeCtx();
  ASSERT_TRUE(owner.fs().Create(ctx, "/stale", workloads::PatternData(5, 4096)).ok());
  auto handle = owner.fs().Open(ctx, "/stale");
  ASSERT_TRUE(handle.ok());
  auto page = owner.fs().GetPage(ctx, *handle, 0, /*want_write=*/false,
                                 hive::FileSystem::AccessPath::kSyscall);
  ASSERT_TRUE(page.ok());
  (*page)->exported_to |= 1ull << 2;
  h.ts.cell(2).Panic("victim");
  std::vector<OracleViolation> violations;
  CheckNoStaleExports(h.Input(), &violations);
  EXPECT_TRUE(Fired(violations, "no-stale-exports")) << Render(violations);
}

TEST(NoStaleExportsOracle, SilentWithoutStaleState) {
  OracleHarness h;
  h.ts.cell(2).Panic("victim");
  std::vector<OracleViolation> violations;
  CheckNoStaleExports(h.Input(), &violations);
  EXPECT_TRUE(violations.empty()) << Render(violations);
}

// Builds one canary on cell 0 with a cross-cell handle held by cell 1,
// mirroring the runner's SetUpCanaries (minus the warming read, so the
// reader has no cached copy and must pull the home cell's bytes).
CanaryState OneCanary(OracleHarness& h, uint64_t pattern_seed) {
  CanaryState canaries;
  canaries.cells.resize(1);
  CanaryState::PerCell& canary = canaries.cells[0];
  canary.path = "/canary-0";
  canary.pattern_seed = pattern_seed;
  canary.size = 8192;
  Cell& owner = h.ts.cell(0);
  Ctx octx = owner.MakeCtx();
  EXPECT_TRUE(owner.fs()
                  .Create(octx, canary.path,
                          workloads::PatternData(pattern_seed, canary.size))
                  .ok());
  Cell& reader = h.ts.cell(1);
  Ctx rctx = reader.MakeCtx();
  auto handle = reader.fs().Open(rctx, canary.path);
  EXPECT_TRUE(handle.ok());
  canary.cross_handle = *handle;
  canary.cross_reader = 1;
  canary.valid = true;
  return canaries;
}

TEST(GenerationConsistencyOracle, FiresOnCorruptDataServedAsFresh) {
  OracleHarness h;
  h.canaries = OneCanary(h, 0xC0FFEE);
  // Scribble the canary page in the home cell's page cache through the home
  // cell's own CPU (its own memory: no firewall involvement). No generation
  // bump happens, so the pre-fault handle serves the corrupt bytes as fresh.
  Cell& owner = h.ts.cell(0);
  Ctx ctx = owner.MakeCtx();
  auto handle = owner.fs().Open(ctx, "/canary-0");
  ASSERT_TRUE(handle.ok());
  auto page = owner.fs().GetPage(ctx, *handle, 0, /*want_write=*/false,
                                 hive::FileSystem::AccessPath::kSyscall);
  ASSERT_TRUE(page.ok());
  const std::vector<uint8_t> garbage(32, 0xEE);
  h.ts.machine->mem().Write(h.ts.machine->FirstCpuOfNode(owner.first_node()),
                            (*page)->frame + 64, garbage);
  std::vector<OracleViolation> violations;
  CheckCanaries(h.Input(), &violations);
  EXPECT_TRUE(Fired(violations, "generation-consistency")) << Render(violations);
}

TEST(GenerationConsistencyOracle, SilentOnIntactCanary) {
  OracleHarness h;
  h.canaries = OneCanary(h, 0xC0FFEE);
  std::vector<OracleViolation> violations;
  CheckCanaries(h.Input(), &violations);
  EXPECT_TRUE(violations.empty()) << Render(violations);
}

TEST(SurvivorsFunctionalOracle, FiresWhenSurvivorsCannotShareFiles) {
  OracleHarness h;
  // The probe creates a file on the first live cell and cross-reads it from
  // the last. With cell 0 stuck in cell 3's quarantine (a quarantine that
  // outlived whatever raised it), the cross-cell open fails fast: two
  // nominally healthy survivors that cannot share files.
  Cell& reader = h.ts.cell(3);
  Ctx ctx = reader.MakeCtx();
  reader.rpc().QuarantinePeer(ctx, /*peer=*/0);
  std::vector<OracleViolation> violations;
  CheckSurvivorsFunctional(h.Input(), &violations);
  EXPECT_TRUE(Fired(violations, "survivors-functional")) << Render(violations);
}

TEST(SurvivorsFunctionalOracle, SilentOnHealthyHive) {
  OracleHarness h;
  std::vector<OracleViolation> violations;
  CheckSurvivorsFunctional(h.Input(), &violations);
  EXPECT_TRUE(violations.empty()) << Render(violations);
}

TEST(OutputIntegrityOracle, FiresOnCorruptOutputs) {
  OracleHarness h;
  h.corrupt_outputs = 2;
  std::vector<OracleViolation> violations;
  CheckOutputs(h.Input(), &violations);
  EXPECT_TRUE(Fired(violations, "output-integrity")) << Render(violations);
}

TEST(OutputIntegrityOracle, SilentOnCleanOrUnvalidatedOutputs) {
  OracleHarness h;
  h.corrupt_outputs = 0;
  std::vector<OracleViolation> violations;
  CheckOutputs(h.Input(), &violations);
  EXPECT_TRUE(violations.empty()) << Render(violations);
  h.corrupt_outputs = -1;  // Not validated: also not a violation.
  violations.clear();
  CheckOutputs(h.Input(), &violations);
  EXPECT_TRUE(violations.empty()) << Render(violations);
}

TEST(RpcAtMostOnceOracle, FiresOnReExecutedRequest) {
  OracleHarness h;
  // Real replay-cache path: with suppression off, serving the same sequence
  // number twice re-executes a non-idempotent handler and bumps the counter.
  Cell& server = h.ts.cell(1);
  server.rpc().set_duplicate_suppression(false);
  Ctx ctx = server.MakeCtx();
  hive::RpcArgs args;
  hive::RpcReply reply;
  (void)server.rpc().ServeSequenced(ctx, /*client=*/0, /*seq=*/42,
                                    hive::MsgType::kBorrowFrames, args, &reply);
  (void)server.rpc().ServeSequenced(ctx, /*client=*/0, /*seq=*/42,
                                    hive::MsgType::kBorrowFrames, args, &reply);
  ASSERT_GT(server.rpc().stats().at_most_once_violations, 0u);
  std::vector<OracleViolation> violations;
  CheckRpcAtMostOnce(h.Input(), &violations);
  EXPECT_TRUE(Fired(violations, "rpc-at-most-once")) << Render(violations);
}

TEST(RpcAtMostOnceOracle, SilentWhenTheReplayCacheSuppresses) {
  OracleHarness h;
  // Same duplicate delivery, suppression on (the default): the cached reply
  // is returned and no violation is counted.
  Cell& server = h.ts.cell(1);
  Ctx ctx = server.MakeCtx();
  hive::RpcArgs args;
  hive::RpcReply reply;
  (void)server.rpc().ServeSequenced(ctx, /*client=*/0, /*seq=*/42,
                                    hive::MsgType::kBorrowFrames, args, &reply);
  (void)server.rpc().ServeSequenced(ctx, /*client=*/0, /*seq=*/42,
                                    hive::MsgType::kBorrowFrames, args, &reply);
  EXPECT_GT(server.rpc().stats().duplicates_suppressed, 0u);
  std::vector<OracleViolation> violations;
  CheckRpcAtMostOnce(h.Input(), &violations);
  EXPECT_TRUE(violations.empty()) << Render(violations);
}

TEST(RpcNoLostAckOracle, FiresWhenAcksExceedExecutions) {
  OracleHarness h;
  // A client believes 5 more mutations were acknowledged than any server
  // executed: lost writes.
  h.ts.cell(0).rpc().mutable_stats_for_test().acked_mutations += 5;
  std::vector<OracleViolation> violations;
  CheckRpcNoLostAck(h.Input(), &violations);
  EXPECT_TRUE(Fired(violations, "rpc-no-lost-ack")) << Render(violations);
}

TEST(RpcNoLostAckOracle, SilentWhenEveryAckWasExecuted) {
  OracleHarness h;
  h.ts.cell(0).rpc().mutable_stats_for_test().acked_mutations += 5;
  h.ts.cell(1).rpc().mutable_stats_for_test().executed_mutations += 5;
  std::vector<OracleViolation> violations;
  CheckRpcNoLostAck(h.Input(), &violations);
  EXPECT_TRUE(violations.empty()) << Render(violations);
}

TEST(RpcLivenessOracle, FiresWhenMessageFaultsAloneKillACell) {
  OracleHarness h;
  FaultSpec fault;
  fault.kind = FaultKind::kMessageFaults;
  fault.victim = -1;
  fault.target = -1;
  fault.inject_at = 10 * kMillisecond;
  fault.drop_pm = 40;
  fault.duration = 100 * kMillisecond;
  h.spec.faults.push_back(fault);
  h.injected = {true};
  h.ts.cell(2).Panic("retry exhaustion mishandled");
  std::vector<OracleViolation> violations;
  CheckRpcLiveness(h.Input(), &violations);
  EXPECT_TRUE(Fired(violations, "rpc-liveness")) << Render(violations);
}

TEST(RpcLivenessOracle, SilentWhenEveryCellRidesOutTheFaults) {
  OracleHarness h;
  FaultSpec fault;
  fault.kind = FaultKind::kMessageFaults;
  fault.victim = -1;
  fault.target = -1;
  fault.inject_at = 10 * kMillisecond;
  fault.drop_pm = 40;
  fault.duration = 100 * kMillisecond;
  h.spec.faults.push_back(fault);
  h.injected = {true};
  std::vector<OracleViolation> violations;
  CheckRpcLiveness(h.Input(), &violations);
  EXPECT_TRUE(violations.empty()) << Render(violations);
}

TEST(QuarantineImpliesHintOracle, FiresOnSilentQuarantine) {
  OracleHarness h;
  // A quarantine was entered but the detector never raised any hint: the
  // escalation happened without its mandatory preceding judgement.
  h.ts.cell(0).rpc().mutable_stats_for_test().quarantines_entered += 1;
  ASSERT_EQ(h.ts.cell(0).detector().hints_raised(), 0u);
  std::vector<OracleViolation> violations;
  CheckQuarantineImpliesHint(h.Input(), &violations);
  EXPECT_TRUE(Fired(violations, "quarantine-implies-hint")) << Render(violations);
}

TEST(QuarantineImpliesHintOracle, SilentWhenAHintPrecededTheQuarantine) {
  OracleHarness h;
  Cell& cell = h.ts.cell(0);
  cell.rpc().mutable_stats_for_test().quarantines_entered += 1;
  Ctx ctx = cell.MakeCtx();
  cell.detector().RaiseHint(ctx, /*suspect=*/1, hive::HintReason::kRpcTimeout);
  ASSERT_GT(cell.detector().hints_raised(), 0u);
  std::vector<OracleViolation> violations;
  CheckQuarantineImpliesHint(h.Input(), &violations);
  EXPECT_TRUE(violations.empty()) << Render(violations);
}

FaultSpec RogueFault(CellId victim) {
  FaultSpec fault;
  fault.kind = FaultKind::kRogueCell;
  fault.victim = victim;
  fault.target = (victim + 1) % 4;
  fault.inject_at = 25 * kMillisecond;
  fault.rogue_axes = kRogueClockFreeze;
  return fault;
}

TEST(RogueDetectedOracle, FiresWhenTheRogueIsNeverExcised) {
  OracleHarness h;
  h.spec.rogue_only = true;
  h.spec.faults.push_back(RogueFault(2));
  h.injected = {true};
  ASSERT_FALSE(h.ts.hive->CellConfirmedFailed(2));
  std::vector<OracleViolation> violations;
  CheckRogueDetection(h.Input(), &violations);
  EXPECT_TRUE(Fired(violations, "rogue-detected")) << Render(violations);
}

TEST(RogueDetectedOracle, SilentWhenTheRogueNeverActivated) {
  OracleHarness h;
  h.spec.rogue_only = true;
  h.spec.faults.push_back(RogueFault(2));
  h.injected = {false};
  std::vector<OracleViolation> violations;
  CheckRogueDetection(h.Input(), &violations);
  EXPECT_TRUE(violations.empty()) << Render(violations);
}

TEST(NoSurvivorHangOracle, FiresOnUnboundedTraversal) {
  OracleHarness h;
  h.spec.rogue_only = true;
  // A survivor chased a remote chain for 1000 hops: the hop bound failed.
  h.ts.cell(0).detector().NoteTraversal(1000);
  std::vector<OracleViolation> violations;
  CheckNoSurvivorHang(h.Input(), &violations);
  EXPECT_TRUE(Fired(violations, "no-survivor-hang")) << Render(violations);
}

TEST(NoSurvivorHangOracle, SilentOnBoundedTraversal) {
  OracleHarness h;
  h.spec.rogue_only = true;
  h.ts.cell(0).detector().NoteTraversal(8);
  std::vector<OracleViolation> violations;
  CheckNoSurvivorHang(h.Input(), &violations);
  EXPECT_TRUE(violations.empty()) << Render(violations);
}

TEST(NoFalseExcisionOracle, FiresWhenTheBaselineExcisesACell) {
  OracleHarness h;
  h.spec.healthy_baseline = true;
  // The baseline spec carries zero faults, yet agreement confirmed a cell
  // failed (here: the node really died, but per the spec's view the hive is
  // healthy -- exactly the false-excision evidence the sweep looks for).
  flash::FaultInjector injector(h.ts.machine.get(), 1);
  injector.ScheduleNodeFailure(2, 25 * kMillisecond);
  h.ts.machine->events().RunUntil(300 * kMillisecond);
  ASSERT_TRUE(h.ts.hive->CellConfirmedFailed(2));
  std::vector<OracleViolation> violations;
  CheckNoFalseExcision(h.Input(), &violations);
  EXPECT_TRUE(Fired(violations, "no-false-excision")) << Render(violations);
}

TEST(NoFalseExcisionOracle, SilentWhenNothingWasExcised) {
  OracleHarness h;
  h.spec.healthy_baseline = true;
  h.ts.machine->events().RunUntil(300 * kMillisecond);
  std::vector<OracleViolation> violations;
  CheckNoFalseExcision(h.Input(), &violations);
  EXPECT_TRUE(violations.empty()) << Render(violations);
}

TEST(TraceConsistencyOracle, FiresOnUnbalancedRecoveryEvents) {
  OracleHarness h;
  h.ts.cell(0).trace().Record(0, hive::TraceEvent::kEnterRecovery, 0);
  std::vector<OracleViolation> violations;
  CheckTraceConsistency(h.Input(), &violations);
  EXPECT_TRUE(Fired(violations, "trace-consistency")) << Render(violations);
}

TEST(TraceConsistencyOracle, SilentOnBalancedRecoveryEvents) {
  OracleHarness h;
  h.ts.cell(0).trace().Record(0, hive::TraceEvent::kEnterRecovery, 0);
  h.ts.cell(0).trace().Record(1 * kMillisecond, hive::TraceEvent::kExitRecovery, 0);
  std::vector<OracleViolation> violations;
  CheckTraceConsistency(h.Input(), &violations);
  EXPECT_TRUE(violations.empty()) << Render(violations);
}

// Options for a hive that salvages discard candidates during recovery; with
// verify=false both adoption proofs are skipped (the seeded salvage bug).
hive::HiveOptions SalvageOptions(bool verify) {
  hive::HiveOptions options;
  options.salvage_pages = true;
  options.salvage_verify = verify;
  return options;
}

// Stages the canary's first page as a salvage candidate: the client imports
// it writable (export record + checksum baseline at the home), then the
// client's node fails so recovery judges the page. Returns the frame.
hive::PhysAddr StageCanarySalvageCandidate(OracleHarness& h, CellId client_id) {
  Cell& client = h.ts.cell(client_id);
  Ctx cctx = client.MakeCtx();
  auto handle = client.fs().Open(cctx, "/canary-0");
  EXPECT_TRUE(handle.ok());
  auto page = client.fs().GetPage(cctx, *handle, 0, /*want_write=*/true,
                                  hive::FileSystem::AccessPath::kSyscall);
  EXPECT_TRUE(page.ok());
  const hive::PhysAddr frame = (*page)->frame;
  client.fs().ReleasePage(cctx, *page);
  return frame;
}

TEST(NoCorruptAdoptionOracle, FiresOnBlindAdoptionOfScribbledPage) {
  // Salvage with both proofs disabled and the firewall off: a wild write
  // lands in the exported canary page, the writer dies, and recovery adopts
  // the corrupt page blind.
  OracleHarness h(SalvageOptions(/*verify=*/false));
  h.ts.machine->firewall().set_checking_enabled(false);
  h.canaries = OneCanary(h, 0xC0FFEE);
  const hive::PhysAddr frame = StageCanarySalvageCandidate(h, /*client_id=*/2);
  const std::vector<uint8_t> garbage(48, 0xEE);
  h.ts.machine->mem().Write(h.ts.cell(2).FirstCpu(), frame + 64, garbage);
  flash::FaultInjector injector(h.ts.machine.get(), 1);
  injector.ScheduleNodeFailure(2, h.ts.machine->Now() + kMillisecond);
  h.ts.machine->events().RunUntil(h.ts.machine->Now() + 300 * kMillisecond);
  ASSERT_GE(h.ts.hive->recovery().salvage_log().size(), 1u);
  std::vector<OracleViolation> violations;
  CheckNoCorruptAdoption(h.Input(), &violations);
  EXPECT_TRUE(Fired(violations, "no-corrupt-adoption")) << Render(violations);
}

TEST(NoCorruptAdoptionOracle, SilentOnVerifiedCleanSalvage) {
  // Checked salvage of an untouched write-export: the content checksum
  // proves the dead client never wrote, so adoption is clean.
  OracleHarness h(SalvageOptions(/*verify=*/true));
  h.canaries = OneCanary(h, 0xC0FFEE);
  StageCanarySalvageCandidate(h, /*client_id=*/2);
  flash::FaultInjector injector(h.ts.machine.get(), 1);
  injector.ScheduleNodeFailure(2, h.ts.machine->Now() + kMillisecond);
  h.ts.machine->events().RunUntil(h.ts.machine->Now() + 300 * kMillisecond);
  ASSERT_GE(h.ts.hive->recovery().salvage_log().size(), 1u);
  std::vector<OracleViolation> violations;
  CheckNoCorruptAdoption(h.Input(), &violations);
  EXPECT_TRUE(violations.empty()) << Render(violations);
}

TEST(ReintegrationConvergesOracle, FiresOnReintegrationThatNeverConverged) {
  OracleHarness h;
  // A reintegration record stuck with no terminal state long past the
  // bound: the rebooted cell never became a full member.
  hive::ReintegrationRecord record;
  record.cell = 2;
  record.started_at = 0;
  h.ts.hive->recovery().mutable_reintegration_log_for_test().push_back(record);
  h.ts.machine->events().RunUntil(400 * kMillisecond);
  std::vector<OracleViolation> violations;
  CheckReintegrationConverges(h.Input(), &violations);
  EXPECT_TRUE(Fired(violations, "reintegration-converges")) << Render(violations);
}

TEST(ReintegrationConvergesOracle, SilentOnLiveRejoinThatConverged) {
  hive::HiveOptions options;
  options.live_rejoin = true;
  options.auto_reintegrate = true;
  OracleHarness h(options);
  flash::FaultInjector injector(h.ts.machine.get(), 1);
  injector.ScheduleNodeFailure(2, 25 * kMillisecond);
  h.ts.machine->events().RunUntil(1 * hive::kSecond);
  ASSERT_GE(h.ts.hive->recovery().reintegration_log().size(), 1u);
  EXPECT_GT(h.ts.hive->recovery().reintegration_log()[0].done_at, 0);
  std::vector<OracleViolation> violations;
  CheckReintegrationConverges(h.Input(), &violations);
  EXPECT_TRUE(violations.empty()) << Render(violations);
}

TEST(SalvageContainmentOracle, FiresWhenAWildWrittenFrameWasSalvaged) {
  OracleHarness h;
  hive::SalvageRecord record;
  record.owner = 0;
  record.frame = 0x2400000;
  h.ts.hive->recovery().mutable_salvage_log_for_test().push_back(record);
  h.wild_write_frames = {0x2400000};
  std::vector<OracleViolation> violations;
  CheckSalvageContainment(h.Input(), &violations);
  EXPECT_TRUE(Fired(violations, "salvage-containment")) << Render(violations);
}

TEST(SalvageContainmentOracle, SilentWhenSalvagesAvoidWildWrittenFrames) {
  // A real checked salvage of a clean page, plus a wild write that landed in
  // some unrelated frame: containment held.
  OracleHarness h(SalvageOptions(/*verify=*/true));
  h.canaries = OneCanary(h, 0xC0FFEE);
  const hive::PhysAddr frame = StageCanarySalvageCandidate(h, /*client_id=*/2);
  flash::FaultInjector injector(h.ts.machine.get(), 1);
  injector.ScheduleNodeFailure(2, h.ts.machine->Now() + kMillisecond);
  h.ts.machine->events().RunUntil(h.ts.machine->Now() + 300 * kMillisecond);
  ASSERT_GE(h.ts.hive->recovery().salvage_log().size(), 1u);
  h.wild_write_frames = {frame + 0x100000};
  std::vector<OracleViolation> violations;
  CheckSalvageContainment(h.Input(), &violations);
  EXPECT_TRUE(violations.empty()) << Render(violations);
}

}  // namespace
}  // namespace campaign
