#include "src/core/rpc.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/core/cell.h"
#include "src/core/failure_detection.h"
#include "src/flash/fault_injector.h"
#include "tests/test_util.h"

namespace hive {
namespace {

class RpcTest : public ::testing::Test {
 protected:
  RpcTest() : ts_(hivetest::BootHive(4)) {}

  // Installs a message-fault plan with the given per-mille rates over
  // [0, end) on every route.
  flash::MessageFaultModel* InstallPlan(uint32_t drop_pm, uint32_t dup_pm,
                                        uint32_t corrupt_pm, Time end,
                                        uint32_t delay_pm = 0) {
    flash::Machine& machine = *ts_.machine;
    if (machine.message_faults() == nullptr) {
      machine.EnableMessageFaults(7);
    }
    flash::MessageFaultPlan plan;
    plan.start = 0;
    plan.end = end;
    plan.drop_pm = drop_pm;
    plan.dup_pm = dup_pm;
    plan.delay_pm = delay_pm;
    plan.corrupt_pm = corrupt_pm;
    machine.message_faults()->AddPlan(plan);
    return machine.message_faults();
  }

  hivetest::TestSystem ts_;
};

TEST_F(RpcTest, NullRpcLatencyMatchesPaper) {
  // Section 6: minimum end-to-end null RPC latency is 7.2 us.
  Cell& client = ts_.cell(0);
  Ctx ctx = client.MakeCtx();
  RpcArgs args;
  RpcReply reply;
  ASSERT_TRUE(client.rpc().Call(ctx, 1, MsgType::kNull, args, &reply).ok());
  EXPECT_EQ(ctx.elapsed, 7200);
}

TEST_F(RpcTest, FatStubRpcIsAbout9_6Us) {
  Cell& client = ts_.cell(0);
  Ctx ctx = client.MakeCtx();
  RpcArgs args;
  RpcReply reply;
  CallOptions options;
  options.fat_stub = true;
  ASSERT_TRUE(client.rpc().Call(ctx, 1, MsgType::kNull, args, &reply, options).ok());
  EXPECT_EQ(ctx.elapsed, 9600);
}

TEST_F(RpcTest, QueuedNullRpcIs34Us) {
  Cell& client = ts_.cell(0);
  Ctx ctx = client.MakeCtx();
  RpcArgs args;
  RpcReply reply;
  ASSERT_TRUE(client.rpc().Call(ctx, 1, MsgType::kNullQueued, args, &reply).ok());
  // Initial interrupt-level RPC + queued service + completion: ~34 us.
  EXPECT_GE(ctx.elapsed, 26000);
  EXPECT_LE(ctx.elapsed, 36000);
}

TEST_F(RpcTest, CallToDeadCellTimesOutWithSpinCost) {
  ts_.machine->FailNode(2);
  // Run one tick so nothing else interferes; the RPC itself detects death.
  Cell& client = ts_.cell(0);
  Ctx ctx = client.MakeCtx();
  RpcArgs args;
  RpcReply reply;
  base::Status status = client.rpc().Call(ctx, 2, MsgType::kNull, args, &reply);
  EXPECT_EQ(status.code(), base::StatusCode::kTimeout);
  // 50 us client spin + context switch.
  EXPECT_GE(ctx.elapsed, 60000);
  EXPECT_EQ(client.rpc().stats().timeouts, 1u);
}

TEST_F(RpcTest, TimeoutRaisesFailureHintAndTriggersRecovery) {
  ts_.machine->FailNode(2);
  Cell& client = ts_.cell(0);
  Ctx ctx = client.MakeCtx();
  RpcArgs args;
  RpcReply reply;
  (void)client.rpc().Call(ctx, 2, MsgType::kNull, args, &reply);
  // The hint triggered agreement (oracle) and recovery.
  EXPECT_EQ(ts_.hive->recovery().recoveries_run(), 1);
  EXPECT_FALSE(ts_.cell(2).alive());
  EXPECT_TRUE(ts_.cell(0).alive());
  EXPECT_TRUE(ts_.cell(1).alive());
  EXPECT_TRUE(ts_.cell(3).alive());
}

TEST_F(RpcTest, IntracellCallSkipsSips) {
  Cell& client = ts_.cell(0);
  Ctx ctx = client.MakeCtx();
  RpcArgs args;
  RpcReply reply;
  ASSERT_TRUE(client.rpc().Call(ctx, 0, MsgType::kNull, args, &reply).ok());
  EXPECT_LT(ctx.elapsed, 7200);
}

TEST_F(RpcTest, UnknownMessageTypeIsNotFound) {
  Cell& client = ts_.cell(0);
  Ctx ctx = client.MakeCtx();
  RpcArgs args;
  RpcReply reply;
  EXPECT_EQ(client.rpc().Call(ctx, 1, MsgType::kForkRemote, args, &reply).code(),
            base::StatusCode::kNotFound);
}

TEST_F(RpcTest, ServerOccupancyAdvances) {
  Cell& client = ts_.cell(0);
  const int server_cpu = ts_.cell(1).FirstCpu();
  const Time before = ts_.machine->cpu(server_cpu).free_at;
  Ctx ctx = client.MakeCtx();
  RpcArgs args;
  RpcReply reply;
  ASSERT_TRUE(client.rpc().Call(ctx, 1, MsgType::kNull, args, &reply).ok());
  EXPECT_GT(ts_.machine->cpu(server_cpu).free_at, before);
}

TEST_F(RpcTest, PingHandlerRegistered) {
  Cell& client = ts_.cell(0);
  Ctx ctx = client.MakeCtx();
  RpcArgs args;
  RpcReply reply;
  EXPECT_TRUE(client.rpc().Call(ctx, 3, MsgType::kPing, args, &reply).ok());
}

TEST_F(RpcTest, TrappingHandlerPanicsTheServerAndTheClientTimesOut) {
  // Cell 1's null handler stores into cell 2's memory without a firewall
  // grant. The trap is the serving kernel's: cell 1 panics, the client sees
  // a timeout and lives on, and so does cell 2.
  Cell& server = ts_.cell(1);
  const PhysAddr foreign = ts_.cell(2).mem_base() + 4096;
  server.rpc().Register(
      MsgType::kNull, [this, foreign](Ctx& server_ctx, const RpcArgs&, RpcReply*) {
        ts_.machine->mem().WriteValue<uint64_t>(server_ctx.cpu, foreign, 0xBAD);
        return base::OkStatus();
      });
  Cell& client = ts_.cell(0);
  Ctx ctx = client.MakeCtx();
  RpcArgs args;
  RpcReply reply;
  EXPECT_EQ(client.rpc().Call(ctx, 1, MsgType::kNull, args, &reply).code(),
            base::StatusCode::kTimeout);
  EXPECT_EQ(server.panic_reason(),
            "bus error during RPC service: bus error: firewall write denied");
  for (CellId c : {0, 2, 3}) {
    EXPECT_TRUE(ts_.cell(c).alive()) << c;
    EXPECT_EQ(ts_.cell(c).panic_reason(), "") << c;
  }
}

TEST_F(RpcTest, DeadCellHintedOncePerAgreementWindow) {
  // Regression: repeated calls (or retries) against a dead peer must raise
  // exactly one failure-detector hint per agreement window, not one per call.
  ts_.machine->FailNode(2);
  Cell& client = ts_.cell(0);
  RpcArgs args;
  RpcReply reply;
  for (int i = 0; i < 3; ++i) {
    Ctx ctx = client.MakeCtx();
    EXPECT_EQ(client.rpc().Call(ctx, 2, MsgType::kNull, args, &reply).code(),
              base::StatusCode::kTimeout);
  }
  EXPECT_EQ(client.detector().hints_raised(), 1u);
  EXPECT_EQ(client.rpc().stats().timeouts, 3u);
  // The one hint was enough: agreement confirmed the death and recovery ran.
  EXPECT_EQ(ts_.hive->recovery().recoveries_run(), 1);
}

TEST_F(RpcTest, RetryRecoversFromLostRequest) {
  // 100% drop, but only during a window that covers the first attempt; the
  // first backoff (>= 100 us) lands the retry after the window closes.
  InstallPlan(/*drop_pm=*/1000, /*dup_pm=*/0, /*corrupt_pm=*/0,
              /*end=*/ts_.machine->Now() + 120 * kMicrosecond);
  Cell& client = ts_.cell(0);
  Ctx ctx = client.MakeCtx();
  RpcArgs args;
  RpcReply reply;
  ASSERT_TRUE(client.rpc().Call(ctx, 1, MsgType::kNull, args, &reply).ok());
  EXPECT_EQ(client.rpc().stats().retries, 1u);
  EXPECT_EQ(client.rpc().stats().timeouts, 0u);
  // The lost attempt cost a spin + context switch + backoff on top of the
  // 7.2 us happy path.
  EXPECT_GT(ctx.elapsed, 7200 + 100 * kMicrosecond);
  EXPECT_EQ(client.detector().hints_raised(), 0u);
}

TEST_F(RpcTest, DelayedHopsEachPayOneDetour) {
  // Every hop delayed, with no delay bound: the model draws a 1 ns delay,
  // and each of the two hops takes the 500 ns detour floor instead.
  InstallPlan(/*drop_pm=*/0, /*dup_pm=*/0, /*corrupt_pm=*/0,
              /*end=*/ts_.machine->Now() + kSecond, /*delay_pm=*/1000);
  Cell& client = ts_.cell(0);
  Ctx ctx = client.MakeCtx();
  RpcArgs args;
  RpcReply reply;
  ASSERT_TRUE(client.rpc().Call(ctx, 1, MsgType::kNull, args, &reply).ok());
  EXPECT_EQ(ctx.elapsed, 7200 + 2 * 500);
  EXPECT_EQ(ts_.machine->message_faults()->stats().delayed, 2u);
  EXPECT_EQ(client.rpc().stats().retries, 0u);
}

TEST_F(RpcTest, DetectedCorruptionIsRetriedLikeLoss) {
  InstallPlan(/*drop_pm=*/0, /*dup_pm=*/0, /*corrupt_pm=*/1000,
              /*end=*/ts_.machine->Now() + 120 * kMicrosecond);
  Cell& client = ts_.cell(0);
  Ctx ctx = client.MakeCtx();
  RpcArgs args;
  RpcReply reply;
  ASSERT_TRUE(client.rpc().Call(ctx, 1, MsgType::kNull, args, &reply).ok());
  EXPECT_GE(client.rpc().stats().corrupt_lost, 1u);
  EXPECT_EQ(client.rpc().stats().retries, 1u);
}

TEST_F(RpcTest, DuplicateMutationSuppressedByReplayCache) {
  // Every hop duplicated: the server sees the borrow request twice but must
  // execute it exactly once.
  InstallPlan(/*drop_pm=*/0, /*dup_pm=*/1000, /*corrupt_pm=*/0,
              /*end=*/ts_.machine->Now() + kSecond);
  Cell& client = ts_.cell(0);
  Cell& server = ts_.cell(1);
  Ctx ctx = client.MakeCtx();
  RpcArgs args;
  args.w[0] = 0;  // Borrowing client.
  args.w[1] = 1;  // One frame.
  RpcReply reply;
  ASSERT_TRUE(client.rpc().Call(ctx, 1, MsgType::kBorrowFrames, args, &reply).ok());
  EXPECT_EQ(reply.w[0], 1u);
  EXPECT_GE(server.rpc().stats().duplicates_suppressed, 1u);
  EXPECT_EQ(server.rpc().stats().executed_mutations, 1u);
  EXPECT_EQ(server.rpc().stats().at_most_once_violations, 0u);
  EXPECT_EQ(client.rpc().stats().acked_mutations, 1u);
}

TEST_F(RpcTest, DisablingSuppressionReExecutesAndCountsViolations) {
  InstallPlan(/*drop_pm=*/0, /*dup_pm=*/1000, /*corrupt_pm=*/0,
              /*end=*/ts_.machine->Now() + kSecond);
  Cell& client = ts_.cell(0);
  Cell& server = ts_.cell(1);
  server.rpc().set_duplicate_suppression(false);
  Ctx ctx = client.MakeCtx();
  RpcArgs args;
  args.w[0] = 0;
  args.w[1] = 1;
  RpcReply reply;
  ASSERT_TRUE(client.rpc().Call(ctx, 1, MsgType::kBorrowFrames, args, &reply).ok());
  // The duplicated request re-ran the non-idempotent handler.
  EXPECT_GE(server.rpc().stats().at_most_once_violations, 1u);
  EXPECT_GE(server.rpc().stats().executed_mutations, 2u);
  EXPECT_EQ(server.rpc().stats().duplicates_suppressed, 0u);
}

// Serves sequenced kNull requests from client cell 0 on cell 1, straight
// into ServeSequenced as one client's transport would; the handler echoes
// its marker argument and counts its runs.
class ReplayCacheTest : public RpcTest {
 protected:
  ReplayCacheTest() : server_(ts_.cell(1)), ctx_(server_.MakeCtx()) {
    server_.rpc().Register(
        MsgType::kNull, [runs = runs_](Ctx&, const RpcArgs& args, RpcReply* reply) {
          ++*runs;
          reply->w[0] = args.w[0];
          return base::OkStatus();
        });
  }

  // The reply's marker: `marker` if the handler ran, the first serving's if
  // the replay cache answered.
  uint64_t Serve(uint64_t seq, uint64_t marker, uint64_t epoch = 0) {
    RpcArgs args;
    args.w[0] = marker;
    RpcReply reply;
    EXPECT_TRUE(
        server_.rpc().ServeSequenced(ctx_, 0, seq, MsgType::kNull, args, &reply, epoch).ok());
    return reply.w[0];
  }

  Cell& server_;
  Ctx ctx_;
  std::shared_ptr<uint64_t> runs_ = std::make_shared<uint64_t>(0);
};

TEST_F(ReplayCacheTest, KeepsTheLast64SequenceNumbersServed) {
  for (uint64_t seq = 1; seq <= 100; ++seq) {
    ASSERT_EQ(Serve(seq, seq), seq);
  }
  ASSERT_EQ(*runs_, 100u);
  const uint64_t suppressed = server_.rpc().stats().duplicates_suppressed;

  // 37 is the oldest of the last 64: a replay of it is answered from cache.
  EXPECT_EQ(Serve(37, 9999), 37u);
  EXPECT_EQ(*runs_, 100u);
  EXPECT_EQ(server_.rpc().stats().duplicates_suppressed, suppressed + 1);
  // 36 was evicted: its replay re-runs the handler...
  EXPECT_EQ(Serve(36, 9999), 9999u);
  EXPECT_EQ(*runs_, 101u);
  // ...and does not evict a newer number in its place.
  EXPECT_EQ(Serve(100, 9999), 100u);
  EXPECT_EQ(Serve(37, 9999), 37u);
  EXPECT_EQ(*runs_, 101u);
}

TEST_F(ReplayCacheTest, EpochBumpAndForgetPeerEmptyIt) {
  for (uint64_t seq = 1; seq <= 10; ++seq) {
    ASSERT_EQ(Serve(seq, seq, /*epoch=*/1), seq);
  }
  EXPECT_EQ(Serve(10, 9999, 1), 10u);
  // The client rebooted and restarted its sequence numbers: its new call 10
  // must not be answered with the old incarnation's reply.
  EXPECT_EQ(Serve(10, 7777, 2), 7777u);
  EXPECT_EQ(Serve(10, 9999, 2), 7777u);
  EXPECT_EQ(*runs_, 11u);
  // A straggler from the old incarnation is refused outright.
  RpcArgs args;
  RpcReply reply;
  EXPECT_EQ(server_.rpc().ServeSequenced(ctx_, 0, 11, MsgType::kNull, args, &reply, 1),
            base::Unavailable());

  // Reintegration forgets the peer. Unversioned calls, so that only
  // ForgetPeer (not an epoch bump) can empty the cache.
  server_.rpc().ForgetPeer(0);
  EXPECT_EQ(Serve(20, 20), 20u);
  EXPECT_EQ(Serve(20, 9999), 20u);
  server_.rpc().ForgetPeer(0);
  EXPECT_EQ(Serve(20, 5555), 5555u);
  EXPECT_EQ(*runs_, 13u);
}

TEST_F(RpcTest, RetryExhaustionQuarantinesPeerAndFailsFast) {
  // A permanently lossy path to a healthy peer: the call burns all attempts,
  // hints once, and the vetoed accusation puts the peer on probation.
  InstallPlan(/*drop_pm=*/1000, /*dup_pm=*/0, /*corrupt_pm=*/0,
              /*end=*/ts_.machine->Now() + 10 * kSecond);
  Cell& client = ts_.cell(0);
  RpcArgs args;
  RpcReply reply;

  Ctx ctx = client.MakeCtx();
  EXPECT_EQ(client.rpc().Call(ctx, 1, MsgType::kNull, args, &reply).code(),
            base::StatusCode::kTimeout);
  EXPECT_EQ(client.rpc().stats().retries,
            static_cast<uint64_t>(kMaxRpcAttempts - 1));
  EXPECT_EQ(client.detector().hints_raised(), 1u);
  EXPECT_TRUE(ts_.cell(1).alive());  // Agreement refused to kill the peer.
  EXPECT_TRUE(client.rpc().quarantined(1));

  // While quarantined, ordinary traffic fails fast without burning retries.
  Ctx ctx2 = client.MakeCtx();
  EXPECT_EQ(client.rpc().Call(ctx2, 1, MsgType::kNull, args, &reply).code(),
            base::StatusCode::kUnavailable);
  EXPECT_GE(client.rpc().stats().quarantine_fail_fast, 1u);
  EXPECT_EQ(client.rpc().stats().retries,
            static_cast<uint64_t>(kMaxRpcAttempts - 1));
}

TEST_F(RpcTest, PingBypassesQuarantineAndProbationExpiryClearsIt) {
  flash::MessageFaultModel* model =
      InstallPlan(/*drop_pm=*/1000, /*dup_pm=*/0, /*corrupt_pm=*/0,
                  /*end=*/ts_.machine->Now() + 10 * kSecond);
  Cell& client = ts_.cell(0);
  RpcArgs args;
  RpcReply reply;
  Ctx ctx = client.MakeCtx();
  EXPECT_FALSE(client.rpc().Call(ctx, 1, MsgType::kNull, args, &reply).ok());
  ASSERT_TRUE(client.rpc().quarantined(1));

  // The path heals; agreement probes (kPing) bypass the quarantine gate and
  // measure the real path, while ordinary traffic still fails fast.
  model->ClearPlans();
  Ctx pctx = client.MakeCtx();
  EXPECT_TRUE(client.rpc().Call(pctx, 1, MsgType::kPing, args, &reply).ok());
  EXPECT_TRUE(client.rpc().quarantined(1));
  Ctx fctx = client.MakeCtx();
  EXPECT_EQ(client.rpc().Call(fctx, 1, MsgType::kNull, args, &reply).code(),
            base::StatusCode::kUnavailable);

  // After the probation window the next call un-quarantines automatically.
  ts_.machine->events().RunUntil(ts_.machine->Now() + kQuarantineProbationNs +
                                 10 * kMillisecond);
  Ctx cctx = client.MakeCtx();
  EXPECT_TRUE(client.rpc().Call(cctx, 1, MsgType::kNull, args, &reply).ok());
  EXPECT_FALSE(client.rpc().quarantined(1));
}

TEST_F(RpcTest, CallFaultChargesOnlyTheTable52Components) {
  // The page-fault profile of the transport loop charges the four client-side
  // components of paper table 5.2 (4.9 + 4.7 + 4.0 + 3.7 us) and nothing
  // else: their hardware term already holds the hops and the server's
  // dispatch. The standard profile charges stubs, two hops and dispatch.
  Cell& client = ts_.cell(0);
  RpcArgs args;
  RpcReply reply;
  FaultBreakdown breakdown;
  Ctx fctx = client.MakeCtx();
  fctx.fault_bd = &breakdown;
  ASSERT_TRUE(client.rpc().CallFault(fctx, 1, MsgType::kNull, args, &reply).ok());
  EXPECT_EQ(fctx.elapsed, 17300);
  EXPECT_EQ(breakdown.rpc_stub + breakdown.rpc_hw + breakdown.rpc_copy + breakdown.rpc_alloc,
            17300);

  Ctx ctx = client.MakeCtx();
  ASSERT_TRUE(client.rpc().Call(ctx, 1, MsgType::kNull, args, &reply).ok());
  EXPECT_EQ(ctx.elapsed, 7200);
}

TEST_F(RpcTest, CallFaultExhaustsRetriesQuarantinesAndFailsFast) {
  // Page-fault RPCs ride the same retry, hint and quarantine path as Call.
  InstallPlan(/*drop_pm=*/1000, /*dup_pm=*/0, /*corrupt_pm=*/0,
              /*end=*/ts_.machine->Now() + 10 * kSecond);
  Cell& client = ts_.cell(0);
  RpcArgs args;
  RpcReply reply;

  Ctx ctx = client.MakeCtx();
  EXPECT_EQ(client.rpc().CallFault(ctx, 1, MsgType::kNull, args, &reply).code(),
            base::StatusCode::kTimeout);
  EXPECT_EQ(client.rpc().stats().retries, static_cast<uint64_t>(kMaxRpcAttempts - 1));
  EXPECT_EQ(client.detector().hints_raised(), 1u);
  EXPECT_TRUE(ts_.cell(1).alive());
  EXPECT_TRUE(client.rpc().quarantined(1));

  Ctx ctx2 = client.MakeCtx();
  EXPECT_EQ(client.rpc().CallFault(ctx2, 1, MsgType::kNull, args, &reply).code(),
            base::StatusCode::kUnavailable);
  EXPECT_EQ(client.rpc().stats().quarantine_fail_fast, 1u);
  EXPECT_EQ(client.rpc().stats().retries, static_cast<uint64_t>(kMaxRpcAttempts - 1));
}

TEST_F(RpcTest, OnlyCallIsScreenedAgainstByzantinePeers) {
  // Pins the screening split: Call requests count toward the server's
  // babble window and a rogue-silent server drops them, while page-fault
  // RPCs are neither counted nor silenced. Screening page faults too would
  // move outcomes, so it must flip these expectations on purpose.
  Cell& client = ts_.cell(0);
  Cell& server = ts_.cell(1);
  RpcArgs args;
  RpcReply reply;
  constexpr int kCalls = 5;
  const int before = server.detector().IncomingCount(0);
  for (int i = 0; i < kCalls; ++i) {
    Ctx ctx = client.MakeCtx();
    ASSERT_TRUE(client.rpc().Call(ctx, 1, MsgType::kNull, args, &reply).ok());
  }
  EXPECT_EQ(server.detector().IncomingCount(0), before + kCalls);
  for (int i = 0; i < kCalls; ++i) {
    Ctx ctx = client.MakeCtx();
    ASSERT_TRUE(client.rpc().CallFault(ctx, 1, MsgType::kNull, args, &reply).ok());
  }
  EXPECT_EQ(server.detector().IncomingCount(0), before + kCalls);

  RogueBehavior rogue;
  rogue.active = true;
  rogue.rpc_silent = true;
  server.SetRogueBehavior(rogue);
  Ctx fctx = client.MakeCtx();
  EXPECT_TRUE(client.rpc().CallFault(fctx, 1, MsgType::kNull, args, &reply).ok());
  Ctx ctx = client.MakeCtx();
  EXPECT_EQ(client.rpc().Call(ctx, 1, MsgType::kNull, args, &reply).code(),
            base::StatusCode::kTimeout);
}

}  // namespace
}  // namespace hive
