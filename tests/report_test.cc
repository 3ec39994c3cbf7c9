#include "src/core/report.h"

#include <gtest/gtest.h>

#include "src/core/cell.h"
#include "src/core/failure_detection.h"
#include "src/core/filesystem.h"
#include "src/core/recovery.h"
#include "src/flash/fault_injector.h"
#include "src/workloads/workload.h"
#include "tests/test_util.h"

namespace hive {
namespace {

class ReportTest : public ::testing::Test {
 protected:
  ReportTest() : ts_(hivetest::BootHive(4)) {}
  hivetest::TestSystem ts_;
};

TEST_F(ReportTest, SystemReportListsEveryCell) {
  const std::string report = RenderSystemReport(*ts_.hive);
  for (int c = 0; c < 4; ++c) {
    EXPECT_NE(report.find("cell " + std::to_string(c)), std::string::npos) << c;
  }
  EXPECT_NE(report.find("RUNNING"), std::string::npos);
}

TEST_F(ReportTest, DeadCellRendersAsDead) {
  ts_.machine->FailNode(2);
  ts_.machine->events().RunUntil(100 * kMillisecond);
  const std::string report = RenderSystemReport(*ts_.hive);
  EXPECT_NE(report.find("DEAD"), std::string::npos);
}

TEST_F(ReportTest, SharingViewShowsExportsAndImports) {
  Cell& home = ts_.cell(1);
  Ctx hctx = home.MakeCtx();
  auto id = home.fs().Create(hctx, "/r", workloads::PatternData(1, 4096));
  ASSERT_TRUE(id.ok());
  Cell& client = ts_.cell(0);
  Ctx cctx = client.MakeCtx();
  auto handle = client.fs().Open(cctx, "/r");
  auto pfdat = client.fs().GetPage(cctx, *handle, 0, /*want_write=*/true);
  ASSERT_TRUE(pfdat.ok());

  const std::string home_view = RenderCellSharing(*ts_.hive, 1);
  EXPECT_NE(home_view.find("exported-to"), std::string::npos);
  EXPECT_NE(home_view.find("writable"), std::string::npos);
  const std::string client_view = RenderCellSharing(*ts_.hive, 0);
  EXPECT_NE(client_view.find("imported-from=1"), std::string::npos);
}

TEST_F(ReportTest, RpcTransportTableShowsCallsTimeoutsAndRetries) {
  // One successful intercell call, then calls against a dead peer: the table
  // must surface the per-cell call, timeout and quarantine counters.
  Cell& client = ts_.cell(0);
  Ctx ctx = client.MakeCtx();
  RpcArgs args;
  RpcReply reply;
  ASSERT_TRUE(client.rpc().Call(ctx, 1, MsgType::kNull, args, &reply).ok());

  ts_.machine->FailNode(2);
  for (int i = 0; i < 3; ++i) {
    Ctx dctx = client.MakeCtx();
    EXPECT_FALSE(client.rpc().Call(dctx, 2, MsgType::kNull, args, &reply).ok());
  }

  const std::string report = RenderRpcTransport(*ts_.hive);
  for (int c = 0; c < 4; ++c) {
    EXPECT_NE(report.find("cell " + std::to_string(c)), std::string::npos) << c;
  }
  EXPECT_NE(report.find("Timeouts"), std::string::npos);
  EXPECT_NE(report.find("Retries"), std::string::npos);
  EXPECT_NE(report.find("Quarantines"), std::string::npos);
  EXPECT_NE(report.find("AMO-viol"), std::string::npos);
  const RpcCallStats& stats = client.rpc().stats();
  EXPECT_GE(stats.calls, 4u);
  EXPECT_GE(stats.timeouts, 1u);
}

TEST_F(ReportTest, RecoveryEpisodesEmptyBeforeAnyRecovery) {
  EXPECT_EQ(RenderRecoveryEpisodes(*ts_.hive), "");
}

TEST_F(ReportTest, RecoveryEpisodesTableRendersDurations) {
  // Two node failures, two recovery episodes: the table must list both with
  // a positive duration and render the duration distribution footer the
  // serve harness' recovery-time SLO reads.
  flash::FaultInjector injector(ts_.machine.get(), 1);
  injector.ScheduleNodeFailure(2, 25 * kMillisecond);
  injector.ScheduleNodeFailure(3, 150 * kMillisecond);
  ts_.machine->events().RunUntil(400 * kMillisecond);
  ASSERT_EQ(ts_.hive->recovery().recoveries_run(), 2);

  const std::string report = RenderRecoveryEpisodes(*ts_.hive);
  EXPECT_NE(report.find("Recovery episodes"), std::string::npos);
  EXPECT_NE(report.find("Duration (ms)"), std::string::npos);
  EXPECT_NE(report.find("recovery duration (ms): count=2"), std::string::npos);
  const auto& episodes = ts_.hive->recovery().episodes();
  ASSERT_EQ(episodes.size(), 2u);
  for (const RecoveryStats& episode : episodes) {
    EXPECT_GT(episode.duration_ns, 0);
  }
  EXPECT_EQ(episodes[0].failed_cells[0], 2);
  EXPECT_EQ(episodes[1].failed_cells[0], 3);
}

TEST_F(ReportTest, SharingViewEmptyWhenNoSharing) {
  const std::string view = RenderCellSharing(*ts_.hive, 3);
  EXPECT_NE(view.find("no intercell sharing"), std::string::npos);
}

TEST_F(ReportTest, SharingViewOfDeadCellSaysSo) {
  ts_.machine->FailNode(3);
  ts_.machine->events().RunUntil(100 * kMillisecond);
  const std::string view = RenderCellSharing(*ts_.hive, 3);
  EXPECT_NE(view.find("DEAD"), std::string::npos);
}

TEST_F(ReportTest, FailureDetectionTableListsEveryHintReason) {
  // The table carries one column per HintReason so a rogue's footprint is
  // visible at a glance.
  const std::string report = RenderFailureDetection(*ts_.hive);
  for (HintReason reason : kAllHintReasons) {
    EXPECT_NE(report.find(HintReasonName(reason)), std::string::npos)
        << HintReasonName(reason);
  }
  EXPECT_NE(report.find("Max-hops"), std::string::npos);
  for (int c = 0; c < 4; ++c) {
    EXPECT_NE(report.find("cell " + std::to_string(c)), std::string::npos) << c;
  }
}

TEST(RecoverySalvageReportTest, TableShowsAdoptionsAndReintegrations) {
  // A salvageable write-export plus an auto-reintegrated victim: the table
  // must show the home's adoption and the victim's converged rejoin.
  HiveOptions options;
  options.salvage_pages = true;
  options.live_rejoin = true;
  options.auto_reintegrate = true;
  hivetest::TestSystem ts = hivetest::BootHive(4, 4, options);

  Cell& home = ts.cell(0);
  Ctx hctx = home.MakeCtx();
  ASSERT_TRUE(home.fs().Create(hctx, "/sr", workloads::PatternData(3, 4096)).ok());
  Cell& client = ts.cell(2);
  Ctx cctx = client.MakeCtx();
  auto handle = client.fs().Open(cctx, "/sr");
  ASSERT_TRUE(handle.ok());
  auto page = client.fs().GetPage(cctx, *handle, 0, /*want_write=*/true);
  ASSERT_TRUE(page.ok());
  client.fs().ReleasePage(cctx, *page);

  flash::FaultInjector injector(ts.machine.get(), 1);
  injector.ScheduleNodeFailure(2, ts.machine->Now() + kMillisecond);
  ts.machine->events().RunUntil(1 * kSecond);
  ASSERT_GE(ts.hive->recovery().salvage_log().size(), 1u);
  ASSERT_GE(ts.hive->recovery().reintegration_log().size(), 1u);

  const std::string report = RenderRecoverySalvage(*ts.hive);
  EXPECT_NE(report.find("Salvage & reintegration"), std::string::npos);
  EXPECT_NE(report.find("Frames-adopted"), std::string::npos);
  EXPECT_NE(report.find("Checksum-proof"), std::string::npos);
  EXPECT_NE(report.find("Reint-done"), std::string::npos);
  EXPECT_NE(report.find("page(s) salvaged"), std::string::npos);
  for (int c = 0; c < 4; ++c) {
    EXPECT_NE(report.find("cell " + std::to_string(c)), std::string::npos) << c;
  }
}

TEST_F(ReportTest, FailureDetectionTableCountsHintsByReason) {
  // A node failure raises bus-error/stale hints at the monitoring cell; the
  // per-reason counters must be non-zero afterwards.
  ts_.machine->FailNode(2);
  ts_.machine->events().RunUntil(150 * kMillisecond);
  uint64_t total = 0;
  for (CellId c = 0; c < ts_.hive->num_cells(); ++c) {
    total += ts_.cell(c).detector().hints_raised();
  }
  ASSERT_GE(total, 1u);
  const std::string report = RenderFailureDetection(*ts_.hive);
  EXPECT_NE(report.find("Failure detection"), std::string::npos);
}

}  // namespace
}  // namespace hive
