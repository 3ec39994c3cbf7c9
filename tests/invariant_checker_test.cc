// The debug-mode invariant auditor: firewall vectors vs kernel bookkeeping
// (see src/core/invariant_checker.h).

#include "src/core/invariant_checker.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/core/cell.h"
#include "src/core/filesystem.h"
#include "src/flash/fault_injector.h"
#include "src/workloads/workload.h"
#include "tests/test_util.h"

namespace hive {
namespace {

class InvariantCheckerTest : public ::testing::Test {
 protected:
  InvariantCheckerTest() : ts_(hivetest::BootHive(4)) {}

  hivetest::TestSystem ts_;
};

TEST_F(InvariantCheckerTest, CleanAfterBoot) {
  InvariantChecker checker(ts_.hive.get());
  const InvariantReport report = checker.AuditAll();
  EXPECT_TRUE(report.clean()) << report.mismatches.front().ToString();
  EXPECT_EQ(report.cells_audited, 4);
  EXPECT_GT(report.pages_audited, 0u);
}

TEST_F(InvariantCheckerTest, CatchesUnauthorizedFirewallGrant) {
  // Model a wild write into the firewall configuration path: cell 1's page
  // becomes writable by cell 0's processors with no kernel bookkeeping
  // behind it. The audit must notice, name the page, and raise a
  // failure-detection hint against the cell holding the unauthorized bits.
  Cell& victim = ts_.cell(1);
  const Pfn pfn = ts_.machine->mem().PfnOfAddr(victim.mem_base());
  ts_.machine->firewall().GrantCpus(pfn, ts_.cell(0).CpuMask(), victim.FirstCpu());

  InvariantChecker checker(ts_.hive.get());
  const uint64_t hints_before = victim.detector().hints_raised();
  const InvariantReport report = checker.AuditAll(/*raise_hints=*/true);

  ASSERT_FALSE(report.clean());
  EXPECT_EQ(report.mismatches.front().cell, 1);
  EXPECT_EQ(report.mismatches.front().pfn, pfn);
  EXPECT_EQ(report.mismatches.front().actual & ~report.mismatches.front().expected,
            ts_.cell(0).CpuMask());
  EXPECT_EQ(victim.detector().hints_raised(), hints_before + 1);
  EXPECT_GT(victim.trace().Count(TraceEvent::kInvariantMismatch), 0);
  // Agreement (oracle) votes the accusation down: cell 0 is actually fine.
  EXPECT_TRUE(ts_.cell(0).alive());
  EXPECT_TRUE(ts_.cell(1).alive());

  // Repairing the vector makes the audit clean again.
  ts_.machine->firewall().RevokeCpus(pfn, ts_.cell(0).CpuMask(), victim.FirstCpu());
  EXPECT_TRUE(checker.AuditAll().clean());
}

TEST_F(InvariantCheckerTest, CatchesUnauthorizedBitOnNeverAllocatedFrame) {
  // The audit looks up bookkeeping only for touched frames, yet must still
  // compare every page's vector: an open bit on the cell's last paged frame,
  // which nothing ever allocated, is caught and named.
  Cell& victim = ts_.cell(3);
  flash::PhysMem& mem = ts_.machine->mem();
  const Pfn last = mem.PfnOfAddr(victim.mem_base() + victim.mem_size() - mem.page_size());
  ts_.machine->firewall().GrantCpus(last, ts_.cell(1).CpuMask(), victim.FirstCpu());

  InvariantChecker checker(ts_.hive.get());
  const InvariantReport report = checker.AuditCell(3);
  ASSERT_EQ(report.mismatches.size(), 1u);
  EXPECT_EQ(report.mismatches.front().cell, 3);
  EXPECT_EQ(report.mismatches.front().pfn, last);
  EXPECT_EQ(report.mismatches.front().expected, victim.CpuMask());
  EXPECT_EQ(report.mismatches.front().actual & ~report.mismatches.front().expected,
            ts_.cell(1).CpuMask());
}

TEST_F(InvariantCheckerTest, AuditsEveryPageOfTheCell) {
  InvariantChecker checker(ts_.hive.get());
  for (CellId c = 0; c < 4; ++c) {
    const Cell& cell = ts_.cell(c);
    EXPECT_EQ(checker.AuditCell(c).pages_audited,
              cell.mem_size() / ts_.machine->mem().page_size())
        << "cell " << c;
  }
}

TEST_F(InvariantCheckerTest, ReportsEveryUnauthorizedBitInPfnOrder) {
  // The audit scans runs of plain pages for a vector other than the owner
  // mask and reads bookkeeping only at pfdat and grant pages. An unauthorized
  // bit must be caught at both ends of the cell, inside a long run of
  // never-allocated frames, on a pfdat page and on a granted page.
  Cell& cell = ts_.cell(1);
  flash::PhysMem& mem = ts_.machine->mem();
  const Pfn first = mem.PfnOfAddr(cell.mem_base());
  const Pfn end = first + cell.mem_size() / mem.page_size();
  const uint64_t own = cell.CpuMask();
  // Halfway through the paged frames, which are handed out from the start,
  // so the pages around it were never allocated.
  const Pfn untouched = end - 1 - cell.paged_frames() / 2;
  const Pfn grant_page = untouched + 7;
  Ctx ctx = cell.MakeCtx();
  ASSERT_TRUE(cell.firewall_manager().GrantWrite(ctx, grant_page, 3).ok());
  // Looking up the first paged frame gives it a pfdat.
  const PhysAddr paged_base =
      cell.mem_base() + cell.mem_size() - cell.paged_frames() * mem.page_size();
  ASSERT_NE(cell.pfdats().FindByFrame(paged_base), nullptr);
  const Pfn pfdat_page = mem.PfnOfAddr(paged_base);
  std::set<Pfn> booked = {grant_page};
  cell.pfdats().ForEach([&](Pfdat* pfdat) { booked.insert(mem.PfnOfAddr(pfdat->frame)); });
  ASSERT_EQ(booked.count(pfdat_page), 1u);
  ASSERT_EQ(booked.count(untouched), 0u);

  InvariantChecker checker(ts_.hive.get());
  ASSERT_TRUE(checker.AuditCell(1).clean());
  // Expected vector per planted page, in pfn order.
  const std::map<Pfn, uint64_t> planted = {
      {first, own},
      {pfdat_page, own},
      {grant_page, own | cell.firewall_manager().GrantedCpuMask(grant_page)},
      {untouched, own},
      {end - 1, own}};
  ASSERT_EQ(planted.size(), 5u);
  const uint64_t intruder = ts_.cell(0).CpuMask();
  for (const auto& [pfn, expected] : planted) {
    ts_.machine->firewall().GrantCpus(pfn, intruder, cell.FirstCpu());
  }

  const InvariantReport report = checker.AuditCell(1);
  EXPECT_EQ(report.pages_audited, end - first);
  ASSERT_EQ(report.mismatches.size(), planted.size());
  auto mismatch = report.mismatches.begin();
  for (const auto& [pfn, expected] : planted) {
    EXPECT_EQ(mismatch->pfn, pfn);
    EXPECT_EQ(mismatch->expected, expected) << "pfn " << pfn;
    EXPECT_EQ(mismatch->actual, expected | intruder) << "pfn " << pfn;
    ++mismatch;
  }
}

TEST_F(InvariantCheckerTest, CatchesLoanBookkeepingMismatch) {
  // A pfdat that claims its frame is loaned out while the allocator disagrees
  // is corrupt bookkeeping (and the firewall vector no longer matches the
  // claimed borrower).
  Cell& cell = ts_.cell(2);
  const uint64_t page_size = ts_.machine->mem().page_size();
  Pfdat* pfdat = cell.pfdats().FindByFrame(cell.mem_base() + cell.mem_size() -
                                           cell.paged_frames() * page_size);
  ASSERT_NE(pfdat, nullptr);
  ASSERT_FALSE(pfdat->extended);
  ASSERT_FALSE(pfdat->loaned_out);
  pfdat->loaned_out = true;
  pfdat->loaned_to = 0;

  InvariantChecker checker(ts_.hive.get());
  const InvariantReport report = checker.AuditCell(2);
  ASSERT_FALSE(report.clean());
  bool loan_mismatch = false;
  for (const InvariantMismatch& m : report.mismatches) {
    loan_mismatch = loan_mismatch || m.detail.find("loan") != std::string::npos;
  }
  EXPECT_TRUE(loan_mismatch);

  pfdat->loaned_out = false;
  pfdat->loaned_to = kInvalidCell;
  EXPECT_TRUE(checker.AuditCell(2).clean());
}

TEST_F(InvariantCheckerTest, CleanWhileSharingActive) {
  // Cross-cell file writes set up real exports, grants and (under NUMA
  // placement) loans; the audit must agree with all of it.
  Ctx ctx = ts_.cell(1).MakeCtx();
  ASSERT_TRUE(ts_.cell(1).fs().Create(ctx, "/shared.dat", {}).ok());
  std::vector<uint8_t> data(4096, 0x5A);
  auto home_handle = ts_.cell(1).fs().Open(ctx, "/shared.dat");
  ASSERT_TRUE(home_handle.ok());
  ASSERT_TRUE(ts_.cell(1)
                  .fs()
                  .Write(ctx, *home_handle, 0, std::span<const uint8_t>(data))
                  .ok());
  Ctx client_ctx = ts_.cell(3).MakeCtx();
  auto client_handle = ts_.cell(3).fs().Open(client_ctx, "/shared.dat");
  ASSERT_TRUE(client_handle.ok());
  ASSERT_TRUE(ts_.cell(3)
                  .fs()
                  .Write(client_ctx, *client_handle, 0, std::span<const uint8_t>(data))
                  .ok());

  InvariantChecker checker(ts_.hive.get());
  const InvariantReport report = checker.AuditAll();
  EXPECT_TRUE(report.clean()) << report.mismatches.front().ToString();
}

TEST_F(InvariantCheckerTest, CleanAfterRecovery) {
  // Recovery rewrites grant/export/loan state on every survivor; the
  // post-recovery audit (wired into RecoveryManager::Run) and this explicit
  // one must both find the books balanced.
  flash::FaultInjector injector(ts_.machine.get(), 1);
  injector.ScheduleNodeFailure(2, 25 * kMillisecond);
  ts_.machine->events().RunUntil(200 * kMillisecond);
  ASSERT_EQ(ts_.hive->recovery().recoveries_run(), 1);
  ASSERT_FALSE(ts_.cell(2).alive());

  InvariantChecker checker(ts_.hive.get());
  const InvariantReport report = checker.AuditAll();
  EXPECT_TRUE(report.clean()) << report.mismatches.front().ToString();
  EXPECT_EQ(report.cells_audited, 3);
}

TEST(InvariantCheckerSmpTest, AuditSkippedInSmpMode) {
  hivetest::TestSystem ts = hivetest::BootSmp();
  InvariantChecker checker(ts.hive.get());
  const InvariantReport report = checker.AuditAll();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.cells_audited, 0);
  EXPECT_EQ(report.pages_audited, 0u);
}

}  // namespace
}  // namespace hive
