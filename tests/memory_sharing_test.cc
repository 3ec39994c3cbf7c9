// Tests for logical-level sharing (export/import, table 5.1) and
// physical-level sharing (loan/borrow) of paper section 5.

#include <gtest/gtest.h>

#include "src/core/cell.h"
#include "src/core/filesystem.h"
#include "src/workloads/workload.h"
#include "tests/test_util.h"

namespace hive {
namespace {

class MemorySharingTest : public ::testing::Test {
 protected:
  MemorySharingTest() : ts_(hivetest::BootHive(4)) {}

  FileHandle CreateAndOpen(CellId home, CellId client, const std::string& path,
                           uint64_t seed, uint64_t size) {
    Cell& home_cell = ts_.cell(home);
    Ctx hctx = home_cell.MakeCtx();
    auto id = home_cell.fs().Create(hctx, path, workloads::PatternData(seed, size));
    EXPECT_TRUE(id.ok());
    Cell& client_cell = ts_.cell(client);
    Ctx cctx = client_cell.MakeCtx();
    auto handle = client_cell.fs().Open(cctx, path);
    EXPECT_TRUE(handle.ok());
    return *handle;
  }

  hivetest::TestSystem ts_;
};

TEST_F(MemorySharingTest, RemoteFaultImportsPage) {
  FileHandle handle = CreateAndOpen(1, 0, "/f", 7, 8192);
  Cell& client = ts_.cell(0);
  Ctx ctx = client.MakeCtx();
  auto pfdat = client.fs().GetPage(ctx, handle, 0, /*want_write=*/false);
  ASSERT_TRUE(pfdat.ok());
  EXPECT_TRUE((*pfdat)->extended);
  EXPECT_EQ((*pfdat)->imported_from, 1);
  // The frame physically lives in cell 1's memory.
  EXPECT_EQ(ts_.hive->CellOfAddr((*pfdat)->frame), 1);
  // The data home recorded the export.
  Pfdat* home_pfdat = ts_.cell(1).pfdats().FindByLpid((*pfdat)->lpid);
  ASSERT_NE(home_pfdat, nullptr);
  EXPECT_NE(home_pfdat->exported_to & 1ull, 0u);
}

TEST_F(MemorySharingTest, SecondFaultHitsClientHash) {
  FileHandle handle = CreateAndOpen(1, 0, "/f", 7, 8192);
  Cell& client = ts_.cell(0);
  Ctx ctx1 = client.MakeCtx();
  auto first = client.fs().GetPage(ctx1, handle, 0, false);
  ASSERT_TRUE(first.ok());
  const Time remote_cost = ctx1.elapsed;

  Ctx ctx2 = client.MakeCtx();
  auto second = client.fs().GetPage(ctx2, handle, 0, false);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
  // Table 7.3: local hit 6.9 us vs remote 50.7 us.
  EXPECT_LT(ctx2.elapsed, remote_cost / 5);
}

TEST_F(MemorySharingTest, RemoteFaultLatencyMatchesTable52) {
  FileHandle handle = CreateAndOpen(1, 0, "/f", 7, 8192);
  // Warm the data home's cache so the fault hits there.
  Ctx hctx = ts_.cell(1).MakeCtx();
  auto warm = ts_.cell(1).fs().GetPageLocal(hctx, handle.vnode, 0, false);
  ASSERT_TRUE(warm.ok());
  (*warm)->refcount--;

  Cell& client = ts_.cell(0);
  Ctx ctx = client.MakeCtx();
  FaultBreakdown bd;
  ctx.fault_bd = &bd;
  auto pfdat = client.fs().GetPage(ctx, handle, 0, false);
  ASSERT_TRUE(pfdat.ok());
  EXPECT_EQ(ctx.elapsed, 50700);  // 50.7 us.
  EXPECT_EQ(bd.client_fs, 9000);
  EXPECT_EQ(bd.client_locking, 5500);
  EXPECT_EQ(bd.client_vm_misc, 8700);
  EXPECT_EQ(bd.client_import, 4800);
  EXPECT_EQ(bd.home_vm_misc, 3400);
  EXPECT_EQ(bd.home_export, 2000);
  EXPECT_EQ(bd.rpc_stub + bd.rpc_hw + bd.rpc_copy + bd.rpc_alloc, 17300);
}

TEST_F(MemorySharingTest, WritableExportGrantsFirewall) {
  FileHandle handle = CreateAndOpen(1, 0, "/f", 7, 8192);
  Cell& client = ts_.cell(0);
  Ctx ctx = client.MakeCtx();
  auto pfdat = client.fs().GetPage(ctx, handle, 0, /*want_write=*/true);
  ASSERT_TRUE(pfdat.ok());
  // Every processor of the client cell got write access (section 4.2 policy).
  const flash::Pfn pfn = ts_.machine->mem().PfnOfAddr((*pfdat)->frame);
  for (int cpu : client.cpus()) {
    EXPECT_TRUE(ts_.machine->firewall().MayWrite(pfn, cpu));
  }
  EXPECT_EQ(ts_.cell(1).firewall_manager().RemotelyWritablePages(), 1);
  // And the client can genuinely store to the remote frame.
  ts_.machine->mem().WriteValue<uint64_t>(client.FirstCpu(), (*pfdat)->frame, 123);
}

TEST_F(MemorySharingTest, ReadOnlyExportBlocksClientWrites) {
  FileHandle handle = CreateAndOpen(1, 0, "/f", 7, 8192);
  Cell& client = ts_.cell(0);
  Ctx ctx = client.MakeCtx();
  auto pfdat = client.fs().GetPage(ctx, handle, 0, /*want_write=*/false);
  ASSERT_TRUE(pfdat.ok());
  EXPECT_THROW(
      ts_.machine->mem().WriteValue<uint64_t>(client.FirstCpu(), (*pfdat)->frame, 1),
      flash::BusError);
}

TEST_F(MemorySharingTest, UpgradeToWritableImport) {
  FileHandle handle = CreateAndOpen(1, 0, "/f", 7, 8192);
  Cell& client = ts_.cell(0);
  Ctx ctx = client.MakeCtx();
  auto ro = client.fs().GetPage(ctx, handle, 0, false);
  ASSERT_TRUE(ro.ok());
  EXPECT_FALSE((*ro)->import_writable);
  auto rw = client.fs().GetPage(ctx, handle, 0, true);
  ASSERT_TRUE(rw.ok());
  EXPECT_TRUE((*rw)->import_writable);
  ts_.machine->mem().WriteValue<uint64_t>(client.FirstCpu(), (*rw)->frame, 5);
}

TEST_F(MemorySharingTest, RemoteReadSeesDataWrittenAtHome) {
  FileHandle handle = CreateAndOpen(1, 0, "/data", 99, 16384);
  Cell& client = ts_.cell(0);
  Ctx ctx = client.MakeCtx();
  std::vector<uint8_t> buf(16384);
  ASSERT_TRUE(client.fs().Read(ctx, handle, 0, std::span<uint8_t>(buf)).ok());
  EXPECT_EQ(buf, workloads::PatternData(99, 16384));
}

TEST_F(MemorySharingTest, RemoteWriteReachesHomeDisk) {
  FileHandle handle = CreateAndOpen(1, 0, "/data", 99, 8192);
  Cell& client = ts_.cell(0);
  Ctx ctx = client.MakeCtx();
  const std::vector<uint8_t> data = workloads::PatternData(1234, 8192);
  ASSERT_TRUE(client.fs().Write(ctx, handle, 0, std::span<const uint8_t>(data)).ok());
  const VnodeId home_vnode = handle.vnode;
  client.fs().Close(ctx, handle);  // Sync at the data home.
  const Vnode* vnode = ts_.cell(1).fs().FindVnode(home_vnode);
  ASSERT_NE(vnode, nullptr);
  std::vector<uint8_t> disk(vnode->disk_image.begin(), vnode->disk_image.begin() + 8192);
  EXPECT_EQ(disk, data);
}

// --- Physical-level sharing. ---

TEST_F(MemorySharingTest, BorrowFrameFromPreferredCell) {
  Cell& borrower = ts_.cell(0);
  Ctx ctx = borrower.MakeCtx();
  AllocConstraints constraints;
  constraints.preferred_cell = 2;
  auto pfdat = borrower.allocator().AllocFrame(ctx, constraints);
  ASSERT_TRUE(pfdat.ok());
  EXPECT_TRUE((*pfdat)->extended);
  EXPECT_EQ((*pfdat)->borrowed_from, 2);
  EXPECT_EQ(ts_.hive->CellOfAddr((*pfdat)->frame), 2);
  // The lender moved the batch to its reserved (loaned) list ("asking for a
  // set of pages", section 5.4).
  EXPECT_GE(ts_.cell(2).allocator().loaned_frames(), 1u);
  // The borrower has write control over the frame.
  ts_.machine->mem().WriteValue<uint64_t>(borrower.FirstCpu(), (*pfdat)->frame, 77);
  // The memory home does NOT (policy: loan hands over control).
  EXPECT_THROW(
      ts_.machine->mem().WriteValue<uint64_t>(ts_.cell(2).FirstCpu(), (*pfdat)->frame, 1),
      flash::BusError);
}

TEST_F(MemorySharingTest, ReturnFrameRestoresLender) {
  Cell& borrower = ts_.cell(0);
  Ctx ctx = borrower.MakeCtx();
  AllocConstraints constraints;
  constraints.preferred_cell = 2;
  auto pfdat = borrower.allocator().AllocFrame(ctx, constraints);
  ASSERT_TRUE(pfdat.ok());
  const flash::PhysAddr frame = (*pfdat)->frame;
  const size_t loaned_before = ts_.cell(2).allocator().loaned_frames();
  (*pfdat)->refcount = 0;
  borrower.allocator().FreeFrame(ctx, *pfdat);
  EXPECT_EQ(ts_.cell(2).allocator().loaned_frames(), loaned_before - 1);
  // Back under the lender's control.
  ts_.machine->mem().WriteValue<uint64_t>(ts_.cell(2).FirstCpu(), frame, 1);
}

TEST_F(MemorySharingTest, KernelInternalAllocationsAreLocal) {
  Cell& cell = ts_.cell(3);
  Ctx ctx = cell.MakeCtx();
  AllocConstraints constraints;
  constraints.kernel_internal = true;
  for (int i = 0; i < 10; ++i) {
    auto pfdat = cell.allocator().AllocFrame(ctx, constraints);
    ASSERT_TRUE(pfdat.ok());
    EXPECT_EQ(ts_.hive->CellOfAddr((*pfdat)->frame), 3);
  }
}

TEST_F(MemorySharingTest, LenderKeepsLocalReserve) {
  Cell& lender = ts_.cell(2);
  Ctx ctx = lender.MakeCtx();
  // Ask for far more frames than the lender can give.
  const int huge = static_cast<int>(lender.allocator().free_frames());
  const std::vector<flash::PhysAddr> frames = lender.allocator().LoanFrames(ctx, 0, huge);
  EXPECT_LT(frames.size(), static_cast<size_t>(huge));
  EXPECT_GE(lender.allocator().free_frames(), PageAllocator::kLocalReserveFrames);
}

TEST_F(MemorySharingTest, LoanedFrameImportedBackReusesPfdat) {
  // Section 5.5: a frame simultaneously loaned out and imported back into the
  // memory home reuses the pre-existing pfdat.
  Cell& data_home = ts_.cell(1);
  Ctx dctx = data_home.MakeCtx();
  // Data home (cell 1) borrows a frame from cell 0 and caches a file page in
  // it by allocating the file page while preferring cell-0 memory.
  auto id = data_home.fs().Create(dctx, "/loanback", workloads::PatternData(5, 4096));
  ASSERT_TRUE(id.ok());
  // Force the next file page allocation on cell 1 to use cell 0's memory.
  AllocConstraints constraints;
  constraints.preferred_cell = 0;
  auto frame = data_home.allocator().AllocFrame(dctx, constraints);
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(ts_.hive->CellOfAddr((*frame)->frame), 0);
  // Cell 0's pfdat table knows this frame as loaned out.
  Pfdat* memory_home_view = ts_.cell(0).pfdats().FindByFrame((*frame)->frame);
  ASSERT_NE(memory_home_view, nullptr);
  EXPECT_TRUE(memory_home_view->loaned_out);
}

}  // namespace
}  // namespace hive
