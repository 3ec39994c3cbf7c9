// Single-system-image features (paper section 3.3): the globally coherent
// file name space (create/open/unlink/rename/list from any cell),
// distributed process groups, and cross-cell signal delivery.

#include <gtest/gtest.h>

#include "src/core/cell.h"
#include "src/core/filesystem.h"
#include "src/flash/fault_injector.h"
#include "src/workloads/workload.h"
#include "tests/test_util.h"

namespace hive {
namespace {

using workloads::OpCompute;
using workloads::ScriptedBehavior;

class SingleSystemTest : public ::testing::Test {
 protected:
  SingleSystemTest() : ts_(hivetest::BootHive(4)) {}

  ProcId SpawnBusy(CellId cell, int64_t group = -1) {
    auto behavior = std::make_unique<ScriptedBehavior>("busy");
    behavior->Add(OpCompute(10 * kSecond));
    Ctx ctx = ts_.cell(cell).MakeCtx();
    auto pid = ts_.hive->Fork(ctx, cell, std::move(behavior), group);
    EXPECT_TRUE(pid.ok());
    return *pid;
  }

  hivetest::TestSystem ts_;
};

TEST_F(SingleSystemTest, UnlinkLocalFile) {
  Cell& cell = ts_.cell(0);
  Ctx ctx = cell.MakeCtx();
  auto id = cell.fs().Create(ctx, "/u1", workloads::PatternData(1, 4096));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(cell.fs().Unlink(ctx, "/u1").ok());
  EXPECT_EQ(ts_.hive->LookupPath("/u1").status().code(), base::StatusCode::kNotFound);
  EXPECT_EQ(cell.fs().FindVnode(id->vnode), nullptr);
  EXPECT_EQ(cell.fs().Open(ctx, "/u1").status().code(), base::StatusCode::kNotFound);
}

TEST_F(SingleSystemTest, UnlinkFromAnotherCell) {
  Cell& home = ts_.cell(1);
  Ctx hctx = home.MakeCtx();
  auto id = home.fs().Create(hctx, "/u2", workloads::PatternData(2, 8192));
  ASSERT_TRUE(id.ok());
  // Warm the home's cache so unlink also has pages to drop.
  auto warm = home.fs().GetPageLocal(hctx, id->vnode, 0, false);
  ASSERT_TRUE(warm.ok());
  (*warm)->refcount--;

  Cell& other = ts_.cell(3);
  Ctx octx = other.MakeCtx();
  ASSERT_TRUE(other.fs().Unlink(octx, "/u2").ok());
  EXPECT_EQ(home.fs().FindVnode(id->vnode), nullptr);
  EXPECT_EQ(other.fs().Open(octx, "/u2").status().code(), base::StatusCode::kNotFound);
}

TEST_F(SingleSystemTest, UnlinkFreesCachedFrames) {
  Cell& cell = ts_.cell(0);
  Ctx ctx = cell.MakeCtx();
  auto id = cell.fs().Create(ctx, "/u3", workloads::PatternData(3, 32 * 4096));
  ASSERT_TRUE(id.ok());
  for (uint64_t p = 0; p < 32; ++p) {
    auto got = cell.fs().GetPageLocal(ctx, id->vnode, p, false);
    ASSERT_TRUE(got.ok());
    (*got)->refcount--;
  }
  const size_t free_before = cell.allocator().free_frames();
  ASSERT_TRUE(cell.fs().Unlink(ctx, "/u3").ok());
  EXPECT_EQ(cell.allocator().free_frames(), free_before + 32);
}

TEST_F(SingleSystemTest, RenameKeepsContents) {
  Cell& cell = ts_.cell(2);
  Ctx ctx = cell.MakeCtx();
  ASSERT_TRUE(cell.fs().Create(ctx, "/old", workloads::PatternData(4, 4096)).ok());
  ASSERT_TRUE(cell.fs().Rename(ctx, "/old", "/new").ok());
  EXPECT_EQ(ts_.hive->LookupPath("/old").status().code(), base::StatusCode::kNotFound);
  // Open and verify from yet another cell.
  Cell& reader = ts_.cell(0);
  Ctx rctx = reader.MakeCtx();
  auto handle = reader.fs().Open(rctx, "/new");
  ASSERT_TRUE(handle.ok());
  std::vector<uint8_t> buf(4096);
  ASSERT_TRUE(reader.fs().Read(rctx, *handle, 0, std::span<uint8_t>(buf)).ok());
  EXPECT_EQ(buf, workloads::PatternData(4, 4096));
}

TEST_F(SingleSystemTest, RenameToExistingPathFails) {
  Cell& cell = ts_.cell(0);
  Ctx ctx = cell.MakeCtx();
  ASSERT_TRUE(cell.fs().Create(ctx, "/a", {}).ok());
  ASSERT_TRUE(cell.fs().Create(ctx, "/b", {}).ok());
  EXPECT_EQ(cell.fs().Rename(ctx, "/a", "/b").code(), base::StatusCode::kAlreadyExists);
}

TEST_F(SingleSystemTest, ListPathsByPrefix) {
  Ctx ctx0 = ts_.cell(0).MakeCtx();
  Ctx ctx1 = ts_.cell(1).MakeCtx();
  ASSERT_TRUE(ts_.cell(0).fs().Create(ctx0, "/dir/a", {}).ok());
  ASSERT_TRUE(ts_.cell(1).fs().Create(ctx1, "/dir/b", {}).ok());
  ASSERT_TRUE(ts_.cell(0).fs().Create(ctx0, "/other/c", {}).ok());
  const auto listing = ts_.hive->ListPaths("/dir/");
  ASSERT_EQ(listing.size(), 2u);
  EXPECT_EQ(listing[0], "/dir/a");
  EXPECT_EQ(listing[1], "/dir/b");
}

TEST_F(SingleSystemTest, KillLocalProcess) {
  const ProcId pid = SpawnBusy(0);
  Ctx ctx = ts_.cell(0).MakeCtx();
  ASSERT_TRUE(ts_.hive->Kill(ctx, pid).ok());
  EXPECT_EQ(ts_.cell(0).sched().FindProcess(pid)->state(), ProcState::kKilled);
}

TEST_F(SingleSystemTest, KillRemoteProcessViaRpc) {
  const ProcId pid = SpawnBusy(3);
  Ctx ctx = ts_.cell(0).MakeCtx();  // Signal sent from cell 0.
  ASSERT_TRUE(ts_.hive->Kill(ctx, pid).ok());
  EXPECT_EQ(ts_.cell(3).sched().FindProcess(pid)->state(), ProcState::kKilled);
  EXPECT_GT(ctx.elapsed, 7000);  // Paid an RPC.
}

TEST_F(SingleSystemTest, KillUnknownPidIsNotFound) {
  Ctx ctx = ts_.cell(0).MakeCtx();
  EXPECT_EQ(ts_.hive->Kill(ctx, 424242).code(), base::StatusCode::kNotFound);
}

TEST_F(SingleSystemTest, SignalGroupKillsAcrossCells) {
  const int64_t group = ts_.hive->NextTaskGroup();
  std::vector<ProcId> members;
  for (CellId c = 0; c < 4; ++c) {
    members.push_back(SpawnBusy(c, group));
  }
  const ProcId outsider = SpawnBusy(1);  // Not in the group.

  Ctx ctx = ts_.cell(2).MakeCtx();
  EXPECT_EQ(ts_.hive->SignalGroup(ctx, group), 4);
  for (CellId c = 0; c < 4; ++c) {
    EXPECT_EQ(ts_.cell(c).sched().FindProcess(members[static_cast<size_t>(c)])->state(),
              ProcState::kKilled)
        << c;
  }
  EXPECT_NE(ts_.cell(1).sched().FindProcess(outsider)->state(), ProcState::kKilled);
}

TEST_F(SingleSystemTest, SignalGroupSkipsMembersOnDeadCells) {
  const int64_t group = ts_.hive->NextTaskGroup();
  std::vector<ProcId> members;
  for (CellId c = 0; c < 4; ++c) {
    members.push_back(SpawnBusy(c, group));
  }
  ts_.machine->FailNode(2);
  Ctx ctx = ts_.cell(0).MakeCtx();
  // Member on cell 2 is unreachable; the other three die. (The group-kill of
  // recovery would get the stragglers once detection runs.)
  EXPECT_EQ(ts_.hive->SignalGroup(ctx, group), 3);
}

TEST_F(SingleSystemTest, GroupMembershipTracked) {
  const int64_t group = ts_.hive->NextTaskGroup();
  const ProcId a = SpawnBusy(0, group);
  const ProcId b = SpawnBusy(2, group);
  const auto& members = ts_.hive->GroupMembers(group);
  ASSERT_EQ(members.size(), 2u);
  EXPECT_EQ(members[0], a);
  EXPECT_EQ(members[1], b);
  EXPECT_EQ(ts_.hive->GroupCells(group), 0b101ull);
}

}  // namespace
}  // namespace hive
