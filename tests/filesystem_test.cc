#include "src/core/filesystem.h"

#include <gtest/gtest.h>

#include "src/core/cell.h"
#include "src/workloads/workload.h"
#include "tests/test_util.h"

namespace hive {
namespace {

class FileSystemTest : public ::testing::Test {
 protected:
  FileSystemTest() : ts_(hivetest::BootHive(4)) {}

  hivetest::TestSystem ts_;
};

TEST_F(FileSystemTest, CreateRegistersGlobalPath) {
  Cell& cell = ts_.cell(2);
  Ctx ctx = cell.MakeCtx();
  auto id = cell.fs().Create(ctx, "/a/b", workloads::PatternData(1, 100));
  ASSERT_TRUE(id.ok());
  auto found = ts_.hive->LookupPath("/a/b");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->data_home, 2);
}

TEST_F(FileSystemTest, DuplicateCreateFails) {
  Cell& cell = ts_.cell(0);
  Ctx ctx = cell.MakeCtx();
  ASSERT_TRUE(cell.fs().Create(ctx, "/dup", {}).ok());
  EXPECT_EQ(cell.fs().Create(ctx, "/dup", {}).status().code(),
            base::StatusCode::kAlreadyExists);
}

TEST_F(FileSystemTest, OpenMissingFileIsNotFound) {
  Cell& cell = ts_.cell(0);
  Ctx ctx = cell.MakeCtx();
  EXPECT_EQ(cell.fs().Open(ctx, "/nope").status().code(), base::StatusCode::kNotFound);
}

TEST_F(FileSystemTest, LocalReadAfterWriteRoundTrips) {
  Cell& cell = ts_.cell(0);
  Ctx ctx = cell.MakeCtx();
  ASSERT_TRUE(cell.fs().Create(ctx, "/rw", {}).ok());
  auto handle = cell.fs().Open(ctx, "/rw");
  ASSERT_TRUE(handle.ok());
  const std::vector<uint8_t> data = workloads::PatternData(42, 10000);
  ASSERT_TRUE(cell.fs().Write(ctx, *handle, 100, std::span<const uint8_t>(data)).ok());
  std::vector<uint8_t> buf(10000);
  ASSERT_TRUE(cell.fs().Read(ctx, *handle, 100, std::span<uint8_t>(buf)).ok());
  EXPECT_EQ(buf, data);
}

TEST_F(FileSystemTest, WriteExtendsFileSize) {
  Cell& cell = ts_.cell(0);
  Ctx ctx = cell.MakeCtx();
  auto id = cell.fs().Create(ctx, "/grow", {});
  ASSERT_TRUE(id.ok());
  auto handle = cell.fs().Open(ctx, "/grow");
  const std::vector<uint8_t> data(5000, 0xAA);
  ASSERT_TRUE(cell.fs().Write(ctx, *handle, 20000, std::span<const uint8_t>(data)).ok());
  EXPECT_EQ(cell.fs().FindVnode(id->vnode)->size_bytes, 25000u);
}

TEST_F(FileSystemTest, RemoteOpenLatencyMatchesTable73) {
  // Table 7.3: open is 148 us local, 580 us remote (3.9x).
  Cell& home = ts_.cell(1);
  Ctx hctx = home.MakeCtx();
  ASSERT_TRUE(home.fs().Create(hctx, "/o", {}).ok());

  Ctx local_ctx = home.MakeCtx();
  ASSERT_TRUE(home.fs().Open(local_ctx, "/o").ok());

  Cell& client = ts_.cell(0);
  Ctx remote_ctx = client.MakeCtx();
  ASSERT_TRUE(client.fs().Open(remote_ctx, "/o").ok());

  EXPECT_NEAR(static_cast<double>(local_ctx.elapsed), 148000, 2000);
  EXPECT_NEAR(static_cast<double>(remote_ctx.elapsed), 580000, 60000);
  const double ratio =
      static_cast<double>(remote_ctx.elapsed) / static_cast<double>(local_ctx.elapsed);
  EXPECT_GT(ratio, 3.0);
  EXPECT_LT(ratio, 5.0);
}

TEST_F(FileSystemTest, FourMbReadLatenciesMatchTable73) {
  // Table 7.3: 4 MB read is 65.0 ms local, 76.2 ms remote (1.2x).
  const uint64_t size = 4ull * 1024 * 1024;
  Cell& home = ts_.cell(1);
  Ctx hctx = home.MakeCtx();
  ASSERT_TRUE(home.fs().Create(hctx, "/big", workloads::PatternData(3, size)).ok());
  // Warm the home cache.
  auto hh = home.fs().Open(hctx, "/big");
  std::vector<uint8_t> buf(size);
  ASSERT_TRUE(home.fs().Read(hctx, *hh, 0, std::span<uint8_t>(buf)).ok());

  Ctx local_ctx = home.MakeCtx();
  ASSERT_TRUE(home.fs().Read(local_ctx, *hh, 0, std::span<uint8_t>(buf)).ok());

  Cell& client = ts_.cell(0);
  Ctx open_ctx = client.MakeCtx();
  auto ch = client.fs().Open(open_ctx, "/big");
  ASSERT_TRUE(ch.ok());
  Ctx remote_ctx = client.MakeCtx();
  ASSERT_TRUE(client.fs().Read(remote_ctx, *ch, 0, std::span<uint8_t>(buf)).ok());

  EXPECT_NEAR(static_cast<double>(local_ctx.elapsed) / 1e6, 65.0, 2.0);
  EXPECT_NEAR(static_cast<double>(remote_ctx.elapsed) / 1e6, 76.2, 3.0);
}

TEST_F(FileSystemTest, FourMbWriteLatenciesMatchTable73) {
  // Table 7.3: 4 MB write/extend is 83.7 ms local, 87.3 ms remote (1.1x).
  const uint64_t size = 4ull * 1024 * 1024;
  const std::vector<uint8_t> data = workloads::PatternData(5, size);
  Cell& home = ts_.cell(1);
  Ctx hctx = home.MakeCtx();
  ASSERT_TRUE(home.fs().Create(hctx, "/w", {}).ok());
  auto hh = home.fs().Open(hctx, "/w");

  Ctx local_ctx = home.MakeCtx();
  ASSERT_TRUE(home.fs().Write(local_ctx, *hh, 0, std::span<const uint8_t>(data)).ok());

  Cell& client = ts_.cell(0);
  Ctx open_ctx = client.MakeCtx();
  auto ch = client.fs().Open(open_ctx, "/w");
  ASSERT_TRUE(ch.ok());
  Ctx remote_ctx = client.MakeCtx();
  ASSERT_TRUE(client.fs().Write(remote_ctx, *ch, 0, std::span<const uint8_t>(data)).ok());

  EXPECT_NEAR(static_cast<double>(local_ctx.elapsed) / 1e6, 83.7, 2.0);
  EXPECT_NEAR(static_cast<double>(remote_ctx.elapsed) / 1e6, 87.3, 4.0);
}

TEST_F(FileSystemTest, StaleGenerationAfterDirtyPageLoss) {
  Cell& cell = ts_.cell(0);
  Ctx ctx = cell.MakeCtx();
  auto id = cell.fs().Create(ctx, "/gen", workloads::PatternData(9, 4096));
  ASSERT_TRUE(id.ok());
  auto old_handle = cell.fs().Open(ctx, "/gen");
  ASSERT_TRUE(old_handle.ok());

  // A recovery decided a dirty page of this file was lost.
  cell.fs().NoteDirtyPageLost(id->vnode);

  // The pre-failure handle observes an error (section 4.2).
  std::vector<uint8_t> buf(100);
  EXPECT_EQ(cell.fs().Read(ctx, *old_handle, 0, std::span<uint8_t>(buf)).code(),
            base::StatusCode::kStaleGeneration);

  // A fresh open reads whatever is on disk.
  auto new_handle = cell.fs().Open(ctx, "/gen");
  ASSERT_TRUE(new_handle.ok());
  EXPECT_TRUE(cell.fs().Read(ctx, *new_handle, 0, std::span<uint8_t>(buf)).ok());
}

TEST_F(FileSystemTest, SyncWritesDirtyPagesToDisk) {
  Cell& cell = ts_.cell(0);
  Ctx ctx = cell.MakeCtx();
  auto id = cell.fs().Create(ctx, "/sync", {});
  ASSERT_TRUE(id.ok());
  auto handle = cell.fs().Open(ctx, "/sync");
  const std::vector<uint8_t> data = workloads::PatternData(11, 8192);
  ASSERT_TRUE(cell.fs().Write(ctx, *handle, 0, std::span<const uint8_t>(data)).ok());
  EXPECT_LT(cell.fs().FindVnode(id->vnode)->disk_image.size(), 8192u);
  ASSERT_TRUE(cell.fs().Sync(id->vnode).ok());
  const Vnode* vnode = cell.fs().FindVnode(id->vnode);
  ASSERT_EQ(vnode->disk_image.size(), 8192u);
  EXPECT_EQ(workloads::Checksum(vnode->disk_image), workloads::Checksum(data));
}

TEST_F(FileSystemTest, ShadowVnodeReusedAcrossOpens) {
  Cell& home = ts_.cell(1);
  Ctx hctx = home.MakeCtx();
  ASSERT_TRUE(home.fs().Create(hctx, "/s", {}).ok());
  Cell& client = ts_.cell(0);
  Ctx ctx = client.MakeCtx();
  auto h1 = client.fs().Open(ctx, "/s");
  auto h2 = client.fs().Open(ctx, "/s");
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(h2.ok());
  EXPECT_EQ(h1->local_vnode, h2->local_vnode);
  EXPECT_NE(client.fs().FindVnode(h1->local_vnode), nullptr);
  EXPECT_TRUE(client.fs().FindVnode(h1->local_vnode)->is_shadow);
}

TEST_F(FileSystemTest, OpenOfFileOnDeadCellTimesOut) {
  Cell& home = ts_.cell(2);
  Ctx hctx = home.MakeCtx();
  ASSERT_TRUE(home.fs().Create(hctx, "/dead", {}).ok());
  ts_.machine->FailNode(2);
  Cell& client = ts_.cell(0);
  Ctx ctx = client.MakeCtx();
  auto handle = client.fs().Open(ctx, "/dead");
  EXPECT_EQ(handle.status().code(), base::StatusCode::kTimeout);
}

}  // namespace
}  // namespace hive
