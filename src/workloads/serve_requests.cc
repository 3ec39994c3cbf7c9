#include "src/workloads/serve_requests.h"

#include <algorithm>

namespace workloads {
namespace {

constexpr uint64_t kChunk = 4096;          // One page of file I/O per access.
constexpr hive::VirtAddr kAnonBase = 0x40000000;  // Private per-process space.

// SplitMix64 finalizer: decorrelates the per-request offsets drawn from one
// tenant's consecutive request seeds.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// A chunk-aligned offset whose whole chunk lies inside the file.
uint64_t ChunkOffset(uint64_t seed, uint64_t file_size) {
  const uint64_t chunks = std::max<uint64_t>(file_size / kChunk, 1);
  return (Mix(seed) % chunks) * kChunk;
}

}  // namespace

std::unique_ptr<ScriptedBehavior> MakeReadRequest(const ServeRequestParams& params) {
  auto behavior = std::make_unique<ScriptedBehavior>("serve-read");
  auto fd = std::make_shared<int>(-1);
  behavior->Add(OpOpen(params.data_path, fd));
  behavior->Add(OpRead(fd, ChunkOffset(params.request_seed, params.file_size), kChunk,
                       params.file_seed));
  behavior->Add(OpRead(fd, ChunkOffset(params.request_seed + 1, params.file_size), kChunk,
                       params.file_seed));
  behavior->Add(OpClose(fd));
  behavior->Add(OpCompute(100 * hive::kMicrosecond, 100 * hive::kMicrosecond));
  return behavior;
}

std::unique_ptr<ScriptedBehavior> MakeWriteRequest(const ServeRequestParams& params) {
  auto behavior = std::make_unique<ScriptedBehavior>("serve-write");
  auto fd = std::make_shared<int>(-1);
  behavior->Add(OpOpen(params.data_path, fd));
  // Writes re-write the tenant's own pattern stream at the drawn offset, so
  // the file always verifies against PatternData(file_seed): a recovery that
  // drops the dirty page reverts bytes to identical on-disk content, and
  // concurrent readers of any offset still validate. The write path (dirty
  // pages, pageout, generation bumps) is exercised all the same.
  behavior->Add(OpWrite(fd, ChunkOffset(params.request_seed + 2, params.file_size), kChunk,
                        params.file_seed));
  behavior->Add(OpClose(fd));
  behavior->Add(OpCompute(50 * hive::kMicrosecond, 50 * hive::kMicrosecond));
  return behavior;
}

std::unique_ptr<ScriptedBehavior> MakeFaultRequest(const ServeRequestParams& params) {
  auto behavior = std::make_unique<ScriptedBehavior>("serve-fault");
  const uint64_t pages = 8 + (Mix(params.request_seed) % 8);  // 8..15 pages.
  const uint64_t page_size = 4096;
  // Two disjoint regions so the process's address map has at least two
  // entries -- the structure the addr-map-corruption fault family targets.
  behavior->Add(OpMapAnon(kAnonBase, pages * page_size, /*writable=*/true));
  behavior->Add(OpMapAnon(kAnonBase + (1 << 20), 2 * page_size, /*writable=*/true));
  behavior->Add(OpFaultRange(kAnonBase + (1 << 20), 2, /*write=*/true));
  behavior->Add(OpFaultRange(kAnonBase, pages, /*write=*/true));
  behavior->Add(OpTouchMapped(kAnonBase, pages, /*write=*/true, /*misses_per_page=*/4));
  behavior->Add(OpCompute(50 * hive::kMicrosecond, 50 * hive::kMicrosecond));
  return behavior;
}

std::unique_ptr<ScriptedBehavior> MakeMetadataRequest(const ServeRequestParams& params) {
  auto behavior = std::make_unique<ScriptedBehavior>("serve-metadata");
  behavior->Add(OpMetadataOps(24, params.home));
  behavior->Add(OpCompute(50 * hive::kMicrosecond, 50 * hive::kMicrosecond));
  return behavior;
}

std::unique_ptr<ScriptedBehavior> MakeForkBurstRequest(const ServeRequestParams& params,
                                                       int children) {
  auto behavior = std::make_unique<ScriptedBehavior>("serve-forkburst");
  auto pids = std::make_shared<std::vector<hive::ProcId>>();
  for (int i = 0; i < children; ++i) {
    // Children are pure local compute; the churn under test is the fork and
    // exit traffic itself, not the children's work.
    behavior->Add(OpFork(hive::kInvalidCell,
                         [] {
                           auto child = std::make_unique<ScriptedBehavior>("burst-child");
                           child->Add(OpCompute(200 * hive::kMicrosecond,
                                                200 * hive::kMicrosecond));
                           return child;
                         },
                         pids));
  }
  behavior->Add(OpWaitAll(pids));
  (void)params;
  return behavior;
}

}  // namespace workloads
