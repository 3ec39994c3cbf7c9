#include "src/workloads/ocean.h"

#include "src/base/log.h"
#include "src/core/filesystem.h"

namespace workloads {
namespace {

constexpr hive::VirtAddr kGridVa = 0x40000000;

}  // namespace

OceanWorkload::OceanWorkload(hive::HiveSystem* system, const OceanParams& params)
    : system_(system), params_(params) {}

std::string OceanWorkload::SegmentPath() const {
  return "/shm/ocean-" + std::to_string(params_.name_seed);
}

void OceanWorkload::Setup() {
  hive::Cell& home = system_->cell(params_.segment_home);
  hive::Ctx ctx = home.MakeCtx();
  const uint64_t page_size = system_->machine().mem().page_size();
  auto id = home.fs().Create(ctx, SegmentPath(),
                             PatternData(params_.name_seed, params_.grid_pages * page_size));
  CHECK(id.ok()) << "ocean setup failed";
  // Warm the file cache before the run (paper section 7.3).
  for (uint64_t p = 0; p < params_.grid_pages; ++p) {
    auto got = home.fs().GetPageLocal(ctx, id->vnode, p, /*want_write=*/false);
    CHECK(got.ok());
    (*got)->refcount--;
  }
}

std::unique_ptr<hive::Behavior> OceanWorkload::MakeThread(int thread, int num_threads) {
  auto behavior = std::make_unique<ScriptedBehavior>("ocean-thread-" + std::to_string(thread));
  const uint64_t page_size = system_->machine().mem().page_size();
  auto fd = std::make_shared<int>(-1);

  behavior->Add(OpOpen(SegmentPath(), fd));
  behavior->Add(OpMapFile(fd, kGridVa, params_.grid_pages * page_size, /*writable=*/true));

  // Initialization: fault the thread's partition (writable region -> the
  // whole cell gets write access, section 4.2).
  const uint64_t part_pages = params_.grid_pages / static_cast<uint64_t>(num_threads);
  const uint64_t part_start = static_cast<uint64_t>(thread) * part_pages;
  behavior->Add(OpFaultRange(kGridVa + part_start * page_size, part_pages, /*write=*/true));

  for (int step = 0; step < params_.timesteps; ++step) {
    behavior->Add(OpCompute(params_.compute_per_step));
    // Relaxation sweep over the partition plus a halo of neighbour pages.
    const uint64_t touch_start =
        part_start * page_size +
        (static_cast<uint64_t>(step) % 4) * static_cast<uint64_t>(params_.touches_per_step) *
            page_size / 4;
    behavior->Add(OpTouchMapped(kGridVa + touch_start,
                                static_cast<uint64_t>(params_.touches_per_step),
                                /*write=*/true, params_.remote_touch_misses,
                                /*per_step=*/256, params_.contended_miss_ns));
    // Halo exchange: write the first pages of the next partition (stencil
    // boundary), so adjacent threads genuinely write-share those pages.
    if (params_.halo_pages > 0) {
      const uint64_t next_start =
          (static_cast<uint64_t>(thread + 1) % static_cast<uint64_t>(num_threads)) *
          part_pages;
      behavior->Add(OpTouchMapped(kGridVa + next_start * page_size,
                                  static_cast<uint64_t>(params_.halo_pages),
                                  /*write=*/true, params_.remote_touch_misses,
                                  /*per_step=*/256, params_.contended_miss_ns));
    }
    behavior->Add(OpBarrier(barriers_[static_cast<size_t>(step)]));
  }
  behavior->Add(OpClose(fd));
  return behavior;
}

std::vector<hive::ProcId> OceanWorkload::Start() {
  const std::vector<hive::CellId> live = system_->LiveCells();
  CHECK(!live.empty());
  int num_threads = 0;
  for (hive::CellId id : live) {
    num_threads += static_cast<int>(system_->cell(id).cpus().size());
  }
  barriers_.clear();
  for (int step = 0; step < params_.timesteps; ++step) {
    barriers_.push_back(std::make_shared<hive::UserBarrier>(num_threads));
  }

  task_group_ = system_->NextTaskGroup();
  hive::Ctx ctx = system_->cell(live.front()).MakeCtx();
  int thread = 0;
  for (hive::CellId id : live) {
    for (size_t c = 0; c < system_->cell(id).cpus().size(); ++c) {
      auto pid = system_->Fork(ctx, id, MakeThread(thread, num_threads), task_group_);
      CHECK(pid.ok());
      pids_.push_back(*pid);
      ++thread;
    }
  }
  return pids_;
}

}  // namespace workloads
