#include "src/workloads/raytrace.h"

#include <algorithm>

#include "src/base/log.h"
#include "src/core/filesystem.h"

namespace workloads {
namespace {

constexpr hive::VirtAddr kSceneVa = 0x50000000;

}  // namespace

RaytraceWorkload::RaytraceWorkload(hive::HiveSystem* system, const RaytraceParams& params)
    : system_(system),
      params_(params),
      worker_pids_(std::make_shared<std::vector<hive::ProcId>>()) {}

std::unique_ptr<hive::Behavior> RaytraceWorkload::MakeWorker(int worker, hive::CellId cell) {
  auto behavior =
      std::make_unique<ScriptedBehavior>("raytrace-worker-" + std::to_string(worker));
  const uint64_t page_size = system_->machine().mem().page_size();
  auto out_fd = std::make_shared<int>(-1);
  const std::string out_path = "/out/ray-" + std::to_string(params_.name_seed) + "-tile" +
                               std::to_string(worker);

  // Each block read-faults the slice of the scene it needs before tracing:
  // COW lookups walk to the parent's (possibly remote) tree node with the
  // careful reference protocol, then bind. Spreading the faults over the run
  // models demand paging (and gives COW-corruption faults a window to be
  // discovered, table 7.4's long raytrace detection latencies).
  const uint64_t page_size2 = page_size;
  const uint64_t slice = std::max<uint64_t>(
      1, params_.scene_pages / static_cast<uint64_t>(params_.blocks_per_worker));
  for (int block = 0; block < params_.blocks_per_worker; ++block) {
    const uint64_t first = std::min(params_.scene_pages, static_cast<uint64_t>(block) * slice);
    const uint64_t count = block + 1 == params_.blocks_per_worker
                               ? params_.scene_pages - first
                               : std::min(slice, params_.scene_pages - first);
    if (count > 0) {
      behavior->Add(OpFaultRange(kSceneVa + first * page_size2, count, /*write=*/false));
    }
    behavior->Add(OpCompute(params_.compute_per_block));
    // Re-read already-mapped scene pages while tracing (user-mode reads).
    behavior->Add(OpTouchMapped(kSceneVa + first * page_size2, std::max<uint64_t>(count / 2, 1),
                                /*write=*/false, /*misses_per_page=*/1));
  }

  // Write the result tile to a file on the worker's own cell.
  behavior->Add([out_path, this, cell](Ctx& ctx, Process& proc) -> StepOutcome {
    (void)proc;
    (void)cell;
    auto id = ctx.cell->fs().Create(
        ctx, out_path,
        PatternData(params_.name_seed * 5000 + static_cast<uint64_t>(
                                                   ctx.cell->id() * 100),
                    0));
    return id.ok() ? StepOutcome::kContinue : StepOutcome::kFailed;
  });
  behavior->Add(OpOpen(out_path, out_fd));
  behavior->Add(OpWrite(out_fd, 0, params_.result_bytes,
                        params_.name_seed * 4000 + static_cast<uint64_t>(worker)));
  behavior->Add(OpClose(out_fd));
  return behavior;
}

std::vector<hive::ProcId> RaytraceWorkload::Start() {
  const std::vector<hive::CellId> live = system_->LiveCells();
  CHECK(!live.empty());
  task_group_ = system_->NextTaskGroup();
  const uint64_t page_size = system_->machine().mem().page_size();

  auto parent = std::make_unique<ScriptedBehavior>("raytrace-parent");
  // Build the scene in anonymous memory (write faults populate the parent's
  // COW leaf).
  parent->Add(OpMapAnon(kSceneVa, params_.scene_pages * page_size, /*writable=*/true));
  parent->Add(OpFaultRange(kSceneVa, params_.scene_pages, /*write=*/true));
  parent->Add(OpCompute(200 * hive::kMillisecond));  // Scene preprocessing.

  // Fork one worker per CPU, spread across cells; fork_from_self gives the
  // workers COW access to the scene.
  int worker = 0;
  for (hive::CellId id : live) {
    const size_t cpus = system_->cell(id).cpus().size();
    for (size_t c = 0; c < cpus; ++c) {
      parent->Add(OpFork(id, [this, worker, id] { return MakeWorker(worker, id); },
                         worker_pids_, task_group_, /*fork_from_self=*/true));
      worker_cells_.push_back(id);
      ++worker;
    }
  }
  parent->Add(OpWaitAll(worker_pids_));

  hive::Ctx ctx = system_->cell(live.front()).MakeCtx();
  auto pid = system_->Fork(ctx, params_.parent_cell, std::move(parent), task_group_);
  CHECK(pid.ok());
  parent_pid_ = *pid;
  return {parent_pid_};
}

int RaytraceWorkload::ValidateOutputs() {
  int corrupt = 0;
  for (size_t w = 0; w < worker_pids_->size(); ++w) {
    const hive::CellId cell_id = worker_cells_[w];
    if (!system_->cell(cell_id).alive()) {
      continue;
    }
    hive::Process* proc = system_->cell(cell_id).sched().FindProcess((*worker_pids_)[w]);
    if (proc == nullptr || proc->state() != hive::ProcState::kExited) {
      continue;
    }
    const std::string out_path = "/out/ray-" + std::to_string(params_.name_seed) + "-tile" +
                                 std::to_string(w);
    auto file_id = system_->LookupPath(out_path);
    if (!file_id.ok()) {
      ++corrupt;
      continue;
    }
    const hive::Vnode* vnode =
        system_->cell(file_id->data_home).fs().FindVnode(file_id->vnode);
    if (vnode == nullptr || vnode->disk_image.size() < params_.result_bytes) {
      ++corrupt;
      continue;
    }
    const std::vector<uint8_t> expected =
        PatternData(params_.name_seed * 4000 + w, params_.result_bytes);
    if (!std::equal(expected.begin(), expected.end(), vnode->disk_image.begin())) {
      ++corrupt;
    }
  }
  return corrupt;
}

}  // namespace workloads
