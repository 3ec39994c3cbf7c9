#include "src/core/spanning_task.h"

#include "src/base/log.h"
#include "src/core/cell.h"
#include "src/core/filesystem.h"
#include "src/core/hive_system.h"

namespace hive {

base::Result<std::unique_ptr<SpanningTask>> SpanningTask::Create(
    Ctx& ctx, HiveSystem* system, const std::vector<CellId>& cells,
    const std::function<std::unique_ptr<Behavior>(int)>& factory) {
  if (cells.empty()) {
    return base::InvalidArgument();
  }
  auto task = std::unique_ptr<SpanningTask>(
      new SpanningTask(system, system->NextTaskGroup()));
  int thread = 0;
  for (CellId cell_id : cells) {
    ASSIGN_OR_RETURN(const ProcId pid,
                     system->Fork(ctx, cell_id, factory(thread), task->task_group_));
    task->pids_.push_back(pid);
    task->cells_.push_back(cell_id);
    ++thread;
  }
  return task;
}

base::Status SpanningTask::MapFileAll(Ctx& ctx, const std::string& path, VirtAddr va,
                                      uint64_t length, bool writable) {
  // Keeping the shared address space map consistent: the update is applied on
  // every component's cell; remote components pay an RPC round (section 3.2).
  for (size_t i = 0; i < pids_.size(); ++i) {
    Cell& cell = system_->cell(cells_[i]);
    if (!cell.alive()) {
      return base::CellFailed();
    }
    Process* proc = cell.sched().FindProcess(pids_[i]);
    if (proc == nullptr || proc->finished()) {
      return base::NotFound();
    }
    Ctx mctx = cell.MakeCtx();
    mctx.start = ctx.VirtualNow();
    auto handle = cell.fs().Open(mctx, path);
    if (!handle.ok()) {
      return handle.status();
    }
    proc->AddFile(*handle);
    RETURN_IF_ERROR(proc->address_space().MapFile(mctx, va, length, *handle, writable));
    if (cells_[i] != ctx.cell->id()) {
      ctx.Charge(ctx.cell->costs().NullRpcNs(ctx.cell->machine().config().latency));
    }
    ctx.Charge(mctx.elapsed);
  }
  return base::OkStatus();
}

void SpanningTask::KillAll(Ctx& ctx) {
  for (size_t i = 0; i < pids_.size(); ++i) {
    Cell& cell = system_->cell(cells_[i]);
    if (!cell.alive()) {
      continue;
    }
    if (cells_[i] == ctx.cell->id()) {
      Process* proc = cell.sched().FindProcess(pids_[i]);
      if (proc != nullptr) {
        cell.sched().KillProcess(ctx, proc, "spanning task killed");
      }
      continue;
    }
    RpcArgs args;
    args.w[0] = static_cast<uint64_t>(pids_[i]);
    RpcReply reply;
    (void)ctx.cell->rpc().Call(ctx, cells_[i], MsgType::kKillProc, args, &reply);
  }
}

bool SpanningTask::Finished() const {
  for (size_t i = 0; i < pids_.size(); ++i) {
    Cell& cell = system_->cell(cells_[i]);
    if (!cell.alive()) {
      continue;
    }
    Process* proc = cell.sched().FindProcess(pids_[i]);
    if (proc != nullptr && !proc->finished()) {
      return false;
    }
  }
  return true;
}

}  // namespace hive
