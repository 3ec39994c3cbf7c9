#include "src/core/hive_system.h"

#include <algorithm>

#include "src/base/log.h"
#include "src/base/sim_profile.h"
#include "src/core/cow_tree.h"
#include "src/core/vm_fault.h"

namespace hive {

HiveSystem::HiveSystem(flash::Machine* machine, const HiveOptions& options)
    : machine_(machine), options_(options) {
  CHECK_GT(options.num_cells, 0);
  CHECK(!options.smp_mode || options.num_cells == 1)
      << "the SMP baseline is a single shared-everything kernel";
  CHECK_EQ(machine->config().num_nodes % options.num_cells, 0)
      << "cells own equal node ranges";
  agreement_ = std::make_unique<Agreement>(this, options.agreement_mode);
  recovery_ = std::make_unique<RecoveryManager>(this);
  recovery_->auto_reintegrate = options.auto_reintegrate;
  wax_ = std::make_unique<Wax>(this);
}

HiveSystem::~HiveSystem() = default;

void HiveSystem::Boot() {
  const int nodes_per_cell = machine_->config().num_nodes / options_.num_cells;
  node_to_cell_.resize(static_cast<size_t>(machine_->config().num_nodes));
  for (int c = 0; c < options_.num_cells; ++c) {
    cells_.push_back(std::make_unique<Cell>(this, c, c * nodes_per_cell, nodes_per_cell));
    for (int n = c * nodes_per_cell; n < (c + 1) * nodes_per_cell; ++n) {
      node_to_cell_[static_cast<size_t>(n)] = c;
    }
  }
  if (options_.smp_mode) {
    // The shared-everything baseline has no wild-write defense.
    machine_->firewall().set_checking_enabled(false);
  }
  for (auto& cell : cells_) {
    cell->Boot();
  }
  if (options_.start_wax && !options_.smp_mode && options_.num_cells > 1) {
    wax_->Start(machine_->Now() + Wax::kScanPeriod);
  }
}

CellId HiveSystem::CellOfNode(int node) const {
  return node_to_cell_[static_cast<size_t>(node)];
}

CellId HiveSystem::CellOfCpu(int cpu) const {
  return CellOfNode(cpu / machine_->config().cpus_per_node);
}

CellId HiveSystem::CellOfAddr(PhysAddr addr) const {
  return CellOfNode(static_cast<int>(addr / machine_->config().memory_per_node));
}

bool HiveSystem::CellReachable(CellId cell_id) const {
  const Cell& c = *cells_[static_cast<size_t>(cell_id)];
  if (!c.alive()) {
    return false;
  }
  for (int node = c.first_node(); node < c.first_node() + c.num_nodes(); ++node) {
    if (machine_->NodeDead(node)) {
      return false;
    }
  }
  return true;
}

std::vector<CellId> HiveSystem::LiveCells() const {
  std::vector<CellId> live;
  for (const auto& cell : cells_) {
    if (cell->alive()) {
      live.push_back(cell->id());
    }
  }
  return live;
}

base::Result<FileId> HiveSystem::LookupPath(const std::string& path) const {
  auto it = name_space_.find(path);
  if (it == name_space_.end()) {
    return base::NotFound();
  }
  return it->second;
}

void HiveSystem::RegisterPath(const std::string& path, FileId id) {
  name_space_[path] = id;
}

void HiveSystem::UnregisterPath(const std::string& path) { name_space_.erase(path); }

base::Status HiveSystem::RenamePath(const std::string& from, const std::string& to) {
  auto it = name_space_.find(from);
  if (it == name_space_.end()) {
    return base::NotFound();
  }
  if (name_space_.count(to) > 0) {
    return base::AlreadyExists();
  }
  name_space_[to] = it->second;
  name_space_.erase(it);
  return base::OkStatus();
}

std::vector<std::string> HiveSystem::ListPaths(const std::string& prefix) const {
  std::vector<std::string> matches;
  for (const auto& [path, id] : name_space_) {
    (void)id;
    if (path.compare(0, prefix.size(), prefix) == 0) {
      matches.push_back(path);
    }
  }
  std::sort(matches.begin(), matches.end());
  return matches;
}

CellId HiveSystem::FindProcessCell(ProcId pid) const {
  auto it = pid_to_cell_.find(pid);
  return it == pid_to_cell_.end() ? kInvalidCell : it->second;
}

base::Result<ProcId> HiveSystem::Fork(Ctx& ctx, CellId target,
                                      std::unique_ptr<Behavior> behavior, int64_t task_group,
                                      Process* parent) {
  if (target < 0 || target >= num_cells()) {
    return base::InvalidArgument();
  }
  Cell& tcell = cell(target);
  const bool remote = ctx.cell != nullptr && ctx.cell->id() != target;
  ctx.Charge(costs().fork_local_ns);
  if (remote) {
    // The remote fork is a queued RPC carrying the process image (section
    // 3.3 "forks across cell boundaries").
    ctx.Charge(costs().fork_remote_extra_ns + costs().rpc_queue_service_ns);
    if (!CellReachable(target)) {
      if (ctx.cell != nullptr) {
        ctx.Charge(costs().rpc_client_spin_poll_ns);
        ctx.cell->detector().RaiseHint(ctx, target, HintReason::kRpcTimeout);
      }
      return base::Timeout();
    }
  }
  if (!CellReachable(target)) {
    return base::CellFailed();
  }

  const ProcId pid = NextPid();
  auto proc = std::make_unique<Process>(pid, &tcell, std::move(behavior));
  proc->created_at = ctx.VirtualNow();
  if (task_group >= 0) {
    proc->set_task_group(task_group);
    NoteGroupCell(task_group, target);
  }

  Ctx tctx = tcell.MakeCtx();
  tctx.start = ctx.VirtualNow();

  if (parent != nullptr) {
    // UNIX fork: split the COW tree leaf (paper section 5.3). The child's
    // fresh leaf lives on its own cell; the parent also moves to a fresh
    // leaf so pages it writes after the fork stay invisible to the child.
    Cell* pcell = parent->cell();
    Ctx pctx = pcell->MakeCtx();
    pctx.start = ctx.VirtualNow();

    ASSIGN_OR_RETURN(const PhysAddr child_leaf,
                     tcell.cow().CreateChild(tctx, parent->cow_leaf(), pcell->id()));
    proc->set_cow_leaf(child_leaf);
    ASSIGN_OR_RETURN(const PhysAddr new_parent_leaf,
                     pcell->cow().CreateChild(pctx, parent->cow_leaf(), pcell->id()));
    parent->set_cow_leaf(new_parent_leaf);

    RETURN_IF_ERROR_RESULT(proc->address_space().CopyFrom(tctx, pctx, parent->address_space()));
    proc->parent = parent->pid();
    if (remote || pcell->id() != target) {
      proc->AddDependency(pcell->id());
    }
    ctx.Charge(pctx.elapsed);
  } else {
    ASSIGN_OR_RETURN(const PhysAddr root, tcell.cow().CreateRoot(tctx));
    proc->set_cow_leaf(root);
  }
  ctx.Charge(tctx.elapsed);

  NoteProcessCell(pid, target);
  if (task_group >= 0) {
    group_members_[task_group].push_back(pid);
  }
  tcell.sched().AddProcess(std::move(proc));
  return pid;
}

base::Status HiveSystem::Kill(Ctx& ctx, ProcId pid) {
  const CellId target = FindProcessCell(pid);
  if (target == kInvalidCell) {
    return base::NotFound();
  }
  if (!CellReachable(target)) {
    return base::CellFailed();
  }
  if (ctx.cell != nullptr && ctx.cell->id() != target) {
    RpcArgs args;
    args.w[0] = static_cast<uint64_t>(pid);
    RpcReply reply;
    return ctx.cell->rpc().Call(ctx, target, MsgType::kKillProc, args, &reply);
  }
  Process* proc = cell(target).sched().FindProcess(pid);
  if (proc == nullptr || proc->finished()) {
    return base::NotFound();
  }
  cell(target).sched().KillProcess(ctx, proc, "killed by signal");
  return base::OkStatus();
}

int HiveSystem::SignalGroup(Ctx& ctx, int64_t group) {
  int killed = 0;
  auto it = group_members_.find(group);
  if (it == group_members_.end()) {
    return 0;
  }
  for (ProcId pid : it->second) {
    if (Kill(ctx, pid).ok()) {
      ++killed;
    }
  }
  return killed;
}

base::Result<ProcId> HiveSystem::Migrate(Ctx& ctx, ProcId pid, CellId target) {
  const CellId source = FindProcessCell(pid);
  if (source == kInvalidCell || target < 0 || target >= num_cells()) {
    return base::InvalidArgument();
  }
  if (!CellReachable(source) || !CellReachable(target)) {
    return base::CellFailed();
  }
  Process* proc = cell(source).sched().FindProcess(pid);
  if (proc == nullptr || proc->finished() || proc->behavior() == nullptr) {
    return base::NotFound();
  }
  // Must not be invoked from within the process's own behaviour step; any
  // other moment is safe (events are serialized, so a "running" process is
  // merely awaiting its requeue, which checks the state before re-adding).
  std::unique_ptr<Behavior> behavior = proc->ReleaseBehavior();
  auto new_pid = Fork(ctx, target, std::move(behavior), proc->task_group(), proc);
  if (!new_pid.ok()) {
    return new_pid;
  }
  // The original component is torn down; its COW leaf stays reachable as the
  // parent of the migrated process's fresh leaf.
  Ctx sctx = cell(source).MakeCtx();
  sctx.start = ctx.VirtualNow();
  cell(source).sched().KillProcess(sctx, proc, "migrated to cell " + std::to_string(target));
  ctx.Charge(sctx.elapsed);
  return new_pid;
}

void HiveSystem::NoteCellReintegrated(CellId cell_id) {
  confirmed_failed_.erase(cell_id);
  for (CellId live : LiveCells()) {
    if (live != cell_id) {
      cell(live).rpc().ForgetPeer(cell_id);
    }
  }
}

void HiveSystem::HandleAlert(Ctx& ctx, CellId accuser, CellId suspect, HintReason reason) {
  base::SimProfileScope profile_scope(base::SimSubsystem::kRecovery);
  if (smp_mode() || alert_in_progress_) {
    return;
  }
  if (confirmed_failed_.count(suspect) > 0) {
    return;  // Already handled; late hints are harmless.
  }
  alert_in_progress_ = true;
  LOG(kInfo) << "alert: cell " << accuser << " accuses cell " << suspect << " ("
             << HintReasonName(reason) << ") at t=" << ctx.VirtualNow();

  // All cells temporarily suspend user-level processes while the agreement
  // algorithm runs (section 4.3).
  const AgreementResult result = agreement_->RunRound(ctx, accuser, suspect, reason);
  const Time agreement_done = ctx.VirtualNow();
  for (CellId live : LiveCells()) {
    cell(live).SuspendUsersUntil(agreement_done);
  }

  if (result.confirmed) {
    for (CellId f : result.failed) {
      confirmed_failed_.insert(f);
      cell(f).MarkDead();
      // Every surviving cell records the excision: the failed cell is out of
      // the live set from this moment (its own ring stops at kMarkedDead).
      for (CellId live : LiveCells()) {
        cell(live).Trace(TraceEvent::kCellExcised, static_cast<uint64_t>(f));
      }
    }
    wax_->OnCellFailure();
    const RecoveryStats stats = recovery_->Run(ctx, result.failed);
    if (options_.start_wax && !LiveCells().empty()) {
      // The recovery process starts a fresh incarnation of Wax, which forks
      // to all cells and rebuilds its view from scratch (section 3.2).
      wax_->Restart(stats.barrier2_time + 100 * kMillisecond);
    }
  } else {
    // The accusation was vetoed: the suspect is healthy by majority vote.
    // Tell every live transport so outstanding suspicion decays into a
    // bounded probation instead of an endless hint/quarantine.
    for (CellId live : LiveCells()) {
      if (live != suspect) {
        cell(live).rpc().OnSuspectCleared(suspect);
      }
    }
  }
  alert_in_progress_ = false;
}

bool HiveSystem::RunUntilDone(const std::vector<ProcId>& pids, Time deadline) {
  auto all_done = [&]() {
    return std::all_of(pids.begin(), pids.end(),
                       [this](ProcId pid) { return ProcessFinished(pid); });
  };
  while (machine_->Now() < deadline) {
    if (all_done()) {
      return true;
    }
    if (!machine_->events().Step()) {
      return all_done();
    }
  }
  return all_done();
}

bool HiveSystem::ProcessFinished(ProcId pid) {
  const CellId cell_id = FindProcessCell(pid);
  if (cell_id == kInvalidCell) {
    return true;
  }
  Cell& c = cell(cell_id);
  if (!c.alive()) {
    return true;  // The process died with its cell.
  }
  Process* proc = c.sched().FindProcess(pid);
  return proc == nullptr || proc->finished();
}

bool HiveSystem::AddExitWaiter(ProcId child, ProcId waiter) {
  if (ProcessFinished(child)) {
    return false;
  }
  exit_waiters_[child].push_back(waiter);
  return true;
}

void HiveSystem::NotifyExit(ProcId pid) {
  auto it = exit_waiters_.find(pid);
  if (it == exit_waiters_.end()) {
    return;
  }
  std::vector<ProcId> waiters = std::move(it->second);
  exit_waiters_.erase(it);
  for (ProcId waiter_pid : waiters) {
    // Pids are never reused, so a waiter that died with its cell's old
    // incarnation resolves to nothing on the rebooted cell.
    const CellId cell_id = FindProcessCell(waiter_pid);
    if (cell_id == kInvalidCell || !cell(cell_id).alive()) {
      continue;
    }
    Scheduler& sched = cell(cell_id).sched();
    Process* waiter = sched.FindProcess(waiter_pid);
    if (waiter != nullptr && !waiter->finished()) {
      sched.MakeRunnable(waiter);
    }
  }
}

void HiveSystem::WakeOrphanedWaiters() {
  std::vector<ProcId> orphaned;
  // hive-lint: allow(R10): collection loop only; orphaned is sorted below before waiters are woken.
  for (auto& [child, waiters] : exit_waiters_) {
    (void)waiters;
    if (ProcessFinished(child)) {
      orphaned.push_back(child);
    }
  }
  // Wake in pid order: the hash map's iteration order must not decide which
  // waiter becomes runnable first (determinism purity, lint R10).
  std::sort(orphaned.begin(), orphaned.end());
  for (ProcId child : orphaned) {
    NotifyExit(child);
  }
}

}  // namespace hive
