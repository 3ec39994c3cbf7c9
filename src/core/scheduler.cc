#include "src/core/scheduler.h"

#include <algorithm>

#include "src/base/log.h"
#include "src/base/sim_profile.h"
#include "src/core/cell.h"
#include "src/core/cow_tree.h"
#include "src/core/filesystem.h"
#include "src/core/hive_system.h"

namespace hive {

Scheduler::Scheduler(Cell* cell) : cell_(cell) {
  cpu_has_event_.resize(cell->cpus().size(), false);
  cpu_event_id_.resize(cell->cpus().size(), 0);
}

Scheduler::~Scheduler() {
  for (uint64_t id : cpu_event_id_) {
    if (id != 0) {
      cell_->machine().events().Cancel(id);
    }
  }
}

Process* Scheduler::AddProcess(std::unique_ptr<Process> proc) {
  Process* raw = proc.get();
  processes_[raw->pid()] = std::move(proc);
  live_[raw->pid()] = raw;
  MakeRunnable(raw);
  return raw;
}

Process* Scheduler::FindProcess(ProcId pid) {
  auto it = processes_.find(pid);
  return it == processes_.end() ? nullptr : it->second.get();
}

void Scheduler::MakeRunnable(Process* proc) {
  if (proc->finished()) {
    return;
  }
  proc->set_state(ProcState::kReady);
  ready_.push_back(proc);
  if (ready_.size() > max_runnable_) {
    max_runnable_ = ready_.size();
  }
  KickAll();
}

void Scheduler::KickAll() {
  for (size_t i = 0; i < cell_->cpus().size(); ++i) {
    KickCpu(static_cast<int>(i));
  }
}

Time Scheduler::AlignDispatch(Time when) const {
  const Time grid = cell_->machine().slice_grid_ns();
  if (grid == 0) {
    return when;
  }
  // Strictly-next grid point, even when `when` is already aligned; every
  // golden fingerprint is captured with this rounding.
  return (when / grid + 1) * grid;
}

void Scheduler::KickCpu(int cpu_index) {
  if (!cell_->alive() || cpu_has_event_[static_cast<size_t>(cpu_index)] || ready_.empty()) {
    return;
  }
  const int cpu_id = cell_->cpus()[static_cast<size_t>(cpu_index)];
  flash::Machine& machine = cell_->machine();
  if (machine.cpu(cpu_id).halted) {
    return;
  }
  const Time when = AlignDispatch(std::max({machine.Now(), machine.cpu(cpu_id).free_at,
                                            cell_->user_suspended_until()}));
  cpu_has_event_[static_cast<size_t>(cpu_index)] = true;
  cpu_event_id_[static_cast<size_t>(cpu_index)] =
      machine.events().ScheduleAt(when, [this, cpu_index] { RunSlice(cpu_index); });
}

void Scheduler::RunSlice(int cpu_index) {
  base::SimProfileScope profile_scope(base::SimSubsystem::kScheduler);
  cpu_has_event_[static_cast<size_t>(cpu_index)] = false;
  cpu_event_id_[static_cast<size_t>(cpu_index)] = 0;
  if (!cell_->alive()) {
    return;
  }
  flash::Machine& machine = cell_->machine();
  const int cpu_id = cell_->cpus()[static_cast<size_t>(cpu_index)];
  if (machine.cpu(cpu_id).halted) {
    return;
  }
  const Time now = machine.Now();
  if (now < cell_->user_suspended_until() || now < machine.cpu(cpu_id).free_at) {
    // Re-arm for when user execution resumes / the CPU frees up.
    KickCpu(cpu_index);
    return;
  }

  // Pop the next ready process (skipping any killed while queued).
  Process* proc = nullptr;
  while (!ready_.empty()) {
    Process* candidate = ready_.front();
    ready_.pop_front();
    if (!candidate->finished() && candidate->state() == ProcState::kReady) {
      proc = candidate;
      break;
    }
  }
  if (proc == nullptr) {
    return;
  }

  ++context_switches_;
  proc->set_state(ProcState::kRunning);
  Ctx ctx;
  ctx.cell = cell_;
  ctx.cpu = cpu_id;
  ctx.start = now;

  StepOutcome outcome = StepOutcome::kContinue;
  if (!cell_->RunKernel("during process execution", [&] {
        while (ctx.elapsed < kQuantum) {
          const Time before = ctx.elapsed;
          outcome = proc->behavior()->Step(ctx, *proc);
          if (ctx.elapsed == before) {
            // Zero-cost steps would spin the quantum loop forever; charge a
            // cycle's worth of progress as a backstop.
            ctx.Charge(1000);
          }
          if (outcome != StepOutcome::kContinue || proc->finished() || !cell_->alive()) {
            break;
          }
        }
      })) {
    return;
  }

  machine.cpu(cpu_id).free_at = now + ctx.elapsed;
  cpu_busy_ns_ += ctx.elapsed;
  if (!cell_->alive()) {
    return;
  }

  switch (outcome) {
    case StepOutcome::kContinue:
      if (!proc->finished()) {
        // The slice occupies the CPU until now + elapsed; the process is not
        // runnable (anywhere) before then, or it could execute on two CPUs
        // in the same simulated instant.
        ScheduleResume(cpu_index, proc, now + ctx.elapsed);
      }
      break;
    case StepOutcome::kBlocked:
      if (proc->state() == ProcState::kRunning) {
        proc->set_state(ProcState::kBlocked);
      }
      // If the barrier already released us (we were the last arriver racing
      // with MakeRunnable), state is kReady and the process is queued.
      break;
    case StepOutcome::kDone:
    case StepOutcome::kFailed:
      ExitProcess(ctx, proc, outcome);
      break;
  }
  KickCpu(cpu_index);
}

void Scheduler::ScheduleResume(int cpu_index, Process* proc, Time resume) {
  flash::Machine& machine = cell_->machine();
  if (machine.slice_grid_ns() > 0 && ready_.empty() &&
      proc->state() == ProcState::kRunning && proc->behavior()->NextStepLocal()) {
    // Sole runnable process with pure-compute steps ahead: keep it pinned to
    // this CPU at `resume`, off the grid, with no ready-queue round trip.
    cpu_has_event_[static_cast<size_t>(cpu_index)] = true;
    cpu_event_id_[static_cast<size_t>(cpu_index)] = machine.events().ScheduleAt(
        resume, [this, cpu_index, proc] { RunPinnedSlice(cpu_index, proc); });
    return;
  }
  // Captures (cell, pid), not (this, proc): a reboot-storm kill/rejoin cycle
  // replaces the scheduler and frees every process while wake events are
  // still in flight. Pids are system-global and never reused, so resolving
  // through the current scheduler either finds the same process or nothing.
  Cell* cell = cell_;
  const ProcId pid = proc->pid();
  machine.events().ScheduleAt(resume, [cell, pid] {
    if (!cell->alive()) {
      return;
    }
    Scheduler& sched = cell->sched();
    Process* woken = sched.FindProcess(pid);
    if (woken != nullptr && !woken->finished() &&
        woken->state() == ProcState::kRunning) {
      sched.MakeRunnable(woken);
    }
  });
}

void Scheduler::RunPinnedSlice(int cpu_index, Process* proc) {
  base::SimProfileScope profile_scope(base::SimSubsystem::kScheduler);
  cpu_has_event_[static_cast<size_t>(cpu_index)] = false;
  cpu_event_id_[static_cast<size_t>(cpu_index)] = 0;
  if (!cell_->alive()) {
    return;
  }
  flash::Machine& machine = cell_->machine();
  const int cpu_id = cell_->cpus()[static_cast<size_t>(cpu_index)];
  if (machine.cpu(cpu_id).halted) {
    return;
  }
  if (proc->finished() || proc->state() != ProcState::kRunning) {
    // Killed or woken elsewhere between slices (recovery sweep): free the CPU
    // for whoever is ready.
    KickCpu(cpu_index);
    return;
  }
  const Time now = machine.Now();
  if (now < cell_->user_suspended_until() || now < machine.cpu(cpu_id).free_at) {
    // A suspension landed between slices; go back through the normal
    // (grid-aligned) dispatch path.
    MakeRunnable(proc);
    return;
  }

  ++context_switches_;
  Ctx ctx;
  ctx.cell = cell_;
  ctx.cpu = cpu_id;
  ctx.start = now;
  StepOutcome outcome = StepOutcome::kContinue;
  while (ctx.elapsed < kQuantum && proc->behavior()->NextStepLocal()) {
    const Time before = ctx.elapsed;
    outcome = proc->behavior()->Step(ctx, *proc);
    // This loop has no block, exit or panic path (RunSlice does): a "local"
    // step that blocks, exits, fails, or kills the cell broke the
    // NextStepLocal contract. Fail loudly.
    CHECK(outcome == StepOutcome::kContinue && !proc->finished() && cell_->alive())
        << "step declared cell-local by " << proc->behavior()->name()
        << " had non-local effects";
    if (ctx.elapsed == before) {
      ctx.Charge(1000);  // Same zero-cost backstop as RunSlice.
    }
  }
  machine.cpu(cpu_id).free_at = now + ctx.elapsed;
  cpu_busy_ns_ += ctx.elapsed;
  ScheduleResume(cpu_index, proc, now + ctx.elapsed);
}

void Scheduler::ExitProcess(Ctx& ctx, Process* proc, StepOutcome outcome) {
  ctx.Charge(cell_->costs().exit_ns);
  // Close files (write-behind on locally-homed dirty data).
  for (FileHandle handle : proc->OpenFiles()) {
    cell_->fs().Close(ctx, handle);
  }
  proc->address_space().Teardown(ctx);
  if (proc->cow_leaf() != 0) {
    cell_->cow().FreeNode(ctx, proc->cow_leaf());
    proc->set_cow_leaf(0);
  }
  proc->set_state(outcome == StepOutcome::kDone ? ProcState::kExited : ProcState::kKilled);
  live_.erase(proc->pid());
  if (outcome == StepOutcome::kFailed && proc->exit_reason.empty()) {
    proc->exit_reason = "behavior reported failure";
  }
  proc->finished_at = ctx.VirtualNow();
  // The exit takes effect when the slice's work completes, not at the event's
  // start time; waiters wake at the logically correct instant.
  // Captures the cell, not `this`: the notify may outlive this scheduler if a
  // reboot lands between the exit and the event (the cell object is stable).
  const ProcId pid = proc->pid();
  Cell* cell = cell_;
  cell_->machine().events().ScheduleAt(ctx.VirtualNow(), [cell, pid] {
    cell->system()->NotifyExit(pid);
  });
}

void Scheduler::KillProcess(Ctx& ctx, Process* proc, const std::string& reason) {
  if (proc->finished()) {
    return;
  }
  if (proc->blocked_on() != nullptr) {
    proc->blocked_on()->RemoveParty(proc);
    proc->set_blocked_on(nullptr);
  }
  for (FileHandle handle : proc->OpenFiles()) {
    // No sync on a kill path; just drop references.
    (void)handle;
  }
  proc->address_space().Teardown(ctx);
  if (proc->cow_leaf() != 0) {
    cell_->cow().FreeNode(ctx, proc->cow_leaf());
    proc->set_cow_leaf(0);
  }
  proc->set_state(ProcState::kKilled);
  live_.erase(proc->pid());
  proc->exit_reason = reason;
  proc->finished_at = ctx.VirtualNow();
  cell_->Trace(TraceEvent::kProcessKilled, static_cast<uint64_t>(proc->pid()));
  cell_->system()->NotifyExit(proc->pid());
}

}  // namespace hive
