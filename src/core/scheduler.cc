#include "src/core/scheduler.h"

#include <algorithm>

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

void Scheduler::KickCpu(int cpu_index) {
  if (!cell_->alive() || cpu_has_event_[static_cast<size_t>(cpu_index)] || ready_.empty()) {
    return;
  }
  const int cpu_id = cell_->cpus()[static_cast<size_t>(cpu_index)];
  flash::Machine& machine = cell_->machine();
  if (machine.cpu(cpu_id).halted) {
    return;
  }
  const Time when = std::max({machine.Now(), machine.cpu(cpu_id).free_at,
                             cell_->user_suspended_until()});
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
  stepping_ = proc;
  const bool survived = cell_->RunKernel("during process execution", [&] {
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
  });
  stepping_ = nullptr;
  if (proc->finished()) {
    proc->ReleaseToRecord();  // Killed under its own Step; see KillProcess.
  }
  if (!survived) {
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
        ScheduleResume(proc, now + ctx.elapsed);
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

void Scheduler::ScheduleResume(Process* proc, Time resume) {
  // Captures (cell, pid), not (this, proc): a reboot-storm kill/rejoin cycle
  // replaces the scheduler and frees every process while wake events are
  // still in flight. Pids are system-global and never reused, so resolving
  // through the current scheduler either finds the same process or nothing.
  Cell* cell = cell_;
  const ProcId pid = proc->pid();
  cell_->machine().events().ScheduleAt(resume, [cell, pid] {
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
  proc->ReleaseToRecord();  // Step has returned: RunSlice exits it after the loop.
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
  if (proc != stepping_) {
    // A victim killed from inside its own Step (SignalGroup on its own
    // group, or recovery reached through an RPC in the step) keeps its
    // behaviour until RunSlice regains control.
    proc->ReleaseToRecord();
  }
  cell_->Trace(TraceEvent::kProcessKilled, static_cast<uint64_t>(proc->pid()));
  cell_->system()->NotifyExit(proc->pid());
}

}  // namespace hive
