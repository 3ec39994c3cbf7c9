// Per-cell process scheduler. Each cell schedules processes onto its own
// CPUs with quantum-based time slicing; processes execute synchronously in
// simulation events, charging latency to their context.
//
// During failure recovery user-level execution is suspended (paper section
// 4.3): the scheduler re-queues run events until the cell resumes.

#ifndef HIVE_SRC_CORE_SCHEDULER_H_
#define HIVE_SRC_CORE_SCHEDULER_H_

#include <deque>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/core/process.h"
#include "src/core/types.h"

namespace hive {

class Cell;

class Scheduler {
 public:
  explicit Scheduler(Cell* cell);
  ~Scheduler();  // Cancels pending run-slice events (they capture `this`).

  static constexpr Time kQuantum = 10 * kMillisecond;

  // Takes ownership and makes the process runnable.
  Process* AddProcess(std::unique_ptr<Process> proc);

  void MakeRunnable(Process* proc);

  // Called when a CPU may have work: schedules a run-slice event.
  void KickCpu(int cpu);
  void KickAll();

  // Any process added since boot; a finished one is a record only (see
  // Process::ReleaseToRecord).
  Process* FindProcess(ProcId pid);

  // Kills a process (recovery / signal); releases its resources. A victim
  // killed under its own Step keeps its behaviour until the step returns.
  void KillProcess(Ctx& ctx, Process* proc, const std::string& reason);

  // Process exit path (normal completion).
  void ExitProcess(Ctx& ctx, Process* proc, StepOutcome outcome);

  // Unfinished processes in pid order. Recovery sweeps and fault injectors
  // walk this index, so their cost follows the live population rather than
  // every process ever forked on the cell. Processes leave it the moment
  // ExitProcess or KillProcess marks them finished.
  const std::map<ProcId, Process*>& live_processes() const { return live_; }
  // Processes added since boot, finished ones included (record only).
  size_t process_count() const { return processes_.size(); }
  size_t runnable() const { return ready_.size(); }
  // High-water mark of the ready queue since boot; the overload signal
  // admission control (Cell::AdmitRequest) reports alongside its shed counts.
  size_t max_runnable() const { return max_runnable_; }
  Time cpu_busy_ns() const { return cpu_busy_ns_; }

 private:
  void RunSlice(int cpu);
  // Requeues `proc` at `resume`, when the slice that left it runnable frees
  // its CPU.
  void ScheduleResume(Process* proc, Time resume);

  Cell* cell_;
  std::deque<Process*> ready_;
  std::unordered_map<ProcId, std::unique_ptr<Process>> processes_;
  std::map<ProcId, Process*> live_;
  Process* stepping_ = nullptr;  // Whose Behavior::Step is on the stack.
  std::vector<bool> cpu_has_event_;  // Guards against duplicate run events.
  std::vector<uint64_t> cpu_event_id_;  // For cancellation at teardown.
  size_t max_runnable_ = 0;
  Time cpu_busy_ns_ = 0;
};

}  // namespace hive

#endif  // HIVE_SRC_CORE_SCHEDULER_H_
