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

  Process* FindProcess(ProcId pid);

  // Kills a process (recovery / signal); releases its resources.
  void KillProcess(Ctx& ctx, Process* proc, const std::string& reason);

  // Process exit path (normal completion).
  void ExitProcess(Ctx& ctx, Process* proc, StepOutcome outcome);

  // Unfinished processes in pid order. Recovery sweeps and fault injectors
  // walk this index, so their cost follows the live population rather than
  // every process ever forked on the cell. Processes leave it the moment
  // ExitProcess or KillProcess marks them finished.
  const std::map<ProcId, Process*>& live_processes() const { return live_; }
  // Processes ever added, finished ones included (kept for inspection).
  size_t process_count() const { return processes_.size(); }
  size_t runnable() const { return ready_.size(); }
  // High-water mark of the ready queue since boot; the overload signal
  // admission control (Cell::AdmitRequest) reports alongside its shed counts.
  size_t max_runnable() const { return max_runnable_; }
  int64_t context_switches() const { return context_switches_; }
  Time cpu_busy_ns() const { return cpu_busy_ns_; }

 private:
  void RunSlice(int cpu);
  // Pinned continuation slice (grid on): re-runs `proc` on the same CPU
  // while its next steps are declared cell-local, bypassing the ready queue.
  void RunPinnedSlice(int cpu, Process* proc);
  // Schedules proc's next dispatch after a slice left it runnable at
  // `resume`: a pinned slice when it is the sole runnable process with local
  // steps ahead, else the ready-queue wake event.
  void ScheduleResume(int cpu, Process* proc, Time resume);
  // Snaps a dispatch time up to the slice grid (identity when the grid is
  // off). Real kernels dispatch on timer ticks.
  Time AlignDispatch(Time when) const;

  Cell* cell_;
  std::deque<Process*> ready_;
  std::unordered_map<ProcId, std::unique_ptr<Process>> processes_;
  std::map<ProcId, Process*> live_;
  std::vector<bool> cpu_has_event_;  // Guards against duplicate run events.
  std::vector<uint64_t> cpu_event_id_;  // For cancellation at teardown.
  int64_t context_switches_ = 0;
  size_t max_runnable_ = 0;
  Time cpu_busy_ns_ = 0;
};

}  // namespace hive

#endif  // HIVE_SRC_CORE_SCHEDULER_H_
