// Processes and their behaviours. A process's workload is a Behavior that is
// stepped by the scheduler; each step performs one logical operation (compute,
// touch a page, file I/O, fork, barrier, exit) against the kernel API,
// charging simulated time to the execution context.

#ifndef HIVE_SRC_CORE_PROCESS_H_
#define HIVE_SRC_CORE_PROCESS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/core/address_space.h"
#include "src/core/context.h"
#include "src/core/types.h"
#include "src/core/vnode.h"

namespace hive {

class Cell;
class Process;
class UserBarrier;

enum class StepOutcome {
  kContinue,       // More work; reschedule (possibly after quantum end).
  kBlocked,        // Parked on a barrier; the barrier wakes the process.
  kDone,           // Process exits.
  kFailed,         // Process hit an unrecoverable error (e.g. stale file).
};

// A process behaviour. Implementations live in src/workloads.
class Behavior {
 public:
  virtual ~Behavior() = default;

  // Performs one logical operation for `proc`, charging ctx. Kernel services
  // are reached through proc.cell().
  virtual StepOutcome Step(Ctx& ctx, Process& proc) = 0;

  // Human-readable tag for logs and stats.
  virtual std::string name() const = 0;
};

enum class ProcState {
  kReady,
  kRunning,
  kBlocked,
  kExited,
  kKilled,  // Terminated by recovery or signal.
};

// A finished process is a record only: the scheduler releases its behaviour,
// mapping table and file table, and keeps pid, state, created_at,
// finished_at, exit_reason, parent and task group for inspection.
class Process {
 public:
  Process(ProcId pid, Cell* cell, std::unique_ptr<Behavior> behavior);
  ~Process();

  ProcId pid() const { return pid_; }
  Cell* cell() const { return cell_; }
  AddressSpace& address_space() { return address_space_; }
  Behavior* behavior() { return behavior_.get(); }  // Null once finished.
  // Migration support: hands the behaviour (with its progress) to the new
  // component on the destination cell.
  std::unique_ptr<Behavior> ReleaseBehavior() { return std::move(behavior_); }
  // Reduces a finished process to its record: destroys the behaviour and
  // frees the file table (AddressSpace::Teardown freed the mapping table).
  // Never call it while the behaviour's Step is on the stack.
  void ReleaseToRecord();

  ProcState state() const { return state_; }
  void set_state(ProcState s) { state_ = s; }
  bool finished() const { return state_ == ProcState::kExited || state_ == ProcState::kKilled; }

  // COW tree leaf for anonymous pages.
  PhysAddr cow_leaf() const { return cow_leaf_; }
  void set_cow_leaf(PhysAddr addr) { cow_leaf_ = addr; }

  // Task group: processes cooperating as one parallel application. Recovery
  // kills whole groups when any member depended on a failed cell.
  int64_t task_group() const { return task_group_; }
  void set_task_group(int64_t g) { task_group_ = g; }

  // Bitmask of cells whose resources this process uses (imported pages,
  // borrowed frames, remote files, remote parent). Drives the kill policy:
  // "the probability that an application fails is proportional to the amount
  // of resources used by that application" (paper section 2).
  uint64_t dependency_mask() const { return dependency_mask_; }
  void AddDependency(CellId cell_id) {
    if (cell_id >= 0) {
      dependency_mask_ |= 1ull << cell_id;
    }
  }

  // Open files.
  int AddFile(const FileHandle& handle);
  FileHandle* GetFile(int fd);
  void RemoveFile(int fd);
  std::vector<FileHandle> OpenFiles() const;

  // Barrier the process is currently parked on (for kill cleanup).
  UserBarrier* blocked_on() const { return blocked_on_; }
  void set_blocked_on(UserBarrier* barrier) { blocked_on_ = barrier; }

  // Lifetime bookkeeping.
  Time created_at = 0;
  Time finished_at = 0;
  ProcId parent = kInvalidProc;
  std::string exit_reason;

 private:
  ProcId pid_;
  Cell* cell_;
  std::unique_ptr<Behavior> behavior_;
  AddressSpace address_space_;
  ProcState state_ = ProcState::kReady;
  PhysAddr cow_leaf_ = 0;
  int64_t task_group_ = -1;
  uint64_t dependency_mask_ = 0;
  UserBarrier* blocked_on_ = nullptr;
  std::vector<FileHandle> files_;     // Indexed by fd; invalid handles = closed.
};

// User-level barrier for parallel applications (lives in user shared memory
// conceptually; modelled natively). The last arriver releases everyone.
class UserBarrier {
 public:
  explicit UserBarrier(int parties) : parties_(parties) {}

  // Returns kBlocked if the caller must wait, kContinue if it was the last
  // arriver (everyone parked is made runnable).
  StepOutcome Arrive(Ctx& ctx, Process& proc);

  int waiting() const { return static_cast<int>(parked_.size()); }
  // Drops a killed process from the barrier so survivors are not stranded
  // behind it (the barrier degenerates as the app is torn down).
  void RemoveParty(Process* proc);

 private:
  int parties_;
  std::vector<Process*> parked_;
};

}  // namespace hive

#endif  // HIVE_SRC_CORE_PROCESS_H_
