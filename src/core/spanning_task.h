// Spanning tasks (paper section 3.2): "Hive extends the UNIX process
// abstraction to span cell boundaries. A single parallel process can run
// threads on multiple cells at the same time... Each cell runs a separate
// local process containing the threads that are local to that cell. Shared
// process state such as the address space map is kept consistent among the
// component processes of the spanning task."
//
// The paper lists spanning tasks as not yet implemented (section 3.3); this
// is a working implementation of the architecture it describes: component
// processes on each cell, address-map updates broadcast to every component,
// and group semantics for recovery (the whole task dies if any member's cell
// does).

#ifndef HIVE_SRC_CORE_SPANNING_TASK_H_
#define HIVE_SRC_CORE_SPANNING_TASK_H_

#include <memory>
#include <vector>

#include "src/base/status.h"
#include "src/core/context.h"
#include "src/core/process.h"
#include "src/core/types.h"
#include "src/core/vnode.h"

namespace hive {

class HiveSystem;

class SpanningTask {
 public:
  // Creates one component process per entry of `cells`, with behaviours from
  // `factory(thread_index)`. All components share the task group (recovery
  // kills the whole task if any member cell fails).
  static base::Result<std::unique_ptr<SpanningTask>> Create(
      Ctx& ctx, HiveSystem* system, const std::vector<CellId>& cells,
      const std::function<std::unique_ptr<Behavior>(int)>& factory);

  // Maps a file region into EVERY component's address space, keeping the
  // shared address space map consistent (each remote component is updated
  // through an RPC-cost path). Each component opens the file on its own cell
  // so its generation snapshot and shadow vnode are cell-local.
  base::Status MapFileAll(Ctx& ctx, const std::string& path, VirtAddr va, uint64_t length,
                          bool writable);

  // Signals every component (cross-cell kKillProc RPCs).
  void KillAll(Ctx& ctx);

  const std::vector<ProcId>& pids() const { return pids_; }
  int64_t task_group() const { return task_group_; }

  // True when every still-reachable component has finished.
  bool Finished() const;

 private:
  SpanningTask(HiveSystem* system, int64_t group) : system_(system), task_group_(group) {}

  HiveSystem* system_;
  int64_t task_group_;
  std::vector<ProcId> pids_;
  std::vector<CellId> cells_;
};

}  // namespace hive

#endif  // HIVE_SRC_CORE_SPANNING_TASK_H_
