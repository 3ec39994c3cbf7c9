// HiveSystem boots and coordinates the set of cells on one machine, and
// provides the pieces of the single-system image that live above individual
// kernels: the global file name space, global process ids, remote fork, the
// distributed agreement + recovery machinery, and Wax.
//
// Booted with one cell and smp_mode = true, the same code acts as the
// shared-everything SMP OS baseline of the paper's evaluation (IRIX stand-in):
// no firewall checking, no clock monitoring, no multicellular tax.

#ifndef HIVE_SRC_CORE_HIVE_SYSTEM_H_
#define HIVE_SRC_CORE_HIVE_SYSTEM_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/core/agreement.h"
#include "src/core/cell.h"
#include "src/core/costs.h"
#include "src/core/recovery.h"
#include "src/core/slo.h"
#include "src/core/types.h"
#include "src/core/vnode.h"
#include "src/core/wax.h"
#include "src/flash/machine.h"

namespace hive {

struct HiveOptions {
  int num_cells = 4;
  bool smp_mode = false;  // Single-kernel baseline (must have num_cells == 1).
  AgreementMode agreement_mode = AgreementMode::kOracle;
  FirewallPolicy firewall_policy = FirewallPolicy::kBitVector;
  // CC-NUMA placement (paper section 5.5): a data home caches pages faulted
  // by a remote client in frames borrowed from the client's own memory, so
  // the client's accesses stay node-local. The frame is simultaneously
  // loaned out and imported back through the pre-existing pfdat.
  bool numa_placement = false;
  bool start_wax = true;
  bool auto_reintegrate = false;
  // Page salvage (off by default; preemptive discard is the paper's
  // behaviour): during recovery's discard walk, pages provably untouched by
  // the failed cell -- no hardware write permission at failure time, or a
  // matching content checksum recorded at the last checked write -- are kept
  // instead of discarded.
  bool salvage_pages = false;
  // Salvage proof verification. Turning this off (while salvage_pages is on)
  // is the seeded --bug=salvage_unchecked fixture: salvage adopts every
  // candidate without recomputing its checksum, so a wild-written page can be
  // adopted corrupt and the no-corrupt-adoption oracle must trip.
  bool salvage_verify = true;
  // Live rejoin (off by default; reintegration is otherwise a quiet reboot):
  // a reintegrated cell re-enters the RPC transport and the frame economy
  // under load -- null-pings every survivor under its new incarnation epoch
  // and re-borrows/returns a frame batch -- before it counts as converged.
  bool live_rejoin = false;
  // Debug-mode audit: after every recovery round, cross-check firewall
  // vectors against kernel bookkeeping (see invariant_checker.h).
  bool audit_invariants = true;
  // Admission-control watermarks (graceful degradation, 0 = unlimited): a
  // cell sheds new requests -- traced as kAdmissionShed and counted against
  // availability by the SLO recorder -- once its ready queue or kernel heap
  // crosses the watermark, instead of queueing until requests hang.
  size_t admit_runq_watermark = 0;
  uint64_t admit_heap_watermark_bytes = 0;
  KernelCosts costs;
};

class HiveSystem {
 public:
  HiveSystem(flash::Machine* machine, const HiveOptions& options);
  ~HiveSystem();

  HiveSystem(const HiveSystem&) = delete;
  HiveSystem& operator=(const HiveSystem&) = delete;

  // Boots all cells, starts clocks and Wax.
  void Boot();

  // --- Topology. ---
  flash::Machine& machine() { return *machine_; }
  const HiveOptions& options() const { return options_; }
  const KernelCosts& costs() const { return options_.costs; }
  bool smp_mode() const { return options_.smp_mode; }

  int num_cells() const { return static_cast<int>(cells_.size()); }
  Cell& cell(CellId id) { return *cells_[static_cast<size_t>(id)]; }
  CellId CellOfNode(int node) const;
  CellId CellOfCpu(int cpu) const;
  CellId CellOfAddr(PhysAddr addr) const;
  std::vector<CellId> LiveCells() const;
  // Kernel up AND its hardware alive (a freshly failed node may not yet be
  // reflected in the cell state).
  bool CellReachable(CellId cell_id) const;

  // --- Global file name space. ---
  base::Result<FileId> LookupPath(const std::string& path) const;
  void RegisterPath(const std::string& path, FileId id);
  void UnregisterPath(const std::string& path);
  // Atomic rename within the globally coherent name space.
  base::Status RenamePath(const std::string& from, const std::string& to);
  // All registered paths with the given prefix (directory listing).
  std::vector<std::string> ListPaths(const std::string& prefix) const;

  // --- Global process management (single-system image). ---
  ProcId NextPid() { return next_pid_++; }
  int64_t NextTaskGroup() { return next_task_group_++; }
  void NoteProcessCell(ProcId pid, CellId cell_id) { pid_to_cell_[pid] = cell_id; }
  CellId FindProcessCell(ProcId pid) const;

  // Task groups: which cells host members (drives the recovery kill policy).
  void NoteGroupCell(int64_t group, CellId cell_id) {
    group_cells_[group] |= 1ull << cell_id;
  }
  const std::vector<ProcId>& GroupMembers(int64_t group) {
    return group_members_[group];
  }

  // --- Distributed process groups and signal delivery (paper section 3.3,
  // part of the implemented single-system image). ---

  // Delivers a fatal signal to one process, wherever it runs (cross-cell
  // delivery goes through the kKillProc RPC).
  base::Status Kill(Ctx& ctx, ProcId pid);

  // Signals every member of a process group across all cells. Returns the
  // number of processes terminated.
  int SignalGroup(Ctx& ctx, int64_t group);
  uint64_t GroupCells(int64_t group) const {
    auto it = group_cells_.find(group);
    return it == group_cells_.end() ? 0 : it->second;
  }

  // A failed cell passed diagnostics and rebooted: future failures of it are
  // detectable again, and every live transport drops its stale per-peer
  // state (the fresh kernel restarts RPC sequence numbers, so old replay
  // cache entries must not suppress its new calls).
  void NoteCellReintegrated(CellId cell_id);

  // True once agreement confirmed this cell failed (detectors stop watching
  // it; a silently-dead cell is still watched until confirmed).
  bool CellConfirmedFailed(CellId cell_id) const {
    return confirmed_failed_.count(cell_id) > 0;
  }

  // --- wait()/exit() plumbing (blocking waits instead of polling). ---

  // True if the process exited, was killed, or went down with its cell.
  bool ProcessFinished(ProcId pid);
  // Parks process `waiter` until `child` finishes. Returns false if the child
  // is already finished (no parking needed).
  bool AddExitWaiter(ProcId child, ProcId waiter);
  // Called by the scheduler on every process exit/kill.
  void NotifyExit(ProcId pid);
  // Recovery: waiters on processes that died with their cell are woken.
  void WakeOrphanedWaiters();

  // Forks a process onto `target` (local or remote; remote forks go through
  // the queued kForkRemote cost path). When `parent` is given the fork
  // follows UNIX semantics: the COW tree leaf splits (possibly across cells,
  // paper section 5.3) and the address map is duplicated. Returns the pid.
  base::Result<ProcId> Fork(Ctx& ctx, CellId target, std::unique_ptr<Behavior> behavior,
                            int64_t task_group = -1, Process* parent = nullptr);

  // Migrates a sequential process to another cell for load balancing (paper
  // section 3.2): a new component on `target` inherits the address map and
  // COW-tree access of the original (which is torn down), and the behaviour
  // resumes exactly where it stopped. The migrated process keeps a residual
  // dependency on the origin cell for anonymous pages created there. Returns
  // the new pid.
  base::Result<ProcId> Migrate(Ctx& ctx, ProcId pid, CellId target);

  // --- Failure handling. ---
  Agreement& agreement() { return *agreement_; }
  RecoveryManager& recovery() { return *recovery_; }
  Wax& wax() { return *wax_; }

  // --- SLO accounting (hive_serve). ---
  // The recorder is owned by the harness; when attached, cell lifecycle and
  // recovery hooks feed availability windows into it and admission control
  // reports sheds. Null (the default) disables all SLO accounting.
  void set_slo_recorder(SloRecorder* slo) { slo_ = slo; }
  SloRecorder* slo_recorder() const { return slo_; }

  // Alert broadcast: a hint failed on `accuser`. Suspends user execution,
  // runs agreement, and if confirmed runs recovery. Called from detection
  // paths; safe to call redundantly.
  void HandleAlert(Ctx& ctx, CellId accuser, CellId suspect, HintReason reason);

  // True while an agreement/recovery episode is processing `suspect`; used
  // to de-duplicate hints from many cells.
  bool AlertInProgress() const { return alert_in_progress_; }

  // --- Experiment support. ---
  // Runs the event loop until all of `pids` have finished or `deadline` hits.
  // Returns true if all finished.
  bool RunUntilDone(const std::vector<ProcId>& pids, Time deadline);

  // Total CPU-seconds of user work, summed over cells.
  Time TotalCpuBusy() const;

 private:
  flash::Machine* machine_;
  HiveOptions options_;
  std::vector<std::unique_ptr<Cell>> cells_;
  std::vector<CellId> node_to_cell_;

  std::unordered_map<std::string, FileId> name_space_;
  std::unordered_map<ProcId, CellId> pid_to_cell_;
  std::unordered_map<int64_t, uint64_t> group_cells_;
  std::unordered_map<int64_t, std::vector<ProcId>> group_members_;
  std::unordered_set<CellId> confirmed_failed_;
  // Child pid -> waiter pids. Pids, not Process pointers: a reboot replaces
  // the waiter's scheduler and frees the waiter while the child (on another
  // cell) lives on, so waiters are resolved only when the child exits.
  std::unordered_map<ProcId, std::vector<ProcId>> exit_waiters_;
  ProcId next_pid_ = 1;
  int64_t next_task_group_ = 1;

  std::unique_ptr<Agreement> agreement_;
  std::unique_ptr<RecoveryManager> recovery_;
  std::unique_ptr<Wax> wax_;
  SloRecorder* slo_ = nullptr;
  bool alert_in_progress_ = false;
};

}  // namespace hive

#endif  // HIVE_SRC_CORE_HIVE_SYSTEM_H_
