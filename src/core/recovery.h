// Failure recovery (paper section 4.3): given consensus on the live set,
// each cell runs recovery algorithms to clean up dangling references and
// determine which processes must be killed. A double global barrier
// synchronizes the preemptive discard:
//
//   - Before barrier 1: user processes are suspended; each cell flushes its
//     TLBs and removes remote mappings from process address spaces. Page
//     faults arriving after a cell joined barrier 1 are held on the client
//     side.
//   - After barrier 1 no valid remote accesses are pending: each cell revokes
//     firewall write permission it granted to other cells, discards every
//     page writable by a failed cell (notifying the file system, which bumps
//     generation numbers for lost dirty pages), and cleans up virtual memory
//     state (imports, borrows, loans touching failed cells).
//   - After barrier 2 cells resume normal operation. A recovery master is
//     elected from the new live set, runs hardware diagnostics on the failed
//     nodes, and (if they pass) reboots and reintegrates the failed cells.

#ifndef HIVE_SRC_CORE_RECOVERY_H_
#define HIVE_SRC_CORE_RECOVERY_H_

#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/core/context.h"
#include "src/core/types.h"

namespace hive {

class HiveSystem;

struct RecoveryStats {
  Time detect_time = 0;                  // Agreement confirmed.
  std::vector<Time> entered_recovery;    // Per live cell.
  Time barrier1_time = 0;
  Time barrier2_time = 0;                // == user resume time.
  // Failure-to-survivors-unblocked span (barrier2 - detect): the per-episode
  // recovery duration the serve harness' recovery-time SLO is built on.
  Time duration_ns = 0;
  CellId recovery_master = kInvalidCell;
  int pages_discarded = 0;
  int pages_salvaged = 0;                // Kept by proof instead of discarded.
  int dirty_pages_lost = 0;              // Caused generation bumps.
  int processes_killed = 0;
  int imports_dropped = 0;
  int loans_reclaimed = 0;
  std::vector<CellId> failed_cells;
};

// One page adopted by a surviving cell during the discard walk instead of
// preemptively discarded (HiveOptions::salvage_pages). The oracles cross-check
// these against injected wild writes and canary contents.
struct SalvageRecord {
  CellId owner = kInvalidCell;  // Surviving data home that kept the page.
  PhysAddr frame = 0;
  LogicalPageId lpid;
  uint64_t sum = 0;             // Content checksum at adoption (0 if unchecked).
  // Which proof admitted the page: the failed cell never held hardware write
  // permission (firewall vector), or the recomputed content checksum matched
  // the one recorded at the last checked write. Both false only under the
  // seeded salvage_unchecked bug.
  bool firewall_proof = false;
  bool checksum_proof = false;
};

// One reintegration episode, from the master starting the reboot to the
// rejoined cell reaching full-member state (or dying again on the way).
struct ReintegrationRecord {
  CellId cell = kInvalidCell;
  Time started_at = 0;
  Time done_at = 0;         // 0 while in progress.
  bool re_excised = false;  // Killed again before converging (reboot storm).
  bool failed = false;      // Reintegrate itself returned an error.
};

class RecoveryManager {
 public:
  explicit RecoveryManager(HiveSystem* system) : system_(system) {}

  // Runs the full recovery algorithm for `failed_cells`, starting at the
  // (virtual) time of ctx. Synchronously updates all kernel state; the
  // simulated cost of each phase determines the barrier times and when user
  // execution resumes on each cell.
  RecoveryStats Run(Ctx& ctx, const std::vector<CellId>& failed_cells);

  // Reboots a failed cell after diagnostics and reintegrates it into the
  // system (fresh kernel, file system intact on disk). Paper section 4.3's
  // automatic reintegration.
  base::Status Reintegrate(Ctx& ctx, CellId cell_id);

  const RecoveryStats& last_stats() const { return last_stats_; }
  int recoveries_run() const { return recoveries_run_; }

  // Every completed recovery round, in order (last_stats() is episodes().back()).
  // Only terminal states used to be logged; the per-episode durations here are
  // the source of truth for recovery-time distributions (report.cc, hive_serve).
  const std::vector<RecoveryStats>& episodes() const { return episodes_; }

  // Cross-recovery logs for oracles and reporting. Both survive master
  // rotation and per-cell trace-ring wrap; they are never cleared.
  const std::vector<SalvageRecord>& salvage_log() const { return salvage_log_; }
  const std::vector<ReintegrationRecord>& reintegration_log() const {
    return reintegration_log_;
  }

  // Test support: oracle tests hand-build violating log states the real
  // paths refuse to produce (WarmRejoin always reaches a terminal state).
  std::vector<SalvageRecord>& mutable_salvage_log_for_test() { return salvage_log_; }
  std::vector<ReintegrationRecord>& mutable_reintegration_log_for_test() {
    return reintegration_log_;
  }

 private:
  // Phase work; each returns the simulated cost on that cell.
  Time PhaseFlushMappings(Ctx& ctx, CellId cell_id);
  Time PhaseDiscardAndCleanup(Ctx& ctx, CellId cell_id, const std::vector<CellId>& failed,
                              RecoveryStats* stats);
  Time PhaseKillDependents(Ctx& ctx, CellId cell_id, const std::vector<CellId>& failed,
                           RecoveryStats* stats);

  // Live-rejoin phase 2 (HiveOptions::live_rejoin): the rebooted cell
  // re-enters the transport and the frame economy while survivors serve.
  void WarmRejoin(CellId cell_id, size_t log_index);

  HiveSystem* system_;
  RecoveryStats last_stats_;
  std::vector<RecoveryStats> episodes_;
  int recoveries_run_ = 0;
  std::vector<SalvageRecord> salvage_log_;
  std::vector<ReintegrationRecord> reintegration_log_;
};

}  // namespace hive

#endif  // HIVE_SRC_CORE_RECOVERY_H_
