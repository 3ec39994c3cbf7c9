#include "src/core/recovery.h"

#include <algorithm>
#include <unordered_set>

#include "src/base/log.h"
#include "src/core/cell.h"
#include "src/core/filesystem.h"
#include "src/core/hive_system.h"
#include "src/core/invariant_checker.h"
#include "src/core/rpc.h"

namespace hive {
namespace {

constexpr Time kAlertDeliveryNs = 1 * kMicrosecond;
constexpr Time kDiagnosticsDelayNs = 5 * kMillisecond;
// Live rejoin runs shortly after the rebooted kernel comes up, while the
// survivors are back under load (recovery released them at barrier 2).
constexpr Time kWarmRejoinDelayNs = 2 * kMillisecond;

}  // namespace

Time RecoveryManager::PhaseFlushMappings(Ctx& ctx, CellId cell_id) {
  Cell& cell = system_->cell(cell_id);
  Ctx phase_ctx = cell.MakeCtx();
  phase_ctx.start = ctx.VirtualNow();
  phase_ctx.Charge(cell.costs().recovery_tlb_flush_ns);
  for (const auto& [pid, proc] : cell.sched().live_processes()) {
    proc->address_space().FlushMappings(phase_ctx, /*remote_only=*/false);
  }
  return phase_ctx.elapsed;
}

Time RecoveryManager::PhaseDiscardAndCleanup(Ctx& ctx, CellId cell_id,
                                             const std::vector<CellId>& failed,
                                             RecoveryStats* stats) {
  Cell& cell = system_->cell(cell_id);
  Ctx phase_ctx = cell.MakeCtx();
  phase_ctx.start = ctx.VirtualNow();

  uint64_t failed_mask = 0;
  for (CellId f : failed) {
    failed_mask |= 1ull << f;
  }

  // Scanning the virtual memory state costs time proportional to the pfdat
  // table (the dominant recovery cost for large memories).
  phase_ctx.Charge(static_cast<Time>(cell.pfdats().total_pfdats()) *
                   cell.costs().recovery_per_page_scan_ns);

  // 1. Revoke firewall write permission granted to the failed cells. The
  //    returned pfns are exactly the local pages a failed cell could reach
  //    with hardware stores at failure time: the salvage path below must
  //    assume those are corrupt, while an export record with no backing
  //    grant (e.g. evicted under the single-writer ablation) proves the
  //    failed cell never had write access.
  std::unordered_set<Pfn> hw_writable;
  for (Pfn pfn : cell.firewall_manager().RevokeAllFor(phase_ctx, failed.front())) {
    hw_writable.insert(pfn);
  }
  for (size_t i = 1; i < failed.size(); ++i) {
    for (Pfn pfn : cell.firewall_manager().RevokeAllFor(phase_ctx, failed[i])) {
      hw_writable.insert(pfn);
    }
  }

  // 2. Drop the spare borrowed frames still sitting in the allocator's
  //    per-home free buckets. This must happen before the pfdat walk below:
  //    those spares are extended pfdats borrowed from the failed cells, so
  //    the walk would otherwise collect them into dead_borrows and remove
  //    them a second time behind the allocator's back.
  cell.allocator().DropBorrowsFrom(failed.front());
  for (size_t i = 1; i < failed.size(); ++i) {
    cell.allocator().DropBorrowsFrom(failed[i]);
  }

  // 3. Walk the pfdat table: discard pages writable by failed cells (unless
  //    a salvage proof admits them), drop bindings cached in frames whose
  //    memory home failed, clear export state (every remaining remote grant
  //    is also revoked -- no remote mapping survives barrier 1).
  const HiveOptions& opts = system_->options();
  const bool firewall_checking = cell.machine().firewall().checking_enabled();

  // Salvage proof check for one discard candidate. Proof A: the firewall
  // vector shows the failed cell never held hardware write permission on the
  // frame (export record without a backing grant). Proof B: the content
  // checksum recorded at the last checked write still matches the frame and
  // the generation is unchanged -- any unchecked store (a wild write) breaks
  // it. With salvage_verify off (the seeded salvage_unchecked bug) every
  // candidate is adopted blind, which the no-corrupt-adoption oracle exists
  // to catch.
  auto salvage_proof = [&](Pfdat* pfdat, SalvageRecord* record) -> bool {
    if (!opts.salvage_pages) {
      return false;
    }
    if (firewall_checking && cell.OwnsAddr(pfdat->frame) &&
        hw_writable.count(cell.machine().mem().PfnOfAddr(pfdat->frame)) == 0) {
      record->firewall_proof = true;
      return true;
    }
    if (!opts.salvage_verify) {
      return true;  // Seeded bug: adopt without recomputing the checksum.
    }
    if (!pfdat->salvage_sum_valid || pfdat->salvage_gen != pfdat->generation) {
      return false;  // No recorded baseline to check against.
    }
    phase_ctx.Charge(cell.costs().recovery_salvage_check_ns);
    uint64_t sum = 0;
    if (!cell.fs().PageChecksum(pfdat->frame, &sum) || sum != pfdat->salvage_sum) {
      cell.Trace(TraceEvent::kSalvageRejected, pfdat->frame,
                 static_cast<uint64_t>(failed.front()));
      return false;
    }
    record->sum = sum;
    record->checksum_proof = true;
    return true;
  };

  std::vector<Pfdat*> dead_borrows;
  cell.pfdats().ForEach([&](Pfdat* pfdat) {
    if (pfdat->extended && pfdat->borrowed_from != kInvalidCell &&
        (failed_mask & (1ull << pfdat->borrowed_from)) != 0) {
      dead_borrows.push_back(pfdat);
      return;
    }
    if (!pfdat->extended && pfdat->HasLogicalBinding() &&
        (pfdat->exported_writable & failed_mask) != 0) {
      SalvageRecord record;
      if (salvage_proof(pfdat, &record)) {
        // Adoption: the surviving data home keeps the page instead of
        // discarding it. Export state is cleared below like any other
        // survivor page (no remote mapping outlives barrier 1; surviving
        // clients re-import by fresh faults), and the allocator is told so
        // the frame stays accounted as a live cache page.
        ++stats->pages_salvaged;
        cell.Trace(TraceEvent::kPageSalvaged, pfdat->frame,
                   static_cast<uint64_t>(failed.front()));
        cell.allocator().NoteSalvagedAdoption(pfdat);
        record.owner = cell.id();
        record.frame = pfdat->frame;
        record.lpid = pfdat->lpid;
        salvage_log_.push_back(record);
      } else {
        // Pessimistic assumption: everything the failed cell could write is
        // corrupt (paper section 3.1).
        ++stats->pages_discarded;
        cell.Trace(TraceEvent::kPageDiscarded, pfdat->frame);
        if (pfdat->dirty && pfdat->lpid.kind == LogicalPageId::Kind::kFile) {
          cell.fs().NoteDirtyPageLost(static_cast<VnodeId>(pfdat->lpid.object));
          ++stats->dirty_pages_lost;
        }
        cell.pfdats().RemoveHash(pfdat);
        pfdat->lpid = LogicalPageId{};
        pfdat->dirty = false;
        pfdat->salvage_sum_valid = false;
        pfdat->exported_to = 0;
        pfdat->exported_writable = 0;
        if (pfdat->refcount == 0 && !pfdat->loaned_out) {
          cell.allocator().ReleaseToFreeList(pfdat);
        }
        return;
      }
    }
    pfdat->exported_to = 0;
    pfdat->exported_writable = 0;
  });
  for (Pfdat* pfdat : dead_borrows) {
    // The frame's memory is gone. Dirty file data cached there is lost.
    if (pfdat->HasLogicalBinding() && pfdat->dirty &&
        pfdat->lpid.kind == LogicalPageId::Kind::kFile &&
        pfdat->lpid.data_home == cell.id()) {
      cell.fs().NoteDirtyPageLost(static_cast<VnodeId>(pfdat->lpid.object));
      ++stats->dirty_pages_lost;
    }
    cell.pfdats().RemoveExtended(pfdat);
  }

  // 4. Drop all imports (rebuilt by fresh faults) and remaining grants.
  stats->imports_dropped += cell.fs().DropAllImports(phase_ctx);
  cell.firewall_manager().RevokeAllRemote(phase_ctx);

  // 5. Reclaim frames loaned to failed cells.
  for (CellId f : failed) {
    stats->loans_reclaimed += cell.allocator().ReclaimLoansTo(f);
  }

  phase_ctx.Charge(cell.costs().recovery_fs_cleanup_ns);
  return phase_ctx.elapsed;
}

Time RecoveryManager::PhaseKillDependents(Ctx& ctx, CellId cell_id,
                                          const std::vector<CellId>& failed,
                                          RecoveryStats* stats) {
  Cell& cell = system_->cell(cell_id);
  Ctx phase_ctx = cell.MakeCtx();
  phase_ctx.start = ctx.VirtualNow();

  uint64_t failed_mask = 0;
  for (CellId f : failed) {
    failed_mask |= 1ull << f;
  }

  // KillProcess drops its victim, and only its victim, from the live index:
  // step past an entry before acting on it.
  const auto& live = cell.sched().live_processes();
  for (auto it = live.begin(); it != live.end();) {
    Process* proc = (it++)->second;
    const bool hard_dependency = (proc->dependency_mask() & failed_mask) != 0;
    const bool group_hit =
        proc->task_group() >= 0 &&
        (system_->GroupCells(proc->task_group()) & failed_mask) != 0;
    if (hard_dependency || group_hit) {
      cell.sched().KillProcess(phase_ctx, proc,
                               hard_dependency ? "used resources of a failed cell"
                                               : "task group member on a failed cell");
      ++stats->processes_killed;
    }
  }
  return phase_ctx.elapsed;
}

RecoveryStats RecoveryManager::Run(Ctx& ctx, const std::vector<CellId>& failed_cells) {
  ++recoveries_run_;
  RecoveryStats stats;
  stats.failed_cells = failed_cells;
  stats.detect_time = ctx.VirtualNow();

  const std::vector<CellId> live = system_->LiveCells();
  if (live.empty()) {
    last_stats_ = stats;
    return stats;
  }

  // Every live cell enters recovery when the confirmation broadcast reaches
  // it; processes already running at kernel level complete their current
  // operation (modelled as the alert delivery cost).
  std::vector<Time> entry(live.size());
  for (size_t i = 0; i < live.size(); ++i) {
    entry[i] = stats.detect_time + kAlertDeliveryNs;
    system_->cell(live[i]).set_in_recovery(true);
    system_->cell(live[i]).Trace(TraceEvent::kEnterRecovery,
                                 static_cast<uint64_t>(failed_cells.front()));
  }
  stats.entered_recovery = entry;

  // Each cell's share of the round runs as that cell's own kernel. A cell
  // whose node failed since its last clock tick is still in the live set,
  // traps on its own memory here, panics, and takes no further part in the
  // round.
  std::vector<bool> in_round(live.size(), true);
  auto run_share = [&](size_t i, auto&& phase) {
    in_round[i] = in_round[i] && system_->cell(live[i]).RunKernel("during recovery", phase);
    return in_round[i];
  };

  // Phase A (before barrier 1): flush TLBs, remove mappings. Page faults that
  // arrive after a cell joins the barrier are held up on the client side.
  Time barrier1 = 0;
  for (size_t i = 0; i < live.size(); ++i) {
    Time cost = 0;
    if (run_share(i, [&] { cost = PhaseFlushMappings(ctx, live[i]); })) {
      barrier1 = std::max(barrier1, entry[i] + cost);
    }
  }
  barrier1 += system_->costs().recovery_barrier_round_ns;
  stats.barrier1_time = barrier1;

  // Phase B (between barriers): revoke grants, preemptive discard, VM and
  // process cleanup.
  Time barrier2 = barrier1;
  for (size_t i = 0; i < live.size(); ++i) {
    Time cost = 0;
    if (run_share(i, [&] {
          cost = PhaseDiscardAndCleanup(ctx, live[i], failed_cells, &stats);
          cost += PhaseKillDependents(ctx, live[i], failed_cells, &stats);
        })) {
      barrier2 = std::max(barrier2, barrier1 + cost);
    }
  }
  barrier2 += system_->costs().recovery_barrier_round_ns;
  stats.barrier2_time = barrier2;

  // Cells that exit the second barrier resume normal operation. A cell that
  // panicked during the round only closes the recovery bracket it entered.
  for (size_t i = 0; i < live.size(); ++i) {
    const CellId cell_id = live[i];
    Cell& cell = system_->cell(cell_id);
    cell.set_in_recovery(false);
    cell.Trace(TraceEvent::kExitRecovery, static_cast<uint64_t>(stats.pages_discarded));
    if (!in_round[i]) {
      continue;
    }
    cell.SuspendUsersUntil(barrier2);
    if (system_->slo_recorder() != nullptr) {
      // Survivors were frozen from confirmation to barrier 2; the window
      // counts against their availability even though they never went down.
      system_->slo_recorder()->NoteSuspension(cell_id, stats.detect_time, barrier2);
    }
    for (CellId f : failed_cells) {
      cell.detector().ForgetCell(f);
    }
    cell.sched().KickAll();
  }

  // Waiters blocked on processes that died with a failed cell are woken.
  system_->WakeOrphanedWaiters();

  // Elect the recovery master (lowest id still in the round; `live` is in id
  // order) and run diagnostics on the failed nodes; if they pass, reboot and
  // reintegrate.
  for (size_t i = 0; i < live.size() && stats.recovery_master == kInvalidCell; ++i) {
    if (in_round[i]) {
      stats.recovery_master = live[i];
    }
  }
  if (system_->options().auto_reintegrate) {
    for (CellId f : failed_cells) {
      system_->machine().events().ScheduleAt(
          barrier2 + kDiagnosticsDelayNs, [this, f] {
            const std::vector<CellId> live_now = system_->LiveCells();
            if (live_now.empty()) {
              return;
            }
            Ctx reint_ctx;
            Cell& master = system_->cell(live_now.front());
            reint_ctx.cell = &master;
            reint_ctx.cpu = master.FirstCpu();
            reint_ctx.start = system_->machine().Now();
            const base::Status status = Reintegrate(reint_ctx, f);
            if (!status.ok() && !system_->cell(f).alive()) {
              // Diagnostics/reboot failed: the cell stays excised and the
              // master records the failure as careful-check evidence so the
              // episode is visible to detection, not silently dropped.
              LOG(kWarn) << "reintegration of cell " << f
                         << " failed: " << status.name() << "; cell stays excised";
              master.detector().RaiseHint(reint_ctx, f,
                                          HintReason::kCarefulCheckFailed);
            }
          });
    }
  }

  // Audit: recovery just rewrote grant, export and loan state on every live
  // cell; verify the firewall vectors agree with the new bookkeeping. Raised
  // hints are absorbed by the in-progress alert episode.
  InvariantChecker checker(system_);
  const InvariantReport audit = checker.AuditAll(/*raise_hints=*/true);
  for (const InvariantMismatch& mismatch : audit.mismatches) {
    LOG(kWarn) << "post-recovery invariant audit: " << mismatch.ToString();
  }

  LOG(kInfo) << "recovery complete: " << stats.pages_discarded << " pages discarded, "
             << stats.dirty_pages_lost << " dirty pages lost, " << stats.processes_killed
             << " processes killed; users resume at t=" << barrier2;
  stats.duration_ns = barrier2 - stats.detect_time;
  last_stats_ = stats;
  episodes_.push_back(stats);
  return stats;
}

base::Status RecoveryManager::Reintegrate(Ctx& ctx, CellId cell_id) {
  Cell& cell = system_->cell(cell_id);
  if (cell.alive()) {
    return base::InvalidArgument();
  }
  const size_t log_index = reintegration_log_.size();
  ReintegrationRecord record;
  record.cell = cell_id;
  record.started_at = system_->machine().Now();
  reintegration_log_.push_back(record);
  if (ctx.cell != nullptr) {
    // Traced on the master: the rejoining cell's ring wraps during its own
    // boot, and a storm can kill it again before anyone reads it.
    ctx.cell->Trace(TraceEvent::kReintegrationStart, static_cast<uint64_t>(cell_id));
  }
  for (int node = cell.first_node(); node < cell.first_node() + cell.num_nodes(); ++node) {
    system_->machine().RestoreNode(node);
  }
  cell.Reboot();
  system_->NoteCellReintegrated(cell_id);
  if (system_->options().live_rejoin) {
    // Phase 2 (live rejoin): once survivors are back under load, the fresh
    // kernel re-enters the transport and the frame economy before it counts
    // as a full member. Page imports/exports are rebuilt demand-driven by
    // its first faults, as after any recovery.
    system_->machine().events().ScheduleAfter(
        kWarmRejoinDelayNs, [this, cell_id, log_index] { WarmRejoin(cell_id, log_index); });
  } else {
    // Quiet reintegration: the reboot itself is the whole rejoin.
    reintegration_log_[log_index].done_at = system_->machine().Now();
    if (ctx.cell != nullptr) {
      ctx.cell->Trace(TraceEvent::kReintegrationDone, static_cast<uint64_t>(cell_id));
    }
  }
  LOG(kInfo) << "cell " << cell_id << " rebooted and reintegrated at t="
             << system_->machine().Now();
  return base::OkStatus();
}

void RecoveryManager::WarmRejoin(CellId cell_id, size_t log_index) {
  Cell& cell = system_->cell(cell_id);
  if (!cell.alive() || !system_->CellReachable(cell_id)) {
    // Killed again before converging (reboot storm): this episode is settled
    // by the new excision; a later reintegration starts its own record.
    reintegration_log_[log_index].re_excised = true;
    return;
  }
  Ctx ctx = cell.MakeCtx();
  ctx.start = system_->machine().Now();

  // Re-enter the transport: a null ping to every survivor makes both sides
  // rebuild per-peer state under the new incarnation epoch (stale pre-crash
  // replay entries were dropped by ForgetPeer / the epoch bump).
  CellId lender = kInvalidCell;
  for (CellId peer : system_->LiveCells()) {
    if (peer == cell_id) {
      continue;
    }
    RpcArgs args;
    RpcReply reply;
    if (cell.rpc().Call(ctx, peer, MsgType::kNull, args, &reply).ok() &&
        lender == kInvalidCell) {
      lender = peer;
    }
  }

  // Re-enter the frame economy: borrow a frame batch from the first
  // responsive survivor and return it, proving the loan/return path works
  // end to end for the new incarnation.
  if (lender != kInvalidCell) {
    RpcArgs borrow;
    borrow.w[0] = static_cast<uint64_t>(cell_id);
    borrow.w[1] = 1;
    RpcReply frames;
    if (cell.rpc().Call(ctx, lender, MsgType::kBorrowFrames, borrow, &frames).ok() &&
        frames.w[0] >= 1) {
      RpcArgs give_back;
      give_back.w[0] = static_cast<uint64_t>(cell_id);
      give_back.w[1] = frames.w[1];
      RpcReply ignored;
      (void)cell.rpc().Call(ctx, lender, MsgType::kReturnFrame, give_back, &ignored);
    }
  }

  // Re-index: the pings above can run agreement + recovery synchronously,
  // and a nested Reintegrate growing the log would invalidate a reference.
  reintegration_log_[log_index].done_at = system_->machine().Now();
  cell.Trace(TraceEvent::kReintegrationDone, static_cast<uint64_t>(cell_id));
}

}  // namespace hive
