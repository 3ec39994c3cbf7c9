#include "src/core/report.h"

#include <sstream>
#include <string>
#include <vector>

#include "src/base/histogram.h"
#include "src/base/table.h"
#include "src/core/cell.h"
#include "src/core/failure_detection.h"
#include "src/core/filesystem.h"
#include "src/core/hive_system.h"
#include "src/core/pageout.h"
#include "src/core/recovery.h"
#include "src/core/swap.h"

namespace hive {
namespace {

const char* StateName(CellState state) {
  switch (state) {
    case CellState::kBooting:
      return "BOOTING";
    case CellState::kRunning:
      return "RUNNING";
    case CellState::kPanicked:
      return "PANICKED";
    case CellState::kDead:
      return "DEAD";
    case CellState::kRebooting:
      return "REBOOTING";
  }
  return "?";
}

struct SharingCounts {
  int exported = 0;
  int exported_writable = 0;
  int imported = 0;
  int borrowed = 0;
  int loaned = 0;
  int cached = 0;
};

SharingCounts CountSharing(Cell& cell) {
  SharingCounts counts;
  cell.pfdats().ForEach([&](Pfdat* pfdat) {
    if (pfdat->HasLogicalBinding()) {
      ++counts.cached;
    }
    if (pfdat->exported_to != 0) {
      ++counts.exported;
    }
    if (pfdat->exported_writable != 0) {
      ++counts.exported_writable;
    }
    if (pfdat->imported_from != kInvalidCell) {
      ++counts.imported;
    }
    if (pfdat->borrowed_from != kInvalidCell) {
      ++counts.borrowed;
    }
    if (pfdat->loaned_out) {
      ++counts.loaned;
    }
  });
  return counts;
}

}  // namespace

std::string RenderSystemReport(HiveSystem& system) {
  base::Table table({"Cell", "State", "Nodes", "Free frames", "Cached pages", "Exports",
                     "Imports", "Loans/Borrows", "Writable-by-remote", "Procs (live/total)",
                     "Swap slots"});
  for (CellId c = 0; c < system.num_cells(); ++c) {
    Cell& cell = system.cell(c);
    if (!cell.alive()) {
      table.AddRow({"cell " + base::Table::I64(c), StateName(cell.state()),
                    base::Table::I64(cell.first_node()) + "-" +
                        base::Table::I64(cell.first_node() + cell.num_nodes() - 1),
                    "-", "-", "-", "-", "-", "-", "-", "-"});
      continue;
    }
    const SharingCounts counts = CountSharing(cell);
    const auto live_procs = static_cast<int64_t>(cell.sched().live_processes().size());
    const auto total_procs = static_cast<int64_t>(cell.sched().process_count());
    table.AddRow(
        {"cell " + base::Table::I64(c), StateName(cell.state()),
         base::Table::I64(cell.first_node()) + "-" +
             base::Table::I64(cell.first_node() + cell.num_nodes() - 1),
         base::Table::I64(static_cast<int64_t>(cell.allocator().free_frames())),
         base::Table::I64(counts.cached), base::Table::I64(counts.exported),
         base::Table::I64(counts.imported),
         base::Table::I64(counts.loaned) + "/" + base::Table::I64(counts.borrowed),
         base::Table::I64(cell.firewall_manager().RemotelyWritablePages()),
         base::Table::I64(live_procs) + "/" + base::Table::I64(total_procs),
         base::Table::I64(static_cast<int64_t>(cell.swap().slots_in_use()))});
  }
  std::ostringstream out;
  out << table.Render("Hive system state (t=" +
                      base::Table::F64(static_cast<double>(system.machine().Now()) / 1e9, 3) +
                      " s)");
  return out.str();
}

std::string RenderRpcTransport(HiveSystem& system) {
  base::Table table({"Cell", "Calls", "Queued", "Timeouts", "Retries", "Dups-suppr",
                     "Corrupt-lost", "Quarantines", "Fail-fast", "Acked-mut",
                     "Exec-mut", "AMO-viol"});
  for (CellId c = 0; c < system.num_cells(); ++c) {
    Cell& cell = system.cell(c);
    const RpcCallStats& stats = cell.rpc().stats();
    table.AddRow({"cell " + base::Table::I64(c),
                  base::Table::I64(static_cast<int64_t>(stats.calls)),
                  base::Table::I64(static_cast<int64_t>(stats.queued_calls)),
                  base::Table::I64(static_cast<int64_t>(stats.timeouts)),
                  base::Table::I64(static_cast<int64_t>(stats.retries)),
                  base::Table::I64(static_cast<int64_t>(stats.duplicates_suppressed)),
                  base::Table::I64(static_cast<int64_t>(stats.corrupt_lost)),
                  base::Table::I64(static_cast<int64_t>(stats.quarantines_entered)),
                  base::Table::I64(static_cast<int64_t>(stats.quarantine_fail_fast)),
                  base::Table::I64(static_cast<int64_t>(stats.acked_mutations)),
                  base::Table::I64(static_cast<int64_t>(stats.executed_mutations)),
                  base::Table::I64(static_cast<int64_t>(stats.at_most_once_violations))});
  }
  return table.Render("RPC transport (per cell)");
}

std::string RenderFailureDetection(HiveSystem& system) {
  std::vector<std::string> header = {"Cell", "Hints"};
  for (HintReason reason : kAllHintReasons) {
    header.push_back(HintReasonName(reason));
  }
  header.push_back("Max-hops");
  base::Table table(header);
  for (CellId c = 0; c < system.num_cells(); ++c) {
    FailureDetector& detector = system.cell(c).detector();
    std::vector<std::string> row = {
        "cell " + base::Table::I64(c),
        base::Table::I64(static_cast<int64_t>(detector.hints_raised()))};
    for (HintReason reason : kAllHintReasons) {
      row.push_back(base::Table::I64(static_cast<int64_t>(detector.hints_for(reason))));
    }
    row.push_back(base::Table::I64(detector.max_traversal_hops()));
    table.AddRow(row);
  }
  return table.Render("Failure detection (per cell, hints by reason)");
}

std::string RenderRecoverySalvage(HiveSystem& system) {
  const RecoveryManager& recovery = system.recovery();
  base::Table table({"Cell", "Frames-adopted", "Salvages", "Firewall-proof",
                     "Checksum-proof", "Reint-started", "Reint-done", "Re-excised",
                     "Reint-failed"});
  for (CellId c = 0; c < system.num_cells(); ++c) {
    int64_t salvages = 0;
    int64_t firewall_proof = 0;
    int64_t checksum_proof = 0;
    for (const SalvageRecord& record : recovery.salvage_log()) {
      if (record.owner != c) {
        continue;
      }
      ++salvages;
      firewall_proof += record.firewall_proof ? 1 : 0;
      checksum_proof += record.checksum_proof ? 1 : 0;
    }
    int64_t started = 0;
    int64_t done = 0;
    int64_t re_excised = 0;
    int64_t failed = 0;
    for (const ReintegrationRecord& record : recovery.reintegration_log()) {
      if (record.cell != c) {
        continue;
      }
      ++started;
      done += record.done_at != 0 ? 1 : 0;
      re_excised += record.re_excised ? 1 : 0;
      failed += record.failed ? 1 : 0;
    }
    table.AddRow({"cell " + base::Table::I64(c),
                  base::Table::I64(static_cast<int64_t>(
                      system.cell(c).allocator().frames_salvaged())),
                  base::Table::I64(salvages), base::Table::I64(firewall_proof),
                  base::Table::I64(checksum_proof), base::Table::I64(started),
                  base::Table::I64(done), base::Table::I64(re_excised),
                  base::Table::I64(failed)});
  }
  const RecoveryStats& stats = recovery.last_stats();
  std::ostringstream out;
  out << table.Render("Salvage & reintegration (per cell)");
  out << "last recovery: " << stats.pages_salvaged << " page(s) salvaged, "
      << stats.pages_discarded << " discarded, " << stats.dirty_pages_lost
      << " dirty lost; " << recovery.recoveries_run() << " recovery run(s)\n";
  return out.str();
}

std::string RenderRecoveryEpisodes(HiveSystem& system) {
  const std::vector<RecoveryStats>& episodes = system.recovery().episodes();
  if (episodes.empty()) {
    return "";
  }
  base::Table table({"Episode", "t-detect (ms)", "Victims", "Pages-disc",
                     "Pages-salv", "Dirty-lost", "Procs-killed", "Duration (ms)"});
  base::Histogram durations;
  for (size_t i = 0; i < episodes.size(); ++i) {
    const RecoveryStats& ep = episodes[i];
    durations.Record(static_cast<int64_t>(ep.duration_ns));
    std::string victims;
    for (CellId c : ep.failed_cells) {
      victims += (victims.empty() ? "" : ",") + base::Table::I64(c);
    }
    table.AddRow({base::Table::I64(static_cast<int64_t>(i)),
                  base::Table::F64(static_cast<double>(ep.detect_time) / 1e6, 3),
                  victims, base::Table::I64(ep.pages_discarded),
                  base::Table::I64(ep.pages_salvaged),
                  base::Table::I64(ep.dirty_pages_lost),
                  base::Table::I64(ep.processes_killed),
                  base::Table::F64(static_cast<double>(ep.duration_ns) / 1e6, 3)});
  }
  std::ostringstream out;
  out << table.Render("Recovery episodes");
  out << "recovery duration (ms): count=" << durations.count()
      << " min=" << base::Table::F64(static_cast<double>(durations.min()) / 1e6, 3)
      << " p50=" << base::Table::F64(static_cast<double>(durations.Percentile(50)) / 1e6, 3)
      << " p99=" << base::Table::F64(static_cast<double>(durations.Percentile(99)) / 1e6, 3)
      << " max=" << base::Table::F64(static_cast<double>(durations.max()) / 1e6, 3)
      << " mean=" << base::Table::F64(durations.mean() / 1e6, 3) << "\n";
  return out.str();
}

std::string RenderCellSharing(HiveSystem& system, CellId cell_id) {
  Cell& cell = system.cell(cell_id);
  std::ostringstream out;
  out << "cell " << cell_id << " sharing state:\n";
  if (!cell.alive()) {
    out << "  (cell is " << StateName(cell.state()) << ")\n";
    return out.str();
  }
  int lines = 0;
  cell.pfdats().ForEach([&](Pfdat* pfdat) {
    if (pfdat->exported_to == 0 && pfdat->imported_from == kInvalidCell &&
        pfdat->borrowed_from == kInvalidCell && !pfdat->loaned_out) {
      return;
    }
    if (++lines > 40) {
      return;  // Cap the dump.
    }
    out << "  frame 0x" << std::hex << pfdat->frame << std::dec;
    if (pfdat->HasLogicalBinding()) {
      out << " ["
          << (pfdat->lpid.kind == LogicalPageId::Kind::kFile ? "file " : "anon ")
          << pfdat->lpid.object << " page " << pfdat->lpid.page_offset << "]";
    }
    if (pfdat->exported_to != 0) {
      out << " exported-to=0x" << std::hex << pfdat->exported_to << std::dec;
      if (pfdat->exported_writable != 0) {
        out << " (writable 0x" << std::hex << pfdat->exported_writable << std::dec << ")";
      }
    }
    if (pfdat->imported_from != kInvalidCell) {
      out << " imported-from=" << pfdat->imported_from
          << (pfdat->import_writable ? " (writable)" : "");
    }
    if (pfdat->borrowed_from != kInvalidCell) {
      out << " borrowed-from=" << pfdat->borrowed_from;
    }
    if (pfdat->loaned_out) {
      out << " loaned-to=" << pfdat->loaned_to;
    }
    out << "\n";
  });
  if (lines == 0) {
    out << "  (no intercell sharing)\n";
  } else if (lines > 40) {
    out << "  ... " << (lines - 40) << " more\n";
  }
  return out.str();
}

std::string RenderTriageBuckets(const std::vector<TriageBucketRow>& rows) {
  if (rows.empty()) {
    return "";
  }
  std::ostringstream out;
  out << "triage: " << rows.size() << " bucket(s)\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const TriageBucketRow& row = rows[i];
    out << "  bucket " << (i + 1) << ": " << row.oracle << " x" << row.count
        << " trace-sig=0x" << std::hex << row.trace_signature << std::dec << "\n";
    out << "    repro: " << row.repro << "\n";
    if (!row.minimized.empty()) {
      out << "    minimized: " << row.minimized << "\n";
    }
  }
  return out.str();
}

}  // namespace hive
