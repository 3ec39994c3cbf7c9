#include "src/campaign/oracles.h"

#include <optional>
#include <sstream>

#include "src/core/cell.h"
#include "src/core/failure_detection.h"
#include "src/core/invariant_checker.h"
#include "src/core/recovery.h"
#include "src/core/rpc.h"
#include "src/core/trace.h"
#include "src/flash/bus_error.h"
#include "src/workloads/workload.h"

namespace campaign {
namespace {

using hive::Cell;
using hive::CellId;
using hive::Ctx;
using hive::HiveSystem;
using hive::TraceEvent;
using hive::TraceRecord;

// A panicked or silently-halted cell is only *expected* to be confirmed
// failed once clock monitoring had time to notice: the stall threshold plus a
// few monitoring periods. Deaths inside this window at scenario end are not
// detection failures.
constexpr Time kDetectionGraceNs = 300 * hive::kMillisecond;

// A started reintegration must reach a terminal state (done, re-excised, or
// failed) within this much simulated time; a rejoin is a bounded sequence of
// pings, export re-imports and frame borrows, not an open-ended negotiation.
constexpr Time kReintegrationBoundNs = 300 * hive::kMillisecond;

void Add(std::vector<OracleViolation>* out, const std::string& oracle,
         const std::string& detail) {
  out->push_back(OracleViolation{oracle, detail});
}

// Time of the last death-related trace record of a cell (panic or hardware
// death), or -1 if it never died.
Time LastDeathTime(Cell& cell) {
  Time when = -1;
  for (const TraceRecord& record : cell.trace().Snapshot()) {
    if (record.event == TraceEvent::kPanic || record.event == TraceEvent::kMarkedDead) {
      when = std::max(when, record.when);
    }
  }
  return when;
}

}  // namespace

void CheckContainmentAndDetection(const OracleInput& input,
                                  std::vector<OracleViolation>* out) {
  const ScenarioSpec& spec = *input.spec;
  HiveSystem& sys = *input.system;
  const Time now = sys.machine().Now();

  // Expected outcome per cell, from the faults that actually landed.
  std::vector<bool> must_die(static_cast<size_t>(spec.num_cells), false);
  std::vector<bool> may_die(static_cast<size_t>(spec.num_cells), false);
  int expected_recoveries = 0;
  for (size_t i = 0; i < spec.faults.size(); ++i) {
    if (i < input.injected.size() && !input.injected[i]) {
      continue;
    }
    const FaultSpec& fault = spec.faults[i];
    const auto victim = static_cast<size_t>(fault.victim);
    switch (fault.kind) {
      case FaultKind::kNodeFailure:
        must_die[victim] = true;
        ++expected_recoveries;
        break;
      case FaultKind::kAddrMapCorruption:
        // The corrupt pointer kills the victim only when a fault path walks
        // past it before the workload drains.
        may_die[victim] = true;
        break;
      case FaultKind::kWildWrite:
        if (spec.disable_firewall) {
          // The store lands silently; the writer has no reason to die.
        } else {
          // The firewall denies the store; the bus error panics the writer.
          must_die[victim] = true;
        }
        break;
      case FaultKind::kFalseAccusation:
        // Nobody may die because of a vetoed accusation.
        break;
      case FaultKind::kMessageFaults:
        // The reliable transport must ride out message faults; nobody dies.
        break;
      case FaultKind::kRogueCell:
        // The survivors must detect the Byzantine cell and excise it.
        must_die[victim] = true;
        break;
      case FaultKind::kRebootStorm:
        // Victims rotate by seed and timing, so any cell may legitimately
        // die (and come back) during the storm window. At least the first
        // kill is guaranteed once the fault is recorded as landed.
        std::fill(may_die.begin(), may_die.end(), true);
        ++expected_recoveries;
        break;
    }
  }

  // Detection and agreement need at least one surviving cell to run. A
  // multi-fault plan can kill every cell of a 2-cell hive (each death
  // individually contained); nobody is left to confirm the last death.
  bool any_survivor = false;
  for (CellId c = 0; c < spec.num_cells; ++c) {
    any_survivor = any_survivor || (sys.cell(c).alive() && sys.CellReachable(c));
  }

  for (CellId c = 0; c < spec.num_cells; ++c) {
    Cell& cell = sys.cell(c);
    const auto idx = static_cast<size_t>(c);
    if (cell.alive()) {
      if (must_die[idx] && !spec.auto_reintegrate) {
        std::ostringstream detail;
        detail << "cell " << c << " took a fail-stop fault but is still alive";
        Add(out, "detection-complete", detail.str());
      }
      continue;
    }
    // A dead cell must be an intended victim: anything else means the fault
    // escaped its cell.
    if (!must_die[idx] && !may_die[idx]) {
      std::ostringstream detail;
      detail << "non-faulted cell " << c << " died"
             << (cell.panic_reason().empty() ? "" : " (panic: " + cell.panic_reason() + ")");
      Add(out, "fault-containment", detail.str());
      continue;
    }
    // ... and its death must have been detected and agreed on, unless it died
    // too close to scenario end for clock monitoring to have noticed, or no
    // cell survived to run the agreement.
    if (!sys.CellConfirmedFailed(c) && any_survivor) {
      const Time died_at = LastDeathTime(cell);
      const bool hardware_dead = sys.machine().NodeDead(cell.first_node());
      if ((died_at >= 0 && now - died_at > kDetectionGraceNs) ||
          (died_at < 0 && hardware_dead)) {
        std::ostringstream detail;
        detail << "cell " << c << " died at t=" << died_at / hive::kMillisecond
               << "ms but was never confirmed failed by t=" << now / hive::kMillisecond
               << "ms";
        Add(out, "detection-complete", detail.str());
      }
    }
  }

  // Reintegration scenarios: victims may be alive again, but every fail-stop
  // fault must still have produced a recovery round.
  if (spec.auto_reintegrate && any_survivor &&
      sys.recovery().recoveries_run() < expected_recoveries) {
    std::ostringstream detail;
    detail << "expected >= " << expected_recoveries << " recoveries for "
           << expected_recoveries << " fail-stop faults, ran "
           << sys.recovery().recoveries_run();
    Add(out, "detection-complete", detail.str());
  }
}

void CheckRecoveryBarriers(const OracleInput& input, std::vector<OracleViolation>* out) {
  HiveSystem& sys = *input.system;
  if (sys.recovery().recoveries_run() == 0) {
    return;
  }
  const hive::RecoveryStats& stats = sys.recovery().last_stats();
  if (stats.barrier1_time < stats.detect_time) {
    Add(out, "recovery-barriers", "barrier 1 completed before detection");
  }
  if (stats.barrier2_time < stats.barrier1_time) {
    Add(out, "recovery-barriers", "barrier 2 completed before barrier 1");
  }
  if (stats.entered_recovery.empty()) {
    Add(out, "recovery-barriers", "no cell entered the last recovery round");
  }
  if (stats.recovery_master == hive::kInvalidCell) {
    Add(out, "recovery-barriers", "no recovery master elected");
  }
  for (CellId c : sys.LiveCells()) {
    if (sys.cell(c).in_recovery()) {
      std::ostringstream detail;
      detail << "cell " << c << " still flagged in_recovery at scenario end";
      Add(out, "recovery-barriers", detail.str());
    }
  }
}

void CheckFirewallInvariants(const OracleInput& input, std::vector<OracleViolation>* out) {
  // AuditAll self-skips when firewall checking is disabled (the wild-write
  // fixture); the canary oracle carries the detection burden there.
  hive::InvariantChecker checker(input.system);
  const hive::InvariantReport report = checker.AuditAll(/*raise_hints=*/false);
  for (const hive::InvariantMismatch& mismatch : report.mismatches) {
    Add(out, "firewall-invariants", mismatch.ToString());
  }
}

void CheckNoStaleExports(const OracleInput& input, std::vector<OracleViolation>* out) {
  HiveSystem& sys = *input.system;
  uint64_t failed_mask = 0;
  for (CellId c = 0; c < sys.num_cells(); ++c) {
    if (!sys.cell(c).alive()) {
      failed_mask |= 1ull << c;
    }
  }
  if (failed_mask == 0) {
    return;
  }
  for (CellId c : sys.LiveCells()) {
    Cell& cell = sys.cell(c);
    cell.pfdats().ForEach([&](hive::Pfdat* pfdat) {
      if ((pfdat->exported_writable & failed_mask) != 0) {
        std::ostringstream detail;
        detail << "cell " << c << " frame 0x" << std::hex << pfdat->frame << std::dec
               << " still exported writable to a failed cell after recovery";
        Add(out, "no-stale-exports", detail.str());
      } else if ((pfdat->exported_to & failed_mask) != 0) {
        std::ostringstream detail;
        detail << "cell " << c << " frame 0x" << std::hex << pfdat->frame << std::dec
               << " still exported to a failed cell after recovery";
        Add(out, "no-stale-exports", detail.str());
      }
      if (pfdat->imported_from != hive::kInvalidCell &&
          (failed_mask & (1ull << pfdat->imported_from)) != 0) {
        std::ostringstream detail;
        detail << "cell " << c << " still imports a page from failed cell "
               << pfdat->imported_from;
        Add(out, "no-stale-exports", detail.str());
      }
    });
  }
}

void CheckCanaries(const OracleInput& input, std::vector<OracleViolation>* out) {
  const CanaryState* canaries = input.canaries;
  if (canaries == nullptr) {
    return;
  }
  HiveSystem& sys = *input.system;
  for (const CanaryState::PerCell& canary : canaries->cells) {
    if (!canary.valid || canary.cross_reader == hive::kInvalidCell) {
      continue;
    }
    // Reachable, not merely alive(): a hardware-dead cell awaiting agreement
    // cannot execute reads.
    if (!sys.CellReachable(canary.cross_reader)) {
      continue;
    }
    Cell& reader = sys.cell(canary.cross_reader);
    // 1. The pre-fault handle: a read may fail (stale generation after a
    // discard, unreachable data home) but whatever it *returns as data* must
    // be the canary pattern -- stale or corrupt bytes served as fresh data is
    // exactly the undetected-corruption failure mode the firewall exists to
    // prevent.
    std::vector<uint8_t> buf(canary.size);
    Ctx ctx = reader.MakeCtx();
    base::Status status = base::CellFailed();
    // The data home's memory may fail mid-read: unreadable is a legal outcome.
    (void)flash::CaptureTrap([&] {
      status = reader.fs().Read(ctx, canary.cross_handle, 0, std::span<uint8_t>(buf));
    });
    if (status.ok() &&
        buf != workloads::PatternData(canary.pattern_seed, canary.size)) {
      std::ostringstream detail;
      detail << "pre-fault handle for " << canary.path
             << " served corrupted data as current (generation not bumped)";
      Add(out, "generation-consistency", detail.str());
    }
    // 2. A fresh open by a live reader: must also never yield corrupt bytes.
    Ctx fresh_ctx = reader.MakeCtx();
    std::fill(buf.begin(), buf.end(), 0);
    status = base::CellFailed();
    // The data home may have failed: unreadable is a legal outcome.
    (void)flash::CaptureTrap([&] {
      auto handle = reader.fs().Open(fresh_ctx, canary.path);
      if (handle.ok()) {
        status = reader.fs().Read(fresh_ctx, *handle, 0, std::span<uint8_t>(buf));
      }
    });
    if (status.ok() &&
        buf != workloads::PatternData(canary.pattern_seed, canary.size)) {
      std::ostringstream detail;
      detail << "fresh open of " << canary.path << " read corrupted data";
      Add(out, "generation-consistency", detail.str());
    }
  }
}

void CheckSurvivorsFunctional(const OracleInput& input,
                              std::vector<OracleViolation>* out) {
  HiveSystem& sys = *input.system;
  // Survivors = cells whose kernel AND hardware are up. A hardware-dead cell
  // still awaiting agreement is not expected to serve anything.
  std::vector<CellId> live;
  for (CellId c : sys.LiveCells()) {
    if (sys.CellReachable(c)) {
      live.push_back(c);
    }
  }
  if (live.empty()) {
    return;  // Every cell was independently faulted; nothing to promise.
  }
  const std::string path =
      "/campaign/post-" + std::to_string(input.spec->index) + "-check";
  const uint64_t size = 4096;
  const uint64_t pattern = input.spec->seed ^ 0x706f7374;
  // A trap while exercising survivors is the containment violation reported.
  const std::optional<flash::BusError> trap = flash::CaptureTrap([&] {
    Cell& writer = sys.cell(live.front());
    Ctx wctx = writer.MakeCtx();
    auto created = writer.fs().Create(wctx, path, workloads::PatternData(pattern, size));
    if (!created.ok()) {
      std::ostringstream detail;
      detail << "survivor cell " << live.front() << " cannot create files: "
             << created.status().name();
      Add(out, "survivors-functional", detail.str());
      return;
    }
    // Cross-cell read from the farthest survivor (same-cell when only one).
    Cell& reader = sys.cell(live.back());
    Ctx rctx = reader.MakeCtx();
    auto handle = reader.fs().Open(rctx, path);
    if (!handle.ok()) {
      std::ostringstream detail;
      detail << "survivor cell " << live.back() << " cannot open " << path << ": "
             << handle.status().name();
      Add(out, "survivors-functional", detail.str());
      return;
    }
    std::vector<uint8_t> buf(size);
    base::Status status = reader.fs().Read(rctx, *handle, 0, std::span<uint8_t>(buf));
    if (!status.ok() ||
        buf != workloads::PatternData(pattern, size)) {
      std::ostringstream detail;
      detail << "survivor cell " << live.back() << " read of " << path
             << (status.ok() ? std::string(" returned corrupt data")
                             : " failed: " + std::string(status.name()));
      Add(out, "survivors-functional", detail.str());
    }
  });
  if (trap) {
    std::ostringstream detail;
    detail << "survivor file check hit a bus error: " << trap->what();
    Add(out, "survivors-functional", detail.str());
  }
}

void CheckOutputs(const OracleInput& input, std::vector<OracleViolation>* out) {
  if (input.corrupt_outputs > 0) {
    std::ostringstream detail;
    detail << input.corrupt_outputs
           << " workload output file(s) failed validation on the surviving file server";
    Add(out, "output-integrity", detail.str());
  }
}

// Non-idempotent handlers must never re-execute a request, no matter how the
// substrate duplicated or the transport retransmitted it. The counter only
// moves when the replay cache sees an already-served sequence number and
// suppression is off (the no-dedup fixture), or if the cache logic regresses.
void CheckRpcAtMostOnce(const OracleInput& input, std::vector<OracleViolation>* out) {
  HiveSystem& sys = *input.system;
  for (CellId c = 0; c < sys.num_cells(); ++c) {
    const hive::RpcCallStats& stats = sys.cell(c).rpc().stats();
    if (stats.at_most_once_violations > 0) {
      std::ostringstream detail;
      detail << "cell " << c << " re-executed " << stats.at_most_once_violations
             << " non-idempotent request(s)";
      Add(out, "rpc-at-most-once", detail.str());
    }
  }
}

// Every acknowledged mutation was executed: a client may only see OK for an
// at-most-once call if the server ran the handler (executions without an ack
// -- a lost reply -- are fine; acks without an execution are lost writes).
// Only airtight while no cell died or rebooted: a reboot resets the
// server-side execution counters.
void CheckRpcNoLostAck(const OracleInput& input, std::vector<OracleViolation>* out) {
  HiveSystem& sys = *input.system;
  if (sys.recovery().recoveries_run() > 0) {
    return;
  }
  uint64_t acked = 0;
  uint64_t executed = 0;
  for (CellId c = 0; c < sys.num_cells(); ++c) {
    if (!sys.cell(c).alive()) {
      return;
    }
    const hive::RpcCallStats& stats = sys.cell(c).rpc().stats();
    acked += stats.acked_mutations;
    executed += stats.executed_mutations;
  }
  if (acked > executed) {
    std::ostringstream detail;
    detail << "clients saw " << acked << " acknowledged mutation(s) but servers "
           << "executed only " << executed;
    Add(out, "rpc-no-lost-ack", detail.str());
  }
}

// Graceful degradation: message faults alone must never cost a cell its
// life or leave the hive wedged in recovery -- the transport retries, and
// quarantine resolves once agreement clears the suspect.
void CheckRpcLiveness(const OracleInput& input, std::vector<OracleViolation>* out) {
  const ScenarioSpec& spec = *input.spec;
  bool any_message = false;
  for (const FaultSpec& fault : spec.faults) {
    if (fault.kind != FaultKind::kMessageFaults) {
      return;  // Another fault kind may legitimately kill cells.
    }
    any_message = true;
  }
  if (!any_message) {
    return;
  }
  HiveSystem& sys = *input.system;
  for (CellId c = 0; c < spec.num_cells; ++c) {
    Cell& cell = sys.cell(c);
    if (!cell.alive() || !sys.CellReachable(c)) {
      std::ostringstream detail;
      detail << "cell " << c << " died under message faults alone"
             << (cell.panic_reason().empty() ? ""
                                             : " (panic: " + cell.panic_reason() + ")");
      Add(out, "rpc-liveness", detail.str());
    }
  }
}

// A quarantine is an escalated failure-detector judgement; it must never
// happen silently. Any cell that quarantined a peer must have raised at
// least one detector hint (the hint precedes the escalation by design).
void CheckQuarantineImpliesHint(const OracleInput& input,
                                std::vector<OracleViolation>* out) {
  HiveSystem& sys = *input.system;
  for (CellId c = 0; c < sys.num_cells(); ++c) {
    Cell& cell = sys.cell(c);
    const hive::RpcCallStats& stats = cell.rpc().stats();
    if (stats.quarantines_entered > 0 && cell.detector().hints_raised() == 0) {
      std::ostringstream detail;
      detail << "cell " << c << " entered " << stats.quarantines_entered
             << " quarantine(s) without ever raising a detector hint";
      Add(out, "quarantine-implies-hint", detail.str());
    }
  }
}

// A rogue cell (alive but Byzantine) must be detected and excised within the
// detection bound of its injection: every misbehaviour axis has a detector
// whose latency is far below the grace window (clock stale/drift windows,
// structure-prober cadence, heartbeat retries, babble throttle, accusation
// strikes).
void CheckRogueDetection(const OracleInput& input, std::vector<OracleViolation>* out) {
  const ScenarioSpec& spec = *input.spec;
  HiveSystem& sys = *input.system;
  for (size_t i = 0; i < spec.faults.size(); ++i) {
    const FaultSpec& fault = spec.faults[i];
    if (fault.kind != FaultKind::kRogueCell ||
        (i < input.injected.size() && !input.injected[i])) {
      continue;
    }
    if (!sys.CellConfirmedFailed(fault.victim)) {
      std::ostringstream detail;
      detail << "rogue cell " << fault.victim << " (axes "
             << RogueAxesToString(fault.rogue_axes) << ") was never excised";
      Add(out, "rogue-detected", detail.str());
      continue;
    }
    // Excision time: the kCellExcised record the survivors traced. The rogue
    // itself may carry no such record (it is dead by then).
    Time excised_at = -1;
    for (CellId c = 0; c < spec.num_cells; ++c) {
      for (const TraceRecord& record : sys.cell(c).trace().Snapshot()) {
        if (record.event == TraceEvent::kCellExcised &&
            record.arg0 == static_cast<uint64_t>(fault.victim)) {
          excised_at = excised_at < 0 ? record.when : std::min(excised_at, record.when);
        }
      }
    }
    if (excised_at >= 0 && excised_at - fault.inject_at > kDetectionGraceNs) {
      std::ostringstream detail;
      detail << "rogue cell " << fault.victim << " excised only at t="
             << excised_at / hive::kMillisecond << "ms, "
             << (excised_at - fault.inject_at) / hive::kMillisecond
             << "ms after injection (bound " << kDetectionGraceNs / hive::kMillisecond
             << "ms)";
      Add(out, "rogue-detected", detail.str());
    }
  }
}

// Survivors must never hang while inspecting a rogue's memory: every remote
// structure traversal stays within a sane hop bound and no agreement round
// consumes unbounded time (a mute voter costs one vote timeout, a cyclic
// chain is cut by the hop bound / cycle detection).
void CheckNoSurvivorHang(const OracleInput& input, std::vector<OracleViolation>* out) {
  const ScenarioSpec& spec = *input.spec;
  if (!spec.rogue_only && !spec.healthy_baseline) {
    return;
  }
  constexpr int kMaxSaneHops = 64;
  constexpr Time kMaxRoundCostNs = 100 * hive::kMillisecond;
  HiveSystem& sys = *input.system;
  for (CellId c : sys.LiveCells()) {
    const int hops = sys.cell(c).detector().max_traversal_hops();
    if (hops > kMaxSaneHops) {
      std::ostringstream detail;
      detail << "cell " << c << " walked a remote structure for " << hops
             << " hops (bound " << kMaxSaneHops << "): survivor hung on rogue memory";
      Add(out, "no-survivor-hang", detail.str());
    }
  }
  if (sys.agreement().max_round_cost_ns() > kMaxRoundCostNs) {
    std::ostringstream detail;
    detail << "an agreement round consumed "
           << sys.agreement().max_round_cost_ns() / hive::kMillisecond
           << "ms (bound " << kMaxRoundCostNs / hive::kMillisecond << "ms)";
    Add(out, "no-survivor-hang", detail.str());
  }
}

// No healthy cell may ever be excised: in rogue scenarios only the rogue may
// be confirmed failed, and in the healthy baseline (same geometry, same
// detectors, zero faults) there must be no excision at all -- the sensitivity
// proof that the hardened detectors do not false-positive.
void CheckNoFalseExcision(const OracleInput& input, std::vector<OracleViolation>* out) {
  const ScenarioSpec& spec = *input.spec;
  if (!spec.rogue_only && !spec.healthy_baseline) {
    return;
  }
  HiveSystem& sys = *input.system;
  for (CellId c = 0; c < spec.num_cells; ++c) {
    if (!sys.CellConfirmedFailed(c)) {
      continue;
    }
    bool is_rogue = false;
    for (size_t i = 0; i < spec.faults.size(); ++i) {
      is_rogue = is_rogue || (spec.faults[i].kind == FaultKind::kRogueCell &&
                              spec.faults[i].victim == c &&
                              (i >= input.injected.size() || input.injected[i]));
    }
    if (!is_rogue) {
      std::ostringstream detail;
      detail << "healthy cell " << c << " was excised"
             << (spec.healthy_baseline ? " in the zero-fault baseline" : "");
      Add(out, "no-false-excision", detail.str());
    }
  }
}

void CheckTraceConsistency(const OracleInput& input, std::vector<OracleViolation>* out) {
  HiveSystem& sys = *input.system;
  for (CellId c : sys.LiveCells()) {
    hive::TraceBuffer& trace = sys.cell(c).trace();
    const int enters = trace.Count(TraceEvent::kEnterRecovery);
    const int exits = trace.Count(TraceEvent::kExitRecovery);
    if (enters != exits) {
      std::ostringstream detail;
      detail << "cell " << c << " trace shows " << enters << " recovery entries but "
             << exits << " exits";
      Add(out, "trace-consistency", detail.str());
    }
  }
}

// Every salvaged page that backs a canary file must still hold the canary
// pattern. Adopting a frame the dead cell had actually scribbled is exactly
// the corruption leak the salvage proofs (firewall vector, content checksum)
// exist to prevent -- worse than a discard, because the corrupt bytes stay
// bound as current file content.
void CheckNoCorruptAdoption(const OracleInput& input, std::vector<OracleViolation>* out) {
  HiveSystem& sys = *input.system;
  const auto& log = sys.recovery().salvage_log();
  if (log.empty() || input.canaries == nullptr) {
    return;
  }
  const uint64_t page_size = sys.machine().mem().page_size();
  for (const CanaryState::PerCell& canary : input.canaries->cells) {
    if (!canary.valid) {
      continue;
    }
    auto file = sys.LookupPath(canary.path);
    if (!file.ok()) {
      continue;  // Canary's name vanished with its data home.
    }
    const std::vector<uint8_t> pattern =
        workloads::PatternData(canary.pattern_seed, canary.size);
    for (const hive::SalvageRecord& record : log) {
      if (record.lpid.kind != hive::LogicalPageId::Kind::kFile ||
          record.lpid.data_home != file->data_home ||
          record.lpid.object != static_cast<uint64_t>(file->vnode)) {
        continue;
      }
      const uint64_t byte_off = record.lpid.page_offset * page_size;
      if (byte_off >= canary.size) {
        continue;  // Page past the patterned range (zero fill): nothing to compare.
      }
      const uint64_t n = std::min(page_size, canary.size - byte_off);
      std::vector<uint8_t> buf(n);
      // The adopting cell's memory may have failed since: nothing was served.
      if (flash::CaptureTrap([&] {
            sys.machine().mem().DmaRead(sys.cell(record.owner).first_node(), record.frame,
                                        std::span<uint8_t>(buf));
          })) {
        continue;
      }
      if (!std::equal(buf.begin(), buf.end(),
                      pattern.begin() + static_cast<ptrdiff_t>(byte_off))) {
        std::ostringstream detail;
        detail << "cell " << record.owner << " salvaged page " << record.lpid.page_offset
               << " of " << canary.path << " with corrupt content (firewall_proof="
               << record.firewall_proof << " checksum_proof=" << record.checksum_proof
               << ")";
        Add(out, "no-corrupt-adoption", detail.str());
      }
    }
  }
}

// Every reintegration that started must converge: finish its rejoin within
// the bound, re-excise the cell (killed again mid-rejoin), or fail loudly.
// A silently stuck half-member -- rebooted but never again a full peer -- is
// the failure mode live rejoin under load can introduce.
void CheckReintegrationConverges(const OracleInput& input,
                                 std::vector<OracleViolation>* out) {
  HiveSystem& sys = *input.system;
  const Time now = sys.machine().Now();
  for (const hive::ReintegrationRecord& record : sys.recovery().reintegration_log()) {
    if (record.failed || record.re_excised) {
      continue;  // Loud terminal outcomes; fault-containment judges the cell state.
    }
    if (record.done_at == 0) {
      if (now - record.started_at > kReintegrationBoundNs) {
        std::ostringstream detail;
        detail << "reintegration of cell " << record.cell << " started at t="
               << record.started_at << "ns never converged";
        Add(out, "reintegration-converges", detail.str());
      }
      continue;
    }
    if (record.done_at - record.started_at > kReintegrationBoundNs) {
      std::ostringstream detail;
      detail << "reintegration of cell " << record.cell << " took "
             << (record.done_at - record.started_at) << "ns (bound "
             << kReintegrationBoundNs << "ns)";
      Add(out, "reintegration-converges", detail.str());
    }
  }
}

// No frame an injected wild write actually landed in may ever be salvaged:
// whatever the proofs concluded, that frame provably holds garbage.
void CheckSalvageContainment(const OracleInput& input,
                             std::vector<OracleViolation>* out) {
  HiveSystem& sys = *input.system;
  for (const hive::SalvageRecord& record : sys.recovery().salvage_log()) {
    for (hive::PhysAddr frame : input.wild_write_frames) {
      if (record.frame == frame) {
        std::ostringstream detail;
        detail << "frame 0x" << std::hex << frame << std::dec
               << " took a wild write but was salvaged by cell " << record.owner
               << " (firewall_proof=" << record.firewall_proof
               << " checksum_proof=" << record.checksum_proof << ")";
        Add(out, "salvage-containment", detail.str());
      }
    }
  }
}

std::vector<OracleViolation> CheckAllOracles(const OracleInput& input) {
  std::vector<OracleViolation> violations;
  CheckContainmentAndDetection(input, &violations);
  CheckRecoveryBarriers(input, &violations);
  CheckFirewallInvariants(input, &violations);
  CheckNoStaleExports(input, &violations);
  CheckCanaries(input, &violations);
  CheckSurvivorsFunctional(input, &violations);
  CheckOutputs(input, &violations);
  CheckRpcAtMostOnce(input, &violations);
  CheckRpcNoLostAck(input, &violations);
  CheckRpcLiveness(input, &violations);
  CheckQuarantineImpliesHint(input, &violations);
  CheckRogueDetection(input, &violations);
  CheckNoSurvivorHang(input, &violations);
  CheckNoFalseExcision(input, &violations);
  CheckTraceConsistency(input, &violations);
  CheckNoCorruptAdoption(input, &violations);
  CheckReintegrationConverges(input, &violations);
  CheckSalvageContainment(input, &violations);
  return violations;
}

}  // namespace campaign
