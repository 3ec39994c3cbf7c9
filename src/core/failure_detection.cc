#include "src/core/failure_detection.h"

#include <cstdlib>

#include "src/base/log.h"
#include "src/core/careful_ref.h"
#include "src/core/cell.h"
#include "src/core/hive_system.h"
#include "src/core/rpc.h"

namespace hive {

const char* HintReasonName(HintReason reason) {
  // Exhaustive: no default, so adding an enumerator without a name is a
  // compile error (-Wswitch) instead of a silent "unknown" in repro lines.
  switch (reason) {
    case HintReason::kRpcTimeout:
      return "rpc-timeout";
    case HintReason::kBusError:
      return "bus-error";
    case HintReason::kClockStale:
      return "clock-stale";
    case HintReason::kCarefulCheckFailed:
      return "careful-check-failed";
    case HintReason::kInvariantMismatch:
      return "invariant-mismatch";
    case HintReason::kClockDrift:
      return "clock-drift";
    case HintReason::kBabbling:
      return "babbling";
  }
  std::abort();  // Unreachable for in-range enumerators.
}

bool HintReasonFromName(std::string_view name, HintReason* out) {
  for (HintReason reason : kAllHintReasons) {
    if (name == HintReasonName(reason)) {
      *out = reason;
      return true;
    }
  }
  return false;
}

FailureDetector::FailureDetector(Cell* cell)
    : cell_(cell), peers_(static_cast<size_t>(cell->system()->num_cells())) {}

CellId FailureDetector::MonitoredPeer() const {
  // Ring over cells not yet *confirmed* failed: a silently-dead cell must
  // still be watched, or its failure would never be detected.
  const int n = cell_->system()->num_cells();
  for (int step = 1; step < n; ++step) {
    const CellId peer = (cell_->id() + step) % n;
    if (!cell_->system()->CellConfirmedFailed(peer)) {
      return peer;
    }
  }
  return kInvalidCell;
}

void FailureDetector::MonitorPeerClock(Ctx& ctx) {
  const CellId peer = MonitoredPeer();
  if (peer == kInvalidCell || peer == cell_->id()) {
    return;
  }
  Cell& peer_cell = cell_->system()->cell(peer);

  // The careful reference protocol bounds the cost of this check: 1.16 us on
  // the paper's hardware, of which 0.7 us is the remote miss (section 4.1).
  uint64_t value = 0;
  {
    CarefulRef careful(&ctx, &cell_->machine().mem(), cell_->costs(), peer,
                       peer_cell.mem_base(), peer_cell.mem_size());
    auto read = careful.ReadTagged<uint64_t>(peer_cell.clock_word_addr(), kTagClockWord);
    if (!read.ok()) {
      if (read.status().code() == base::StatusCode::kBusError) {
        // Memory unreachable: the classic dead-cell signature, no evidence
        // needed -- every voter's own probe fails the same way.
        RaiseHint(ctx, peer, HintReason::kBusError);
      } else {
        // The clock word is readable but its allocation header no longer
        // carries the expected tag: a live peer scribbled its own heap.
        // Attach evidence so voters re-run the tag check themselves.
        HintEvidence evidence;
        evidence.structure = EvidenceStructure::kClockWord;
        RaiseHintWithEvidence(ctx, peer, HintReason::kCarefulCheckFailed, evidence);
      }
      return;
    }
    value = *read;
  }

  Peer& record = peers_[peer];
  if (record.last_clock == value) {
    if (++record.stale_ticks >= cell_->costs().clock_missed_ticks_threshold) {
      record.stale_ticks = 0;
      record.drift = {};  // A frozen clock is the stale check's finding.
      HintEvidence evidence;
      evidence.structure = EvidenceStructure::kClockWord;
      evidence.clock_value = value;
      RaiseHintWithEvidence(ctx, peer, HintReason::kClockStale, evidence);
      return;
    }
  } else {
    record.stale_ticks = 0;
  }
  record.last_clock = value;

  // Drift window: a clock that keeps moving -- so the stale check never
  // fires -- but advances well below one increment per monitoring tick marks
  // a sick peer (run-away interrupt load, or a rogue cell feigning life).
  DriftWindow& window = record.drift;
  ++window.ticks;
  if (window.ticks == 1) {
    window.start_value = value;
    return;
  }
  if (window.ticks < kDriftWindowTicks) {
    return;
  }
  const uint64_t advance = value - window.start_value;
  const int intervals = window.ticks - 1;
  window = {};  // Restart the window either way.
  if (advance > 0 && advance * 4 < static_cast<uint64_t>(intervals) * 3) {
    HintEvidence evidence;
    evidence.structure = EvidenceStructure::kClockWord;
    evidence.clock_value = value - advance;  // Window start value.
    evidence.ticks_observed = intervals;
    RaiseHintWithEvidence(ctx, peer, HintReason::kClockDrift, evidence);
  }
}

void FailureDetector::RaiseHint(Ctx& ctx, CellId suspect, HintReason reason) {
  peers_[suspect].evidence = {};  // No evidence accompanies this hint.
  RaiseHintCommon(ctx, suspect, reason);
}

void FailureDetector::RaiseHintWithEvidence(Ctx& ctx, CellId suspect, HintReason reason,
                                            const HintEvidence& evidence) {
  HintEvidence& stored = peers_[suspect].evidence;
  stored = evidence;
  stored.valid = true;
  stored.reason = reason;
  RaiseHintCommon(ctx, suspect, reason);
}

void FailureDetector::RaiseHintCommon(Ctx& ctx, CellId suspect, HintReason reason) {
  if (cell_->system()->smp_mode() || suspect == cell_->id()) {
    return;
  }
  ++hints_raised_;
  ++hints_by_reason_[static_cast<int>(reason)];
  cell_->Trace(TraceEvent::kHintRaised, static_cast<uint64_t>(suspect),
               static_cast<uint64_t>(reason));
  LOG(kDebug) << "cell " << cell_->id() << " raises hint against cell " << suspect << " ("
              << HintReasonName(reason) << ") at t=" << ctx.VirtualNow();
  cell_->system()->HandleAlert(ctx, cell_->id(), suspect, reason);
}

const HintEvidence& FailureDetector::EvidenceAgainst(CellId suspect) const {
  return peers_[suspect].evidence;
}

void FailureDetector::ClearEvidence(CellId suspect) { peers_[suspect].evidence = {}; }

bool FailureDetector::RecordIncomingRequest(Ctx& ctx, CellId from) {
  if (cell_->system()->smp_mode() || from == cell_->id()) {
    return true;
  }
  Peer& record = peers_[from];
  if (record.babbler) {
    // Throttled: reject at the dispatch boundary so a babbler costs the
    // victim O(1) per request instead of a full handler execution.
    return false;
  }
  RateWindow& window = record.incoming;
  const Time now = ctx.VirtualNow();
  if (!window.open || now - window.start > kBabbleWindowNs) {
    window.open = true;
    window.start = now;
    window.count = 0;
  }
  if (++window.count < kBabbleThreshold) {
    return true;
  }
  record.babbler = true;
  // Escalate: quarantine outgoing traffic to the babbler immediately, then
  // raise the hint (agreement may confirm and excise it).
  cell_->rpc().QuarantinePeer(ctx, from);
  HintEvidence evidence;
  RaiseHintWithEvidence(ctx, from, HintReason::kBabbling, evidence);
  return false;
}

void FailureDetector::ForgetCell(CellId cell_id) { peers_[cell_id] = Peer{}; }

}  // namespace hive
