#include "src/core/wax.h"

#include "src/base/log.h"
#include "src/core/cell.h"
#include "src/core/hive_system.h"
#include "src/core/rpc.h"

namespace hive {

void Wax::Start(Time when) {
  flash::EventQueue& events = system_->machine().events();
  events.Cancel(scan_event_);
  ++incarnation_;
  running_ = true;
  LOG(kDebug) << "wax incarnation " << incarnation_ << " starting at t=" << when;
  scan_event_ = events.ScheduleAt(std::max(when, events.Now()), [this] { Scan(); });
}

void Wax::OnCellFailure() {
  if (!running_) {
    return;
  }
  // Wax uses resources from all cells: its pages are discarded and it exits
  // whenever any cell fails. No attempt is made to recover its internal data
  // structures (paper section 3.2).
  running_ = false;
  system_->machine().events().Cancel(scan_event_);
  scan_event_ = flash::kInvalidEventId;
  LOG(kDebug) << "wax incarnation " << incarnation_ << " exits (cell failure)";
}

void Wax::Restart(Time when) { Start(when); }

void Wax::ScheduleScan() {
  scan_event_ = system_->machine().events().ScheduleAfter(kScanPeriod, [this] { Scan(); });
}

void Wax::Scan() {
  scan_event_ = flash::kInvalidEventId;
  ++scans_;
  const int incarnation = incarnation_;
  const std::vector<CellId> live = system_->LiveCells();
  if (live.empty()) {
    running_ = false;
    return;
  }

  // The Wax threads on each cell read system state through shared memory and
  // synchronize with ordinary locks; the global view costs no RPCs.
  CellId richest = kInvalidCell;
  size_t most_free = 0;
  CellId least_loaded = kInvalidCell;
  size_t lowest_load = ~0ull;
  for (CellId id : live) {
    Cell& cell = system_->cell(id);
    const size_t free = cell.allocator().free_frames();
    if (richest == kInvalidCell || free > most_free) {
      richest = id;
      most_free = free;
    }
    const size_t load = cell.sched().runnable();
    if (least_loaded == kInvalidCell || load < lowest_load) {
      least_loaded = id;
      lowest_load = load;
    }
  }

  // Push hints. Each cell sanity-checks the values (a corrupt Wax can hurt
  // performance but not correctness).
  Cell& home = system_->cell(live.front());
  Ctx ctx = home.MakeCtx();
  for (CellId id : live) {
    RpcArgs args;
    args.w[0] = static_cast<uint64_t>(richest);
    args.w[1] = static_cast<uint64_t>(least_loaded);
    RpcReply reply;
    (void)home.rpc().Call(ctx, id, MsgType::kWaxHint, args, &reply);
    if (!running_ || incarnation_ != incarnation) {
      return;  // A timeout mid-scan triggered failure handling (and restart).
    }
  }
  ScheduleScan();
}

}  // namespace hive
