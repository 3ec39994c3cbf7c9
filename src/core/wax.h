// Wax: the user-level resource management policy process (paper section 3.2).
//
// Wax is a multithreaded user-level process with threads on every cell. It
// reads state from all cells through shared memory, builds a global view, and
// provides hints that drive the resource management policies needing that
// global view (page allocation targets, clock-hand deallocation targets,
// scheduling/placement). Cells sanity-check every input from Wax, and
// correctness-critical operations never depend on it: a damaged Wax can hurt
// performance but not correctness.
//
// Wax uses resources from all cells, so whenever any cell fails it simply
// exits; recovery starts a fresh incarnation which forks to all cells and
// rebuilds its picture of the system from scratch.

#ifndef HIVE_SRC_CORE_WAX_H_
#define HIVE_SRC_CORE_WAX_H_

#include <cstdint>
#include <vector>

#include "src/core/context.h"
#include "src/core/types.h"
#include "src/flash/event_queue.h"

namespace hive {

class HiveSystem;

// The hint block a cell keeps from Wax (after sanity-checking).
struct WaxHints {
  CellId preferred_borrow_target = kInvalidCell;  // Memory-rich cell.
  CellId preferred_fork_target = kInvalidCell;    // Least-loaded cell.
  bool valid = false;
};

class Wax {
 public:
  explicit Wax(HiveSystem* system) : system_(system) {}

  // Forks Wax threads to all live cells and schedules the periodic scan. An
  // incarnation has exactly one pending scan; starting a new one cancels
  // whatever an earlier incarnation left queued.
  void Start(Time when);

  // Any cell failed: Wax's pages are discarded and it exits, cancelling its
  // pending scan. Recovery calls Restart afterwards.
  void OnCellFailure();
  void Restart(Time when);

  bool running() const { return running_; }
  int incarnation() const { return incarnation_; }
  uint64_t scans() const { return scans_; }

  static constexpr Time kScanPeriod = 100 * kMillisecond;

 private:
  void ScheduleScan();
  void Scan();

  HiveSystem* system_;
  bool running_ = false;
  int incarnation_ = 0;
  uint64_t scans_ = 0;
  flash::EventId scan_event_ = flash::kInvalidEventId;  // The pending scan.
};

}  // namespace hive

#endif  // HIVE_SRC_CORE_WAX_H_
