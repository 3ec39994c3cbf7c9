// The virtual memory clock hand (pageout daemon). Paper sections 3.2 and 5.7:
// each cell runs a clock hand that frees pages under memory pressure; Wax
// directs it to preferentially free pages whose memory home is under pressure
// (returning borrowed frames first) -- one of the policies "driven by Wax" in
// table 3.4.
//
// The paper left the eviction policy as future work ("We have not yet
// developed a better policy", section 5.4); this implementation provides the
// standard second-chance scan over reclaimable page-cache entries.

#ifndef HIVE_SRC_CORE_PAGEOUT_H_
#define HIVE_SRC_CORE_PAGEOUT_H_

#include <cstdint>

#include "src/core/context.h"
#include "src/core/types.h"

namespace hive {

class Cell;

class PageoutDaemon {
 public:
  explicit PageoutDaemon(Cell* cell) : cell_(cell) {}

  // Starts the periodic scan (every kScanPeriod while the cell lives).
  void Start();

  // Cancels the pending scan event. Must be called before the daemon is
  // destroyed (panic, death, reboot) -- the event captures `this`.
  void Stop();

  // One clock-hand pass: if local free memory is below the low-water mark,
  // reclaims up to `max_pages` reclaimable pages. Reclaim order:
  //   1. read-only imports with no references (cheap: just drop the binding),
  //   2. clean local file pages with no references and no exports,
  //   3. dirty local file pages (written back to disk first).
  // Returns the number of frames freed.
  int Scan(Ctx& ctx, int max_pages = 128);

  // Free-frame threshold below which the daemon reclaims.
  static constexpr size_t kLowWaterFrames = 256;
  static constexpr Time kScanPeriod = 250 * kMillisecond;

  uint64_t dirty_writebacks() const { return dirty_writebacks_; }

 private:
  void Tick();

  Cell* cell_;
  uint64_t event_id_ = 0;
  uint64_t dirty_writebacks_ = 0;
};

}  // namespace hive

#endif  // HIVE_SRC_CORE_PAGEOUT_H_
