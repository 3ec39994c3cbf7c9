// ocean: the paper's parallel scientific application (SPLASH-2 ocean
// simulation, 130x130 grid, table 7.1). One thread per processor, a
// write-shared data segment spanning the whole grid, and a barrier per
// timestep. Because the data segment is write-shared by all processors, the
// firewall policy leaves it remotely writable everywhere (the average of
// ~550 remotely-writable pages per cell in section 4.2); after the first
// touch almost all execution is user mode, so the multicellular overhead is
// negligible (table 7.2).

#ifndef HIVE_SRC_WORKLOADS_OCEAN_H_
#define HIVE_SRC_WORKLOADS_OCEAN_H_

#include <memory>
#include <string>
#include <vector>

#include "src/workloads/workload.h"

namespace workloads {

struct OceanParams {
  hive::CellId segment_home = 0;  // Data home of the shared grid segment.
  uint64_t grid_pages = 2930;     // ~12 MB of write-shared grids.
  int timesteps = 60;
  Time compute_per_step = 100 * hive::kMillisecond;  // Per thread per step.
  int touches_per_step = 64;      // Pages each thread writes per step.
  // Stencil halo: boundary pages of the neighbouring partition each thread
  // also writes per step (genuine cross-cell write sharing).
  int halo_pages = 4;
  int remote_touch_misses = 2;    // Cache misses charged per touched page.
  // Ocean's remote write misses are contended (3-hop dirty misses), slower
  // than the 700 ns machine average; this makes the fixed firewall check a
  // smaller fraction (4.4% vs pmake's 6.3%, section 4.2).
  Time contended_miss_ns = 1000;
  uint64_t name_seed = 0x6f6365;
};

class OceanWorkload {
 public:
  OceanWorkload(hive::HiveSystem* system, const OceanParams& params);

  // Creates the shared grid file on the segment home.
  void Setup();

  // Forks one thread per CPU as one task group (a spanning application);
  // returns the pids.
  std::vector<hive::ProcId> Start();

  const std::vector<hive::ProcId>& pids() const { return pids_; }
  int64_t task_group() const { return task_group_; }

 private:
  std::unique_ptr<hive::Behavior> MakeThread(int thread, int num_threads);
  std::string SegmentPath() const;

  hive::HiveSystem* system_;
  OceanParams params_;
  std::vector<hive::ProcId> pids_;
  int64_t task_group_ = -1;
  std::vector<std::shared_ptr<hive::UserBarrier>> barriers_;
};

}  // namespace workloads

#endif  // HIVE_SRC_WORKLOADS_OCEAN_H_
