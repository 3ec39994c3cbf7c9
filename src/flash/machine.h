// Assembles the simulated FLASH machine: nodes with CPUs, memory, firewall,
// SIPS, and disks, driven by one discrete-event queue.
//
// Execution model: kernel operations run synchronously inside events and
// charge latency; per-CPU `free_at` times model processor occupancy. The model
// trades instruction-level fidelity for robustness while keeping the latency
// parameters of the paper's machine model (section 7.2).

#ifndef HIVE_SRC_FLASH_MACHINE_H_
#define HIVE_SRC_FLASH_MACHINE_H_

#include <memory>
#include <vector>

#include "src/base/rng.h"
#include "src/flash/cache_model.h"
#include "src/flash/config.h"
#include "src/flash/disk.h"
#include "src/flash/event_queue.h"
#include "src/flash/interconnect.h"
#include "src/flash/phys_mem.h"
#include "src/flash/sips.h"

namespace flash {

struct Cpu {
  int id = -1;
  int node = -1;
  bool halted = false;
  // Time at which the CPU finishes its currently scheduled work; used by the
  // scheduler to serialize work on one processor.
  Time free_at = 0;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config, uint64_t seed = 1);

  const MachineConfig& config() const { return config_; }
  EventQueue& events() { return events_; }
  Time Now() const { return events_.Now(); }

  size_t RunUntil(Time deadline) { return events_.RunUntil(deadline); }

  const Interconnect& interconnect() const { return interconnect_; }
  PhysMem& mem() { return mem_; }
  const PhysMem& mem() const { return mem_; }
  Firewall& firewall() { return mem_.firewall(); }
  Sips& sips() { return sips_; }
  CacheModel& cache() { return cache_; }
  base::Rng& rng() { return rng_; }

  Cpu& cpu(int id) { return cpus_[static_cast<size_t>(id)]; }
  const Cpu& cpu(int id) const { return cpus_[static_cast<size_t>(id)]; }
  int num_cpus() const { return static_cast<int>(cpus_.size()); }
  int NodeOfCpu(int cpu_id) const { return cpu_id / config_.cpus_per_node; }
  int FirstCpuOfNode(int node) const { return node * config_.cpus_per_node; }

  Disk& disk(int node) { return *disks_[static_cast<size_t>(node)]; }

  // --- Hardware fault injection primitives. ---

  // Fail-stop node failure: the processor halts, the node's memory range
  // becomes inaccessible, SIPS messages to/from it vanish.
  void FailNode(int node);

  // Halts a single processor without failing memory (detected only by clock
  // monitoring).
  void HaltCpu(int cpu_id);

  // Memory cutoff used by the cell panic routine (paper table 8.1).
  void CutOffNode(int node);

  // Diagnostics passed: node rebooted and reintegrated.
  void RestoreNode(int node);

  bool NodeDead(int node) const { return node_dead_[static_cast<size_t>(node)]; }

 private:
  MachineConfig config_;
  EventQueue events_;
  Interconnect interconnect_;
  PhysMem mem_;
  Sips sips_;
  CacheModel cache_;
  base::Rng rng_;
  std::vector<Cpu> cpus_;
  std::vector<std::unique_ptr<Disk>> disks_;
  std::vector<bool> node_dead_;
};

}  // namespace flash

#endif  // HIVE_SRC_FLASH_MACHINE_H_
