// Assembles the simulated FLASH machine: nodes with CPUs, memory, firewall
// and disks, driven by one discrete-event queue, plus the message-fault model
// that every intercell SIPS hop samples (the RPC transport charges the hop).
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
#include "src/flash/phys_mem.h"

namespace flash {

class MessageFaultModel;

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
  ~Machine();

  const MachineConfig& config() const { return config_; }
  EventQueue& events() { return events_; }
  Time Now() const { return events_.Now(); }

  size_t RunUntil(Time deadline) { return events_.RunUntil(deadline); }

  PhysMem& mem() { return mem_; }
  const PhysMem& mem() const { return mem_; }
  Firewall& firewall() { return mem_.firewall(); }
  CacheModel& cache() { return cache_; }
  base::Rng& rng() { return rng_; }

  Cpu& cpu(int id) { return cpus_[static_cast<size_t>(id)]; }
  const Cpu& cpu(int id) const { return cpus_[static_cast<size_t>(id)]; }
  int num_cpus() const { return static_cast<int>(cpus_.size()); }
  int NodeOfCpu(int cpu_id) const { return cpu_id / config_.cpus_per_node; }
  int FirstCpuOfNode(int node) const { return node * config_.cpus_per_node; }

  Disk& disk(int node) { return *disks_[static_cast<size_t>(node)]; }

  // Installs (or replaces) the seed-driven message-fault model
  // (fault_injector.h). Null until installed: every SIPS hop is then clean.
  void EnableMessageFaults(uint64_t seed);
  MessageFaultModel* message_faults() { return message_faults_.get(); }

  // --- Hardware fault injection primitives. ---

  // Fail-stop node failure: the processor halts and the node's memory range
  // becomes inaccessible; RPCs to its cell then time out.
  void FailNode(int node);

  // Halts a single processor without failing memory (detected only by clock
  // monitoring).
  void HaltCpu(int cpu_id);

  // Memory cutoff used by the cell panic routine (paper table 8.1).
  void CutOffNode(int node);

  // Diagnostics passed: node rebooted and reintegrated.
  void RestoreNode(int node);

  // Hardware death (FailNode), not a panic's cutoff: the one record of it is
  // PhysMem's failed flag.
  bool NodeDead(int node) const { return mem_.node_failed(node); }

 private:
  MachineConfig config_;
  EventQueue events_;
  PhysMem mem_;
  CacheModel cache_;
  base::Rng rng_;
  std::vector<Cpu> cpus_;
  std::vector<std::unique_ptr<Disk>> disks_;
  std::unique_ptr<MessageFaultModel> message_faults_;
};

}  // namespace flash

#endif  // HIVE_SRC_FLASH_MACHINE_H_
