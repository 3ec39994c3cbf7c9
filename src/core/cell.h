// A Hive cell: an independent kernel owning a range of nodes (paper section
// 3). Each cell manages the processors, memory and I/O devices on its nodes
// as if it were an independent operating system; cells cooperate to present
// the single-system image.

#ifndef HIVE_SRC_CORE_CELL_H_
#define HIVE_SRC_CORE_CELL_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/context.h"
#include "src/core/costs.h"
#include "src/core/cow_tree.h"
#include "src/core/failure_detection.h"
#include "src/core/filesystem.h"
#include "src/core/firewall_manager.h"
#include "src/core/kernel_heap.h"
#include "src/core/page_allocator.h"
#include "src/core/pageout.h"
#include "src/core/pfdat.h"
#include "src/core/rpc.h"
#include "src/core/scheduler.h"
#include "src/core/swap.h"
#include "src/core/trace.h"
#include "src/core/types.h"
#include "src/core/wax.h"
#include "src/flash/bus_error.h"
#include "src/flash/machine.h"

namespace hive {

class HiveSystem;

enum class CellState {
  kBooting,
  kRunning,
  kPanicked,   // Software fault: cut off memory, halted.
  kDead,       // Hardware fault took the node(s) down.
  kRebooting,  // Undergoing diagnostics + reboot.
};

// Byzantine misbehavior knobs for the campaign's rogue-cell fault family
// (DESIGN.md section 9). A rogue cell stays kRunning but misbehaves along
// the enabled axes; survivors must detect and excise it via the hardened
// detection paths. Cleared on (re)boot.
struct RogueBehavior {
  bool active = false;
  bool clock_freeze = false;    // Stop incrementing the monitored clock word.
  bool clock_drift = false;     // Increment only every clock_drift_divisor-th tick.
  int clock_drift_divisor = 2;  // 2 => half rate: below stale threshold, caught by drift.
  bool rpc_silent = false;      // Drop every incoming RPC; votes time out.
  bool rpc_garbage = false;     // Scribble reply payloads of served requests.
  bool vote_contrarian = false; // Invert this cell's probe votes in agreement rounds.
  uint64_t garbage_seed = 0;    // Deterministic stream for reply scribbles.
};

// Per-cell VM statistics for the section 5.2 measurement.
struct VmStats {
  uint64_t faults = 0;          // Page faults entering the kernel fault path.
  uint64_t cache_hit_faults = 0;  // Faults satisfied from a page cache.
  uint64_t remote_faults = 0;   // ... that went to another cell.
  Time fault_ns = 0;            // Cumulative time spent in faults.
};

class Cell {
 public:
  // The cell owns nodes [first_node, first_node + num_nodes).
  Cell(HiveSystem* system, CellId id, int first_node, int num_nodes);
  ~Cell();

  Cell(const Cell&) = delete;
  Cell& operator=(const Cell&) = delete;

  // Boots the kernel: carves the kernel heap out of the first node, protects
  // kernel memory with the firewall, registers paged memory with the pfdat table,
  // registers RPC handlers, starts the clock.
  void Boot();

  // --- Identity / geometry. ---
  CellId id() const { return id_; }
  HiveSystem* system() const { return system_; }
  flash::Machine& machine() const;
  const KernelCosts& costs() const;

  int first_node() const { return first_node_; }
  int num_nodes() const { return num_nodes_; }
  const std::vector<int>& cpus() const { return cpus_; }
  int FirstCpu() const { return cpus_.front(); }
  uint64_t CpuMask() const;  // Firewall bitmask of this cell's CPUs.

  PhysAddr mem_base() const { return mem_base_; }
  uint64_t mem_size() const { return mem_size_; }
  bool OwnsAddr(PhysAddr addr) const { return addr >= mem_base_ && addr < mem_base_ + mem_size_; }

  // --- State. ---
  CellState state() const { return state_; }
  // Boot incarnation: 1 after the first Boot(), bumped by every reboot.
  // Carried on outgoing RPCs so peers' replay caches can tell this kernel's
  // fresh sequence numbers from a crashed predecessor's (see RpcLayer).
  uint64_t incarnation() const { return incarnation_; }
  bool alive() const { return state_ == CellState::kRunning || state_ == CellState::kBooting; }
  bool in_recovery() const { return in_recovery_; }
  void set_in_recovery(bool v) { in_recovery_ = v; }

  // User-level execution suspension (agreement + recovery).
  Time user_suspended_until() const { return user_suspended_until_; }
  void SuspendUsersUntil(Time t);

  // Kernel panic (paper section 4.1): a bus error outside a careful section
  // or an internal consistency failure. Cuts off remote access to this cell's
  // memory (table 8.1 "memory cutoff") and halts its processors.
  void Panic(const std::string& reason);

  // Runs `fn` as this cell's kernel. This is the one place the section 4.1
  // rule lives: a bus error that reaches here was taken outside a careful
  // section, so this kernel is corrupt and panics with reason
  // "bus error <what>: <trap>". Returns false if it did. Every kernel entry
  // goes through its own cell's boundary, nested ones included (an RPC
  // served for a client, a cell's share of a recovery round run from a
  // peer's event), so a trap unwinds only the work of the kernel that took
  // it and never panics the cell whose event happened to be running.
  template <typename Fn>
  bool RunKernel(const char* what, Fn&& fn) {
    const std::optional<flash::BusError> trap = flash::CaptureTrap(fn);
    if (trap) {
      Panic(std::string("bus error ") + what + ": " + trap->what());
    }
    return !trap;
  }

  // Hardware death (node failure).
  void MarkDead();

  // Fresh boot after diagnostics (reintegration).
  void Reboot();

  // --- Clock (section 4.3 clock monitoring). ---
  PhysAddr clock_word_addr() const { return clock_word_addr_; }
  uint64_t ReadOwnClock() const;
  void StartClock();

  // --- Rogue (Byzantine) fault-injection state. ---
  const RogueBehavior& rogue() const { return rogue_; }
  bool rogue_active() const { return rogue_.active; }
  void SetRogueBehavior(const RogueBehavior& behavior);
  // Next word of the deterministic garbage stream used for reply scribbles.
  uint64_t NextRogueGarbage();

  // Publishes the remotely probed structures (a tagged pointer chain and a
  // tagged seqlock block) survivors walk to health-check this cell.
  // Idempotent, and allocated lazily -- NOT at Boot() -- so healthy runs keep
  // a byte-identical kernel heap layout.
  void PublishProbeStructures();
  PhysAddr chain_head_addr() const { return chain_head_addr_; }
  const std::vector<PhysAddr>& chain_node_addrs() const { return chain_node_addrs_; }
  PhysAddr seq_block_addr() const { return seq_block_addr_; }

  // --- Subsystems. ---
  KernelHeap& heap() { return *heap_; }
  RpcLayer& rpc() { return *rpc_; }
  PfdatTable& pfdats() { return pfdat_table_; }
  PageAllocator& allocator() { return *allocator_; }
  FileSystem& fs() { return *fs_; }
  CowManager& cow() { return *cow_; }
  Scheduler& sched() { return *sched_; }
  FirewallManager& firewall_manager() { return *fwm_; }
  FailureDetector& detector() { return *detector_; }
  PageoutDaemon& pageout() { return *pageout_; }
  SwapArea& swap() { return *swap_; }
  TraceBuffer& trace() { return trace_; }
  void Trace(TraceEvent event, uint64_t arg0 = 0, uint64_t arg1 = 0) {
    trace_.Record(machine().Now(), event, arg0, arg1);
  }

  WaxHints& wax_hints() { return wax_hints_; }
  VmStats& vm_stats() { return vm_stats_; }

  // Makes a kernel execution context on this cell's CPU `cpu_index` (index
  // into cpus(), not a global id).
  Ctx MakeCtx(int cpu_index = 0);

  // Charges the Hive multicellular bookkeeping tax on kernel entry (zero in
  // SMP baseline mode).
  void ChargeSyscallTax(Ctx& ctx);

  // Admission control (graceful degradation): true if a new request may fork
  // onto this cell, false if the ready queue or kernel heap has crossed its
  // HiveOptions watermark. A shed is traced (kAdmissionShed) and counted by
  // the SLO recorder; with watermarks unset (the default) always admits.
  bool AdmitRequest();

  std::string panic_reason() const { return panic_reason_; }

  // Number of user-visible pages (paged memory frames) this cell owns.
  uint64_t paged_frames() const { return paged_frames_; }

 private:
  void ClockTick();
  void RegisterMiscHandlers();

  HiveSystem* system_;
  CellId id_;
  int first_node_;
  int num_nodes_;
  std::vector<int> cpus_;
  PhysAddr mem_base_ = 0;
  uint64_t mem_size_ = 0;
  uint64_t paged_frames_ = 0;

  CellState state_ = CellState::kBooting;
  uint64_t incarnation_ = 0;
  bool in_recovery_ = false;
  Time user_suspended_until_ = 0;
  std::string panic_reason_;

  PhysAddr clock_word_addr_ = 0;
  flash::EventId clock_event_ = flash::kInvalidEventId;
  uint64_t clock_ticks_ = 0;

  RogueBehavior rogue_;
  uint64_t rogue_garbage_state_ = 0;
  PhysAddr chain_head_addr_ = 0;
  std::vector<PhysAddr> chain_node_addrs_;
  PhysAddr seq_block_addr_ = 0;

  std::unique_ptr<KernelHeap> heap_;
  std::unique_ptr<RpcLayer> rpc_;
  PfdatTable pfdat_table_;
  std::unique_ptr<PageAllocator> allocator_;
  std::unique_ptr<FileSystem> fs_;
  std::unique_ptr<CowManager> cow_;
  std::unique_ptr<Scheduler> sched_;
  std::unique_ptr<FirewallManager> fwm_;
  std::unique_ptr<FailureDetector> detector_;
  std::unique_ptr<PageoutDaemon> pageout_;
  std::unique_ptr<SwapArea> swap_;
  TraceBuffer trace_;
  WaxHints wax_hints_;
  VmStats vm_stats_;
};

}  // namespace hive

#endif  // HIVE_SRC_CORE_CELL_H_
