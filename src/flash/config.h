// Machine geometry and latency parameters for the simulated FLASH
// multiprocessor. Defaults reproduce the machine model of paper section 7.2:
// an SGI Challenge-class machine with four 200-MHz MIPS R4000 processors, one
// per node, 32 MB of memory per node, and a 700 ns main-memory access latency.

#ifndef HIVE_SRC_FLASH_CONFIG_H_
#define HIVE_SRC_FLASH_CONFIG_H_

#include <cstdint>

namespace flash {

// Simulated time in nanoseconds.
using Time = int64_t;

constexpr Time kNanosecond = 1;
constexpr Time kMicrosecond = 1000;
constexpr Time kMillisecond = 1000 * 1000;
constexpr Time kSecond = 1000 * 1000 * 1000;

// Latency parameters (paper section 7.2 unless noted).
struct LatencyParams {
  // 200 MHz processor: 5 ns per instruction when not stalled.
  Time cycle_ns = 5;

  // Secondary cache miss: fixed at the FLASH average miss latency.
  Time memory_miss_ns = 700;

  // Interprocessor interrupt delivery.
  Time ipi_ns = 700;

  // SIPS message: IPI latency plus this much when the receiver accesses the
  // 128-byte payload.
  Time sips_payload_ns = 300;

  // Firewall permission check performed by the coherence controller on a
  // cache-line ownership request. The paper measures the resulting increase in
  // average remote write miss latency at 6.3% (pmake) / 4.4% (ocean); with a
  // 700 ns base miss this corresponds to ~44 ns, plus contention effects.
  Time firewall_check_ns = 44;

  // Cost for the local processor to change a firewall bit vector (uncached
  // writes to the coherence controller).
  Time firewall_grant_ns = 300;

  // Revoking write permission additionally requires making sure all pending
  // valid writebacks from remote nodes have been delivered (paper 4.2 / 7.2;
  // the paper's model omits this extra latency, we charge a small sync cost).
  Time firewall_revoke_ns = 1000;
};

struct MachineConfig {
  int num_nodes = 4;
  int cpus_per_node = 1;
  uint64_t memory_per_node = 32ull * 1024 * 1024;
  uint64_t page_size = 4096;

  LatencyParams latency;

  int num_cpus() const { return num_nodes * cpus_per_node; }
  uint64_t pages_per_node() const { return memory_per_node / page_size; }
  uint64_t total_memory() const { return memory_per_node * num_nodes; }
  uint64_t total_pages() const { return total_memory() / page_size; }
};

// Physical address and page frame number in the global address space.
// Node i owns addresses [i * memory_per_node, (i+1) * memory_per_node).
using PhysAddr = uint64_t;
using Pfn = uint64_t;

constexpr PhysAddr kInvalidPhysAddr = ~0ull;

}  // namespace flash

#endif  // HIVE_SRC_FLASH_CONFIG_H_
