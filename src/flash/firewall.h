// The FLASH firewall (paper section 4.2): a 64-bit write-permission vector per
// 4 KB page of memory, stored and checked by the coherence controller of the
// node that owns the page. Bit i grants write permission to processor i (on
// machines larger than 64 processors each bit covers a group; this model
// supports up to 64 CPUs, which covers the paper's configurations).
//
// Hardware properties modelled here:
//  - Only processors local to a node may change the firewall bits of that
//    node's memory (enforced with a CHECK: violating it is a kernel bug, not
//    a runtime fault).
//  - A write to a page whose bit is not set fails with a bus error; the check
//    is performed on the store path in PhysMem.
//  - Checking costs latency on cache-line ownership requests; changing bits
//    costs uncached writes (and revocation a writeback sync). Costs are
//    charged by the callers through CacheModel/Machine.

#ifndef HIVE_SRC_FLASH_FIREWALL_H_
#define HIVE_SRC_FLASH_FIREWALL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/flash/config.h"

namespace flash {

class Firewall {
 public:
  explicit Firewall(const MachineConfig& config);

  // All-ones at power-on: a freshly booted machine behaves like a normal
  // multiprocessor until a kernel configures protection.
  static constexpr uint64_t kAllowAll = ~0ull;

  uint64_t GetVector(Pfn pfn) const { return vectors_[pfn]; }
  // Every page's vector, indexed by pfn.
  std::span<const uint64_t> vectors() const { return vectors_; }

  // Replaces the permission vector for a page. `requesting_cpu` must be local
  // to the node owning the page (hardware restriction, section 4.2).
  void SetVector(Pfn pfn, uint64_t mask, int requesting_cpu);
  // SetVector over pages [first, first + count), which must lie on one node:
  // one locality check and one fill.
  void SetRange(Pfn first, uint64_t count, uint64_t mask, int requesting_cpu);

  void GrantCpus(Pfn pfn, uint64_t mask, int requesting_cpu);
  void RevokeCpus(Pfn pfn, uint64_t mask, int requesting_cpu);

  bool MayWrite(Pfn pfn, int cpu) const {
    return (vectors_[pfn] & (1ull << cpu)) != 0;
  }

  // True if checking is enabled at all. Disabling models the paper's
  // check-disabled runs used to measure the firewall's latency cost and the
  // SMP-OS baseline.
  bool checking_enabled() const { return checking_enabled_; }
  void set_checking_enabled(bool enabled) { checking_enabled_ = enabled; }

  int NodeOfPfn(Pfn pfn) const { return static_cast<int>(pfn / pages_per_node_); }
  int NodeOfCpu(int cpu) const { return cpu / cpus_per_node_; }

 private:
  uint64_t pages_per_node_;
  int cpus_per_node_;
  bool checking_enabled_ = true;
  std::vector<uint64_t> vectors_;
};

}  // namespace flash

#endif  // HIVE_SRC_FLASH_FIREWALL_H_
