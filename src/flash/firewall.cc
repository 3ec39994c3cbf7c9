#include "src/flash/firewall.h"

#include <algorithm>
#include <cstddef>

#include "src/base/log.h"

namespace flash {

Firewall::Firewall(const MachineConfig& config)
    : pages_per_node_(config.pages_per_node()),
      cpus_per_node_(config.cpus_per_node),
      vectors_(config.total_pages(), kAllowAll) {
  CHECK_LE(config.num_cpus(), 64) << "firewall bit vector covers at most 64 CPUs";
}

void Firewall::SetVector(Pfn pfn, uint64_t mask, int requesting_cpu) {
  CHECK_LT(pfn, vectors_.size());
  CHECK_EQ(NodeOfPfn(pfn), NodeOfCpu(requesting_cpu))
      << "only local processors may change a node's firewall bits";
  vectors_[pfn] = mask;
}

void Firewall::SetRange(Pfn first, uint64_t count, uint64_t mask, int requesting_cpu) {
  if (count == 0) {
    return;
  }
  const Pfn last = first + count - 1;
  CHECK_LT(last, vectors_.size());
  CHECK_EQ(NodeOfPfn(first), NodeOfPfn(last)) << "firewall range spans nodes";
  CHECK_EQ(NodeOfPfn(first), NodeOfCpu(requesting_cpu))
      << "only local processors may change a node's firewall bits";
  std::fill_n(vectors_.begin() + static_cast<std::ptrdiff_t>(first), count, mask);
}

void Firewall::GrantCpus(Pfn pfn, uint64_t mask, int requesting_cpu) {
  SetVector(pfn, vectors_[pfn] | mask, requesting_cpu);
}

void Firewall::RevokeCpus(Pfn pfn, uint64_t mask, int requesting_cpu) {
  SetVector(pfn, vectors_[pfn] & ~mask, requesting_cpu);
}

}  // namespace flash
