#include "src/flash/phys_mem.h"

#include <algorithm>

#include "src/base/log.h"

namespace flash {

namespace {

using Page = std::unique_ptr<uint8_t[]>;

// Host pages handed back by this thread's images, ready for the next first
// write; freed at thread exit. PhysMem's constructor touches the list, so it
// is built before, and destroyed after, every PhysMem of its thread.
std::vector<Page>& ThreadFreePages() {
  thread_local std::vector<Page> free_pages;
  return free_pages;
}

}  // namespace

PhysMem::PhysMem(const MachineConfig& config)
    : memory_per_node_(config.memory_per_node),
      page_size_(config.page_size),
      total_size_(config.total_memory()),
      cpus_per_node_(config.cpus_per_node),
      firewall_(config),
      pages_(total_size_ / kHostPage),
      node_failed_(config.num_nodes, false),
      node_cutoff_(config.num_nodes, false) {
  // RestoreNode hands back whole host pages.
  CHECK_EQ(memory_per_node_ % kHostPage, 0u);
  ThreadFreePages();
}

PhysMem::~PhysMem() {
  std::vector<Page>& free_pages = ThreadFreePages();
  for (uint64_t index : held_) {
    free_pages.push_back(std::move(pages_[index]));
  }
}

uint8_t* PhysMem::TakePage(uint64_t index, bool whole) {
  std::vector<Page>& free_pages = ThreadFreePages();
  Page& page = pages_[index];
  if (free_pages.empty()) {
    page = std::make_unique_for_overwrite<uint8_t[]>(kHostPage);
  } else {
    page = std::move(free_pages.back());
    free_pages.pop_back();
  }
  if (!whole) {
    std::memset(page.get(), 0, kHostPage);
  }
  held_.push_back(index);
  return page.get();
}

void PhysMem::CopyOutPages(PhysAddr addr, uint8_t* out, uint64_t len) const {
  while (len > 0) {
    const uint64_t chunk = std::min(len, kHostPage - addr % kHostPage);
    CopyOut(addr, out, chunk);
    addr += chunk;
    out += chunk;
    len -= chunk;
  }
}

void PhysMem::CopyInPages(PhysAddr addr, const uint8_t* in, uint64_t len) {
  while (len > 0) {
    const uint64_t chunk = std::min(len, kHostPage - addr % kHostPage);
    CopyIn(addr, in, chunk);
    addr += chunk;
    in += chunk;
    len -= chunk;
  }
}

void PhysMem::CheckAccessible(PhysAddr addr, uint64_t len, int accessor_node) const {
  if (!ValidRange(addr, len)) {
    throw BusError(BusErrorKind::kInvalidAddress, addr);
  }
  if (len == 0) {
    return;
  }
  const int first_node = NodeOfAddr(addr);
  const int last_node = NodeOfAddr(addr + len - 1);
  for (int node = first_node; node <= last_node; ++node) {
    if (node_failed_[node]) {
      throw BusError(BusErrorKind::kNodeFailed, addr);
    }
    if (node_cutoff_[node] && node != accessor_node) {
      throw BusError(BusErrorKind::kMemoryCutoff, addr);
    }
  }
}

void PhysMem::Read(int cpu, PhysAddr addr, std::span<uint8_t> out) const {
  CheckAccessible(addr, out.size(), cpu / cpus_per_node_);
  CopyOut(addr, out.data(), out.size());
}

void PhysMem::Write(int cpu, PhysAddr addr, std::span<const uint8_t> data) {
  CheckAccessible(addr, data.size(), cpu / cpus_per_node_);
  if (firewall_.checking_enabled() && !data.empty()) {
    const Pfn first = PfnOfAddr(addr);
    const Pfn last = PfnOfAddr(addr + data.size() - 1);
    for (Pfn pfn = first; pfn <= last; ++pfn) {
      if (!firewall_.MayWrite(pfn, cpu)) {
        throw BusError(BusErrorKind::kFirewall, AddrOfPfn(pfn));
      }
    }
  }
  CopyIn(addr, data.data(), data.size());
}

void PhysMem::DmaWrite(int node, PhysAddr addr, std::span<const uint8_t> data) {
  // DMA writes are checked as if they were writes from the processor on that
  // node (paper section 4.2).
  Write(node * cpus_per_node_, addr, data);
}

void PhysMem::DmaRead(int node, PhysAddr addr, std::span<uint8_t> out) const {
  Read(node * cpus_per_node_, addr, out);
}

void PhysMem::RestoreNode(int node) {
  node_failed_[node] = false;
  node_cutoff_[node] = false;
  // Diagnostics + reboot leave the node's memory zeroed: its pages go back to
  // the free list, and their slots read as zeros again.
  const uint64_t first = static_cast<uint64_t>(node) * memory_per_node_ / kHostPage;
  const uint64_t end = first + memory_per_node_ / kHostPage;
  std::vector<Page>& free_pages = ThreadFreePages();
  size_t kept = 0;
  for (uint64_t index : held_) {
    if (index >= first && index < end) {
      free_pages.push_back(std::move(pages_[index]));
    } else {
      held_[kept++] = index;
    }
  }
  held_.resize(kept);
}

void PhysMem::RawWrite(PhysAddr addr, std::span<const uint8_t> data) {
  CHECK(ValidRange(addr, data.size()));
  CopyIn(addr, data.data(), data.size());
}

void PhysMem::RawRead(PhysAddr addr, std::span<uint8_t> out) const {
  CHECK(ValidRange(addr, out.size()));
  CopyOut(addr, out.data(), out.size());
}

}  // namespace flash
