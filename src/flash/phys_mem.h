// The machine's physical memory with the FLASH memory fault model (paper
// section 2):
//  - Accesses to unaffected memory keep working after a fault.
//  - Accesses to failed memory raise a bus error instead of stalling forever.
//  - Only nodes authorized by the firewall can damage a given line.
//
// Every simulated store goes through Write() where the firewall check runs, so
// wild writes are actually blocked (or actually corrupt bytes when permitted).

#ifndef HIVE_SRC_FLASH_PHYS_MEM_H_
#define HIVE_SRC_FLASH_PHYS_MEM_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "src/flash/bus_error.h"
#include "src/flash/config.h"
#include "src/flash/firewall.h"

namespace flash {

// The bytes live in 4 KB host pages, one table slot per page. A campaign
// builds one Machine (16 MB of simulated memory per node) per scenario and
// writes about a megabyte of it, so a page is taken only on its first write,
// from a free list kept per host thread; an unwritten page reads as zeros.
// Destroying the image, or zeroing a node in RestoreNode, hands its pages back
// to that list, so a scenario costs the pages it wrote, not the memory it
// configured, and the host kernel sees no per-scenario map, fault or unmap.
class PhysMem {
 public:
  explicit PhysMem(const MachineConfig& config);
  ~PhysMem();

  PhysMem(const PhysMem&) = delete;
  PhysMem& operator=(const PhysMem&) = delete;

  // --- Normal processor access paths (firewall- and fault-checked). ---

  // Reads `out.size()` bytes at addr on behalf of `cpu`. Throws BusError if
  // the range is invalid or any page is on failed/cut-off memory.
  void Read(int cpu, PhysAddr addr, std::span<uint8_t> out) const;

  // Writes bytes at addr on behalf of `cpu`. Additionally throws BusError if
  // the firewall denies `cpu` write permission on any touched page.
  void Write(int cpu, PhysAddr addr, std::span<const uint8_t> data);

  // Typed helpers; alignment is enforced (misaligned -> BusError, like the
  // MIPS address error exception).
  template <typename T>
  T ReadValue(int cpu, PhysAddr addr) const {
    CheckAlignment(addr, sizeof(T));
    T value;
    Read(cpu, addr, std::span<uint8_t>(reinterpret_cast<uint8_t*>(&value), sizeof(T)));
    return value;
  }

  template <typename T>
  void WriteValue(int cpu, PhysAddr addr, const T& value) {
    CheckAlignment(addr, sizeof(T));
    Write(cpu, addr,
          std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(&value), sizeof(T)));
  }

  // DMA from a device on `node`: checked as if it were a write from the first
  // processor of that node (paper section 4.2).
  void DmaWrite(int node, PhysAddr addr, std::span<const uint8_t> data);
  void DmaRead(int node, PhysAddr addr, std::span<uint8_t> out) const;

  // --- Fault model control. ---

  // Hardware fault: the node's memory range becomes inaccessible.
  void FailNode(int node) { node_failed_[node] = true; }
  bool node_failed(int node) const { return node_failed_[node]; }

  // Memory cutoff (paper table 8.1): the cell panic routine cuts off all
  // remote access to node-local memory so corrupt data cannot spread. Local
  // CPUs of the node can still access it.
  void CutOffNode(int node) { node_cutoff_[node] = true; }

  // Clears failure/cutoff state after diagnostics + reboot (reintegration).
  void RestoreNode(int node);

  // --- Backdoor used only by the fault injector and test assertions. ---
  // Models a software bug inside the owning cell scribbling its own memory:
  // bypasses the firewall and the fault flags.
  void RawWrite(PhysAddr addr, std::span<const uint8_t> data);
  void RawRead(PhysAddr addr, std::span<uint8_t> out) const;

  // --- Geometry. ---
  int NodeOfAddr(PhysAddr addr) const { return static_cast<int>(addr / memory_per_node_); }
  Pfn PfnOfAddr(PhysAddr addr) const { return addr / page_size_; }
  PhysAddr AddrOfPfn(Pfn pfn) const { return pfn * page_size_; }
  bool ValidRange(PhysAddr addr, uint64_t len) const {
    return len <= total_size_ && addr <= total_size_ - len;
  }
  uint64_t page_size() const { return page_size_; }

  Firewall& firewall() { return firewall_; }
  const Firewall& firewall() const { return firewall_; }

 private:
  void CheckAlignment(PhysAddr addr, size_t size) const {
    // The bus only performs naturally aligned power-of-two-sized accesses; a
    // zero or non-power-of-two size can never be a valid transfer (and would
    // make the modulus check below meaningless or divide by zero).
    if (size == 0 || (size & (size - 1)) != 0 || (addr & (size - 1)) != 0) {
      throw BusError(BusErrorKind::kMisaligned, addr);
    }
  }
  // Throws if any byte of [addr, addr+len) is unreachable for `accessor_node`.
  void CheckAccessible(PhysAddr addr, uint64_t len, int accessor_node) const;

  // --- The page store. ---
  static constexpr uint64_t kHostPage = 4096;

  // Copies between the store and a caller's buffer; [addr, addr+len) is a
  // valid range. An access inside one host page takes the inline path.
  void CopyOut(PhysAddr addr, uint8_t* out, uint64_t len) const {
    const uint64_t offset = addr % kHostPage;
    if (len == 0 || offset + len > kHostPage) {
      CopyOutPages(addr, out, len);
      return;
    }
    const uint8_t* page = pages_[addr / kHostPage].get();
    if (page != nullptr) {
      std::memcpy(out, page + offset, len);
    } else {
      std::memset(out, 0, len);
    }
  }
  void CopyIn(PhysAddr addr, const uint8_t* in, uint64_t len) {
    const uint64_t offset = addr % kHostPage;
    if (len == 0 || offset + len > kHostPage) {
      CopyInPages(addr, in, len);
      return;
    }
    uint8_t* page = pages_[addr / kHostPage].get();
    if (page == nullptr) {
      page = TakePage(addr / kHostPage, /*whole=*/len == kHostPage);
    }
    std::memcpy(page + offset, in, len);
  }
  // The loops for accesses that cross a host page boundary.
  void CopyOutPages(PhysAddr addr, uint8_t* out, uint64_t len) const;
  void CopyInPages(PhysAddr addr, const uint8_t* in, uint64_t len);
  // Fills slot `index` from the thread's free list; zeroes the page unless
  // the write that takes it covers it `whole`.
  uint8_t* TakePage(uint64_t index, bool whole);

  uint64_t memory_per_node_;
  uint64_t page_size_;
  uint64_t total_size_;
  int cpus_per_node_;
  Firewall firewall_;
  // One slot per host page of the flat address space (node ranges are
  // contiguous); null until the page's first write. Handing a page back
  // moves it out, which nulls its slot.
  std::vector<std::unique_ptr<uint8_t[]>> pages_;
  // The slots that hold a page, so handing them back walks only these.
  std::vector<uint64_t> held_;
  std::vector<bool> node_failed_;
  std::vector<bool> node_cutoff_;
};

}  // namespace flash

#endif  // HIVE_SRC_FLASH_PHYS_MEM_H_
