// The careful reference protocol (paper section 4.1). One cell reads
// another's internal data structures directly when RPCs are too slow, an
// up-to-date view is required, or the data is published to many cells.
// The reading cell follows five steps:
//
//   1. careful_on: capture the current context and record which remote cell
//      the kernel intends to access; bus errors while reading that cell's
//      memory unwind here instead of panicking the reader.
//   2. Before using any remote address: check alignment for the expected
//      structure and that it addresses the memory range of the expected cell.
//   3. Copy all data values to local memory before sanity checks, to defend
//      against values changing mid-operation.
//   4. Check each remote structure's type identifier, written by the memory
//      allocator and removed by the deallocator.
//   5. careful_off: future bus errors once again panic the reader.
//
// In this model the careful section is a scoped object: constructing a
// CarefulRef is careful_on, destruction is careful_off, and every access in
// between runs under flash::CaptureTrap, which turns the simulated BusError
// into a Status.

#ifndef HIVE_SRC_CORE_CAREFUL_REF_H_
#define HIVE_SRC_CORE_CAREFUL_REF_H_

#include <functional>
#include <span>
#include <vector>

#include "src/base/sim_profile.h"
#include "src/base/status.h"
#include "src/core/context.h"
#include "src/core/costs.h"
#include "src/core/kernel_heap.h"
#include "src/core/types.h"
#include "src/flash/bus_error.h"
#include "src/flash/phys_mem.h"

namespace hive {

// Layout of a remote singly linked chain node walked by ChaseChain. Published
// as a tagged kernel-heap allocation; `next` is the physical address of the
// next node's payload, 0 terminates.
struct RemoteChainNode {
  uint64_t value = 0;
  PhysAddr next = 0;
};

// Layout of a remote seqlock-published block read by ReadSeqlocked. The
// writer increments `seq` to odd before updating the payload words and to
// even after; a reader that observes an odd or changed `seq` retries.
struct RemoteSeqBlock {
  uint64_t seq = 0;
  uint64_t word0 = 0;
  uint64_t word1 = 0;
};

// Result of a bounded chain walk: copied-out node values, hop count.
struct ChainWalk {
  std::vector<uint64_t> values;
  int hops = 0;
};

// Consistent two-word snapshot extracted from a RemoteSeqBlock.
struct SeqSnapshot {
  uint64_t word0 = 0;
  uint64_t word1 = 0;
  int retries = 0;
};

class CarefulRef {
 public:
  // Begins a careful section on behalf of ctx->cpu, intending to access the
  // remote cell whose memory spans [range_base, range_base + range_size).
  CarefulRef(Ctx* ctx, flash::PhysMem* mem, const KernelCosts& costs, CellId target_cell,
             PhysAddr range_base, uint64_t range_size);
  ~CarefulRef();

  CarefulRef(const CarefulRef&) = delete;
  CarefulRef& operator=(const CarefulRef&) = delete;

  // Step 2: validity check without an access.
  base::Status CheckAddr(PhysAddr addr, uint64_t size, uint64_t alignment) const;

  // Steps 2+3: checked, copied-out read of a trivially copyable value.
  template <typename T>
  base::Result<T> Read(PhysAddr addr) {
    static_assert(std::is_trivially_copyable_v<T>);
    RETURN_IF_ERROR_RESULT(CheckAddr(addr, sizeof(T), alignof(T)));
    ChargeAccessAt(addr, sizeof(T));
    T value{};
    RETURN_IF_ERROR_RESULT(Access([&] { value = mem_->ReadValue<T>(ctx_->cpu, addr); }));
    return value;
  }

  // Steps 2-4: reads a kernel-heap allocation of the expected type tag.
  // `payload` must point at the allocation payload; the header directly below
  // it is validated (magic + tag) before the payload is copied out.
  template <typename T>
  base::Result<T> ReadTagged(PhysAddr payload, uint32_t expected_tag) {
    RETURN_IF_ERROR_RESULT(CheckTag(payload, expected_tag));
    return Read<T>(payload);
  }

  // Step 4 alone: validates the allocation header below `payload`.
  base::Status CheckTag(PhysAddr payload, uint32_t expected_tag);

  base::Status ReadBytes(PhysAddr addr, std::span<uint8_t> out);

  // Bounded pointer chase over a remote chain of RemoteChainNode allocations
  // tagged `expected_tag`. Every hop revalidates address range, alignment and
  // type tag; visiting a payload address twice fails with kBadRemoteData
  // (cycle), and exceeding `max_hops` fails with kResourceExhausted rather
  // than looping — a rogue peer can corrupt its own structures but cannot
  // make the reader hang. `detect_cycles` exists only so the campaign's
  // no_hop_bound fixture can demonstrate the no-survivor-hang oracle firing.
  base::Result<ChainWalk> ChaseChain(PhysAddr head, uint32_t expected_tag, int max_hops,
                                     bool detect_cycles = true);

  // Seqlock-style generation-retry read of a RemoteSeqBlock tagged
  // `expected_tag`: the payload words are only returned when the sequence
  // word is even and unchanged across the copy-out. Retries a torn snapshot
  // up to `max_retries` times, then fails with kBadRemoteData (the structure
  // is persistently torn — a writer died or went rogue mid-update).
  base::Result<SeqSnapshot> ReadSeqlocked(PhysAddr block, uint32_t expected_tag,
                                          int max_retries);

  // Hop count of the most recent ChaseChain, including the failed attempt
  // paths; lets callers account bounded work for the no-survivor-hang oracle.
  int last_chain_hops() const { return last_chain_hops_; }

  // Test seam: the simulator is synchronous, so a torn write can never
  // complete "concurrently" with a retry loop. Tests install a hook that runs
  // between seqlock attempts (argument = retries so far) to finish the write.
  void set_retry_hook_for_test(std::function<void(int)> hook) {
    retry_hook_ = std::move(hook);
  }

  bool bus_error_seen() const { return bus_error_seen_; }

 private:
  // Charges the per-access protocol cost plus a remote miss for every line
  // of [addr, addr+bytes) not already fetched in this careful section.
  void ChargeAccessAt(PhysAddr addr, uint64_t bytes);

  // Runs one access to the remote cell's memory, which may vanish at any
  // instant: a trap is a legal outcome that stalls and becomes a Status.
  template <typename Fn>
  base::Status Access(Fn&& fn) {
    if (flash::CaptureTrap(fn)) {
      bus_error_seen_ = true;
      ctx_->Charge(costs_.failed_access_stall_ns);
      return base::BusErrorStatus();
    }
    return base::OkStatus();
  }

  // Attribute the whole careful section (bench schema v2): constructed
  // first, so the scope spans careful_on through careful_off.
  base::SimProfileScope profile_scope_{base::SimSubsystem::kCarefulRpc};
  Ctx* ctx_;
  flash::PhysMem* mem_;
  const KernelCosts& costs_;
  CellId target_cell_;
  PhysAddr range_base_;
  uint64_t range_size_;
  bool bus_error_seen_ = false;
  int last_chain_hops_ = 0;
  std::function<void(int)> retry_hook_;
  // Last 128-byte line touched: repeated accesses to the same line (e.g. an
  // allocation tag followed by the adjacent payload) cost no extra miss.
  uint64_t last_line_ = ~0ull;
};

}  // namespace hive

#endif  // HIVE_SRC_CORE_CAREFUL_REF_H_
