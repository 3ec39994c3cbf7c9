// Common identifier types for the Hive kernel.

#ifndef HIVE_SRC_CORE_TYPES_H_
#define HIVE_SRC_CORE_TYPES_H_

#include <cstdint>
#include <functional>

#include "src/flash/config.h"

namespace hive {

using flash::kMicrosecond;
using flash::kMillisecond;
using flash::kNanosecond;
using flash::kSecond;
using flash::PhysAddr;
using flash::Pfn;
using flash::Time;

using CellId = int32_t;
constexpr CellId kInvalidCell = -1;

using ProcId = int64_t;
constexpr ProcId kInvalidProc = -1;

using VnodeId = int64_t;
constexpr VnodeId kInvalidVnode = -1;

// File generation number, bumped when a dirty page of the file is lost to
// preemptive discard (paper section 4.2).
using Generation = uint32_t;

// A virtual address within a process address space.
using VirtAddr = uint64_t;

// The logical page id of paper section 5.1: a tag identifying the object the
// page belongs to (a file, or a node in a copy-on-write tree) plus the page
// offset within that object.
struct LogicalPageId {
  enum class Kind : uint8_t { kInvalid = 0, kFile = 1, kAnon = 2 };

  Kind kind = Kind::kInvalid;
  CellId data_home = kInvalidCell;  // Cell that owns the backing store.
  uint64_t object = 0;              // Vnode id or COW node id.
  uint64_t page_offset = 0;         // Page index within the object.

  bool valid() const { return kind != Kind::kInvalid; }

  friend bool operator==(const LogicalPageId& a, const LogicalPageId& b) {
    return a.kind == b.kind && a.data_home == b.data_home && a.object == b.object &&
           a.page_offset == b.page_offset;
  }
};

struct LogicalPageIdHash {
  size_t operator()(const LogicalPageId& id) const {
    uint64_t h = static_cast<uint64_t>(id.kind);
    h = h * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(id.data_home);
    h = h * 0x9E3779B97F4A7C15ull + id.object;
    h = h * 0x9E3779B97F4A7C15ull + id.page_offset;
    return static_cast<size_t>(h ^ (h >> 32));
  }
};

// Type tags written by the kernel memory allocator into every allocation
// header and removed by the deallocator; the careful reference protocol checks
// them as its first line of defense against invalid remote pointers (paper
// section 4.1, step 4).
enum KernelTypeTag : uint32_t {
  kTagFree = 0xDEADBEEF,
  kTagClockWord = 0x434C4B31,     // "CLK1"
  kTagCowNode = 0x434F5731,       // "COW1"
  kTagAddrMapEntry = 0x414D4531,  // "AME1"
  kTagRpcBuffer = 0x52504331,     // "RPC1"
  kTagGeneric = 0x47454E31,       // "GEN1"
  kTagChainNode = 0x43484E31,     // "CHN1" -- rogue-probe pointer chain node.
  kTagSeqBlock = 0x53514231,      // "SQB1" -- rogue-probe seqlock block.
};

// The tag check is sound only if no two tags are equal. This switch names
// every tag: a repeated value is a duplicate case label, and a tag added
// above without a case here fails the build (-Werror=switch).
static_assert([](KernelTypeTag tag) {
  switch (tag) {
    case kTagFree:
    case kTagClockWord:
    case kTagCowNode:
    case kTagAddrMapEntry:
    case kTagRpcBuffer:
    case kTagGeneric:
    case kTagChainNode:
    case kTagSeqBlock:
      return true;
  }
  return false;
}(kTagFree));

}  // namespace hive

#endif  // HIVE_SRC_CORE_TYPES_H_
