#include "src/flash/phys_mem.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "src/flash/bus_error.h"
#include "tests/test_util.h"

namespace flash {
namespace {

MachineConfig Config() { return hivetest::SmallConfig(); }

TEST(PhysMemTest, ReadWriteRoundTrip) {
  PhysMem mem(Config());
  mem.WriteValue<uint64_t>(0, 0x1000, 0xDEADBEEFCAFEBABEull);
  EXPECT_EQ(mem.ReadValue<uint64_t>(0, 0x1000), 0xDEADBEEFCAFEBABEull);
}

TEST(PhysMemTest, MisalignedTypedAccessTraps) {
  PhysMem mem(Config());
  EXPECT_THROW(mem.ReadValue<uint64_t>(0, 0x1001), BusError);
  EXPECT_THROW(mem.WriteValue<uint32_t>(0, 0x1002, 7), BusError);
}

TEST(PhysMemTest, NonPowerOfTwoAccessSizeTraps) {
  PhysMem mem(Config());
  // The bus only performs naturally aligned power-of-two transfers: a
  // 3- or 12-byte "value" must trap even at an address it happens to divide.
  struct ThreeBytes {
    uint8_t b[3];
  };
  struct TwelveBytes {
    uint32_t w[3];
  };
  EXPECT_THROW(mem.ReadValue<ThreeBytes>(0, 0x3000), BusError);
  EXPECT_THROW(mem.WriteValue<TwelveBytes>(0, 0x3000, TwelveBytes{}), BusError);
  try {
    mem.ReadValue<ThreeBytes>(0, 0x3000);
    FAIL();
  } catch (const BusError& e) {
    EXPECT_EQ(e.kind(), BusErrorKind::kMisaligned);
  }
  // Power-of-two sizes at aligned addresses still work.
  mem.WriteValue<uint32_t>(0, 0x3000, 7);
  EXPECT_EQ(mem.ReadValue<uint32_t>(0, 0x3000), 7u);
}

TEST(PhysMemTest, OutOfRangeAccessTraps) {
  PhysMem mem(Config());
  const PhysAddr end = Config().total_memory();
  EXPECT_THROW(mem.ReadValue<uint64_t>(0, end), BusError);
  try {
    mem.ReadValue<uint64_t>(0, end);
    FAIL();
  } catch (const BusError& e) {
    EXPECT_EQ(e.kind(), BusErrorKind::kInvalidAddress);
  }
}

TEST(PhysMemTest, FailedNodeMemoryIsInaccessible) {
  PhysMem mem(Config());
  const PhysAddr node1 = Config().memory_per_node;
  mem.WriteValue<uint64_t>(1, node1, 42);
  mem.FailNode(1);
  EXPECT_THROW(mem.ReadValue<uint64_t>(0, node1), BusError);
  EXPECT_THROW(mem.WriteValue<uint64_t>(0, node1, 1), BusError);
  // The memory fault model: unaffected ranges keep working.
  mem.WriteValue<uint64_t>(0, 0x2000, 7);
  EXPECT_EQ(mem.ReadValue<uint64_t>(0, 0x2000), 7u);
}

TEST(PhysMemTest, CutoffBlocksRemoteButNotLocalAccess) {
  PhysMem mem(Config());
  const PhysAddr node1 = Config().memory_per_node;
  mem.CutOffNode(1);
  // CPU 1 is local to node 1: still works (the panicking kernel itself).
  mem.WriteValue<uint64_t>(1, node1, 42);
  EXPECT_EQ(mem.ReadValue<uint64_t>(1, node1), 42u);
  // CPU 0 is remote: cut off.
  EXPECT_THROW(mem.ReadValue<uint64_t>(0, node1), BusError);
}

TEST(PhysMemTest, RestoreNodeZeroesMemory) {
  PhysMem mem(Config());
  const PhysAddr node1 = Config().memory_per_node;
  mem.WriteValue<uint64_t>(1, node1, 42);
  mem.FailNode(1);
  mem.RestoreNode(1);
  EXPECT_EQ(mem.ReadValue<uint64_t>(0, node1), 0u);
}

// Bytes [addr, addr + len) read through CPU 0.
std::vector<uint8_t> ReadBytes(const PhysMem& mem, PhysAddr addr, size_t len) {
  std::vector<uint8_t> out(len);
  mem.Read(0, addr, std::span<uint8_t>(out));
  return out;
}

void WriteBytes(PhysMem& mem, PhysAddr addr, const std::vector<uint8_t>& data) {
  mem.Write(0, addr, std::span<const uint8_t>(data));
}

// The index of the first byte where `got` and `want` differ, or -1.
ptrdiff_t FirstDiff(const std::vector<uint8_t>& got, const std::vector<uint8_t>& want) {
  if (got.size() != want.size()) {
    return 0;
  }
  const auto diff = std::mismatch(got.begin(), got.end(), want.begin());
  return diff.first == got.end() ? -1 : diff.first - got.begin();
}

TEST(PhysMemTest, RecycledPagesReadAsZeros) {
  // Host pages are reused through a per-thread free list. A page handed back
  // dirty (by a destroyed image or a restored node) must read as zeros in
  // its next image, even where that image writes only part of it.
  constexpr uint64_t kPage = 4096;
  const uint64_t node1 = Config().memory_per_node;
  {
    PhysMem first(Config());
    for (uint64_t page = 0; page < 8; ++page) {
      WriteBytes(first, page * kPage, std::vector<uint8_t>(kPage, 0xA5));  // Whole pages.
      WriteBytes(first, (16 + page) * kPage + 100, std::vector<uint8_t>(40, 0x5A));
      WriteBytes(first, node1 + page * kPage + 8, std::vector<uint8_t>(kPage - 16, 0x3C));
    }
    // Restoring node 1 hands its pages back; writing there again takes some
    // back, and destroying the image hands every page back exactly once.
    first.RestoreNode(1);
    WriteBytes(first, node1 + kPage, std::vector<uint8_t>(8, 0x77));
  }

  PhysMem second(Config());
  // Each page gets 8 bytes of its own, so two slots sharing one host page
  // would show up as a wrong read.
  std::vector<uint8_t> want(Config().memory_per_node, 0);
  for (uint64_t page = 0; page < 32; ++page) {
    const std::vector<uint8_t> own(8, static_cast<uint8_t>(page + 1));
    WriteBytes(second, page * kPage + 2000, own);
    std::copy(own.begin(), own.end(), want.begin() + static_cast<ptrdiff_t>(page * kPage + 2000));
  }
  for (int node = 0; node < Config().num_nodes; ++node) {
    EXPECT_EQ(FirstDiff(ReadBytes(second, node * node1, want.size()), want), -1)
        << "node " << node;
    std::fill(want.begin(), want.end(), 0);
  }
}

TEST(PhysMemTest, AccessSpansWrittenAndUnwrittenPages) {
  constexpr uint64_t kPage = 4096;
  PhysMem mem(Config());
  // Page 2 is written (its last 8 bytes), page 3 never is: a read across the
  // boundary returns the written bytes, then zeros.
  WriteBytes(mem, 3 * kPage - 8, std::vector<uint8_t>(8, 0xEE));
  std::vector<uint8_t> want(8, 0xEE);
  want.resize(16, 0);
  EXPECT_EQ(ReadBytes(mem, 3 * kPage - 8, 16), want);

  // A write that starts on unwritten page 5 and ends on written page 6 keeps
  // page 6's other bytes and leaves the rest of page 5 zero.
  WriteBytes(mem, 6 * kPage, std::vector<uint8_t>(32, 0x11));
  WriteBytes(mem, 6 * kPage - 12, std::vector<uint8_t>(24, 0x22));
  std::vector<uint8_t> expect(2 * kPage, 0);
  std::fill_n(expect.begin() + kPage, 32, 0x11);
  std::fill_n(expect.begin() + kPage - 12, 24, 0x22);
  EXPECT_EQ(ReadBytes(mem, 5 * kPage, 2 * kPage), expect);
}

TEST(PhysMemTest, FirewallBlocksUnauthorizedWrite) {
  PhysMem mem(Config());
  // Page 0 of node 1, writable only by CPU 1.
  const PhysAddr addr = Config().memory_per_node;
  const Pfn pfn = mem.PfnOfAddr(addr);
  mem.firewall().SetVector(pfn, 1ull << 1, /*requesting_cpu=*/1);

  mem.WriteValue<uint64_t>(1, addr, 1);  // Local CPU: allowed.
  EXPECT_THROW(mem.WriteValue<uint64_t>(0, addr, 2), BusError);
  try {
    mem.WriteValue<uint64_t>(0, addr, 2);
    FAIL();
  } catch (const BusError& e) {
    EXPECT_EQ(e.kind(), BusErrorKind::kFirewall);
  }
  // The wild write was blocked: the original value survives.
  EXPECT_EQ(mem.ReadValue<uint64_t>(1, addr), 1u);
}

TEST(PhysMemTest, FirewallDoesNotBlockReads) {
  PhysMem mem(Config());
  const PhysAddr addr = Config().memory_per_node;
  mem.firewall().SetVector(mem.PfnOfAddr(addr), 1ull << 1, 1);
  mem.WriteValue<uint64_t>(1, addr, 99);
  EXPECT_EQ(mem.ReadValue<uint64_t>(0, addr), 99u);  // Remote read is fine.
}

TEST(PhysMemTest, FirewallCheckDisabledAllowsAll) {
  PhysMem mem(Config());
  const PhysAddr addr = Config().memory_per_node;
  mem.firewall().SetVector(mem.PfnOfAddr(addr), 1ull << 1, 1);
  mem.firewall().set_checking_enabled(false);
  mem.WriteValue<uint64_t>(0, addr, 2);  // SMP baseline: no defense.
  EXPECT_EQ(mem.ReadValue<uint64_t>(0, addr), 2u);
}

TEST(PhysMemTest, MultiPageWriteChecksEveryPage) {
  PhysMem mem(Config());
  const PhysAddr addr = Config().memory_per_node + Config().page_size - 8;
  const Pfn second = mem.PfnOfAddr(addr) + 1;
  mem.firewall().SetVector(second, 1ull << 1, 1);  // Deny CPU 0 on page 2.
  std::vector<uint8_t> data(16, 0xAB);
  EXPECT_THROW(mem.Write(0, addr, std::span<const uint8_t>(data)), BusError);
}

TEST(PhysMemTest, DmaWriteCheckedAsNodeProcessor) {
  PhysMem mem(Config());
  const PhysAddr addr = Config().memory_per_node;  // Node 1's memory.
  mem.firewall().SetVector(mem.PfnOfAddr(addr), 1ull << 1, 1);
  std::vector<uint8_t> data(8, 0x55);
  // DMA from node 1's device: allowed (checked as CPU 1).
  mem.DmaWrite(1, addr, std::span<const uint8_t>(data));
  // DMA from node 0's device: firewall trap.
  EXPECT_THROW(mem.DmaWrite(0, addr, std::span<const uint8_t>(data)), BusError);
}

TEST(CaptureTrapTest, RunsFnAndReturnsNulloptWhenNothingTraps) {
  PhysMem mem(Config());
  bool ran = false;
  const std::optional<BusError> trap = CaptureTrap([&] {
    mem.WriteValue<uint64_t>(0, 0x1000, 5);
    ran = true;
  });
  EXPECT_FALSE(trap.has_value());
  EXPECT_TRUE(ran);
  EXPECT_EQ(mem.ReadValue<uint64_t>(0, 0x1000), 5u);
}

TEST(CaptureTrapTest, ReturnsKindAndAddressOfAFailedNodeRead) {
  PhysMem mem(Config());
  const PhysAddr addr = Config().memory_per_node + 0x40;
  mem.FailNode(1);
  const std::optional<BusError> trap =
      CaptureTrap([&] { (void)mem.ReadValue<uint64_t>(0, addr); });
  ASSERT_TRUE(trap.has_value());
  EXPECT_EQ(trap->kind(), BusErrorKind::kNodeFailed);
  EXPECT_EQ(trap->addr(), addr);
}

TEST(CaptureTrapTest, ReturnsKindAndAddressOfAFirewallDeniedWrite) {
  PhysMem mem(Config());
  const PhysAddr addr = Config().memory_per_node;
  mem.firewall().SetVector(mem.PfnOfAddr(addr), 1ull << 1, /*requesting_cpu=*/1);
  mem.WriteValue<uint64_t>(1, addr, 1);
  const std::optional<BusError> trap = CaptureTrap([&] { mem.WriteValue<uint64_t>(0, addr, 2); });
  ASSERT_TRUE(trap.has_value());
  EXPECT_EQ(trap->kind(), BusErrorKind::kFirewall);
  EXPECT_EQ(trap->addr(), addr);
  EXPECT_EQ(mem.ReadValue<uint64_t>(1, addr), 1u);
}

TEST(CaptureTrapTest, LetsOtherExceptionsPropagate) {
  EXPECT_THROW((void)CaptureTrap([] { throw std::runtime_error("not a trap"); }),
               std::runtime_error);
}

TEST(FirewallTest, OnlyLocalCpuMayChangeBits) {
  PhysMem mem(Config());
  // Changing node 1's firewall from CPU 0 is a kernel bug -> CHECK death.
  EXPECT_DEATH(mem.firewall().SetVector(mem.PfnOfAddr(Config().memory_per_node), 0, 0),
               "only local processors");
}

TEST(FirewallTest, GrantRevokeCpus) {
  PhysMem mem(Config());
  Firewall& fw = mem.firewall();
  const Pfn pfn = 3;
  fw.SetVector(pfn, 1ull << 0, 0);
  EXPECT_TRUE(fw.MayWrite(pfn, 0));
  EXPECT_FALSE(fw.MayWrite(pfn, 2));
  fw.GrantCpus(pfn, 1ull << 2, 0);
  EXPECT_TRUE(fw.MayWrite(pfn, 2));
  fw.RevokeCpus(pfn, 1ull << 2, 0);
  EXPECT_FALSE(fw.MayWrite(pfn, 2));
}

}  // namespace
}  // namespace flash
