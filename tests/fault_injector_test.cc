#include "src/flash/fault_injector.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace flash {
namespace {

class FaultInjectorTest : public ::testing::Test {
 protected:
  FaultInjectorTest() : machine_(hivetest::SmallConfig(), 1), injector_(&machine_, 7) {}

  uint64_t ReadWord(PhysAddr addr) {
    uint64_t value = 0;
    machine_.mem().RawRead(addr, std::span<uint8_t>(reinterpret_cast<uint8_t*>(&value), 8));
    return value;
  }
  void WriteWord(PhysAddr addr, uint64_t value) {
    machine_.mem().RawWrite(addr,
                            std::span<const uint8_t>(reinterpret_cast<uint8_t*>(&value), 8));
  }

  Machine machine_;
  FaultInjector injector_;
};

TEST_F(FaultInjectorTest, ScheduledNodeFailureFiresAtTime) {
  injector_.ScheduleNodeFailure(2, 1000);
  EXPECT_FALSE(machine_.NodeDead(2));
  machine_.events().RunUntil(999);
  EXPECT_FALSE(machine_.NodeDead(2));
  machine_.events().RunUntil(1000);
  EXPECT_TRUE(machine_.NodeDead(2));
  EXPECT_TRUE(machine_.cpu(machine_.FirstCpuOfNode(2)).halted);
}

// The scheduled event must not reach back into the injector: callers (the
// examples among them) build injectors in a scope that ends long before the
// failure fires.
TEST(FaultInjectorLifetimeTest, ScheduledFailureOutlivesItsInjector) {
  Machine machine(hivetest::SmallConfig(), 1);
  {
    FaultInjector injector(&machine, 7);
    injector.ScheduleNodeFailure(1, 1000);
  }
  machine.events().RunUntil(2000);
  EXPECT_TRUE(machine.NodeDead(1));
}

TEST_F(FaultInjectorTest, OffByOneWordMode) {
  WriteWord(0x1000, 0x2000);
  const uint64_t corrupt = injector_.CorruptPointer(
      0x1000, PointerCorruptionMode::kOffByOneWord, 0, 1 << 20, 1 << 20, 1 << 20);
  EXPECT_EQ(corrupt, 0x2008u);
  EXPECT_EQ(ReadWord(0x1000), 0x2008u);
}

TEST_F(FaultInjectorTest, SelfPointingMode) {
  WriteWord(0x1000, 0xAAAA);
  const uint64_t corrupt = injector_.CorruptPointer(
      0x1000, PointerCorruptionMode::kSelfPointing, 0, 1 << 20, 1 << 20, 1 << 20);
  EXPECT_EQ(corrupt, 0x1000u);
}

TEST_F(FaultInjectorTest, RandomSameCellStaysInVictimRange) {
  for (int i = 0; i < 50; ++i) {
    const uint64_t corrupt = injector_.CorruptPointer(
        0x1000, PointerCorruptionMode::kRandomSameCell, 0x100000, 0x10000, 0x800000,
        0x10000);
    EXPECT_GE(corrupt, 0x100000u);
    EXPECT_LT(corrupt, 0x110000u);
    EXPECT_EQ(corrupt % 8, 0u);
  }
}

TEST_F(FaultInjectorTest, RandomOtherCellStaysInOtherRange) {
  for (int i = 0; i < 50; ++i) {
    const uint64_t corrupt = injector_.CorruptPointer(
        0x1000, PointerCorruptionMode::kRandomOtherCell, 0x100000, 0x10000, 0x800000,
        0x10000);
    EXPECT_GE(corrupt, 0x800000u);
    EXPECT_LT(corrupt, 0x810000u);
  }
}

TEST_F(FaultInjectorTest, CorruptBytesMutatesRange) {
  std::vector<uint8_t> zeros(1024, 0);
  machine_.mem().RawWrite(0x4000, std::span<const uint8_t>(zeros));
  injector_.CorruptBytes(0x4000, 1024);
  std::vector<uint8_t> after(1024);
  machine_.mem().RawRead(0x4000, std::span<uint8_t>(after));
  int changed = 0;
  for (uint8_t byte : after) {
    changed += byte != 0 ? 1 : 0;
  }
  EXPECT_GT(changed, 900);  // Random garbage, not zeros.
}

TEST_F(FaultInjectorTest, CorruptionBypassesFirewall) {
  // The injector models the victim's own bug: it writes regardless of the
  // firewall (a cell can always scribble its own memory).
  machine_.firewall().SetVector(1, 0, 0);  // Nobody may write page 1.
  injector_.CorruptBytes(4096, 64);        // Still succeeds.
  std::vector<uint8_t> after(64);
  machine_.mem().RawRead(4096, std::span<uint8_t>(after));
  int nonzero = 0;
  for (uint8_t byte : after) {
    nonzero += byte != 0 ? 1 : 0;
  }
  EXPECT_GT(nonzero, 0);
}

TEST_F(FaultInjectorTest, HaltCpuLeavesMemoryAccessible) {
  machine_.HaltCpu(1);
  EXPECT_TRUE(machine_.cpu(1).halted);
  // Memory of the node is still accessible (processor fault, not node fault).
  machine_.mem().WriteValue<uint64_t>(0, hivetest::SmallConfig().memory_per_node, 5);
}

// A panic's cutoff is not hardware death: NodeDead, which tells the two
// apart for reachability, agreement and the containment oracles, reads only
// FailNode, while the cutoff refuses remote accessors alone.
TEST(MachineTest, CutOffIsNotDeathAndRestoreClearsBoth) {
  Machine machine(hivetest::SmallConfig(), 1);
  PhysMem& mem = machine.mem();
  const PhysAddr node1 = hivetest::SmallConfig().memory_per_node;
  const int local_cpu = machine.FirstCpuOfNode(1);
  auto remote_read = [&] { (void)mem.ReadValue<uint64_t>(0, node1); };

  machine.CutOffNode(1);
  EXPECT_FALSE(machine.NodeDead(1));
  mem.WriteValue<uint64_t>(local_cpu, node1, 5);
  EXPECT_EQ(mem.ReadValue<uint64_t>(local_cpu, node1), 5u);
  const std::optional<BusError> cut = CaptureTrap(remote_read);
  ASSERT_TRUE(cut.has_value());
  EXPECT_EQ(cut->kind(), BusErrorKind::kMemoryCutoff);

  machine.FailNode(1);
  EXPECT_TRUE(machine.NodeDead(1));
  const std::optional<BusError> dead = CaptureTrap(remote_read);
  ASSERT_TRUE(dead.has_value());
  EXPECT_EQ(dead->kind(), BusErrorKind::kNodeFailed);

  machine.RestoreNode(1);
  EXPECT_FALSE(machine.NodeDead(1));
  EXPECT_FALSE(CaptureTrap(remote_read).has_value());
}

TEST_F(FaultInjectorTest, RestoreNodeRevivesCpus) {
  machine_.FailNode(1);
  EXPECT_TRUE(machine_.NodeDead(1));
  machine_.RestoreNode(1);
  EXPECT_FALSE(machine_.NodeDead(1));
  EXPECT_FALSE(machine_.cpu(machine_.FirstCpuOfNode(1)).halted);
  machine_.mem().WriteValue<uint64_t>(machine_.FirstCpuOfNode(1),
                                      hivetest::SmallConfig().memory_per_node, 7);
}

MessageFaultPlan AllRoutesPlan(Time start, Time end, uint32_t drop_pm, uint32_t dup_pm,
                               uint32_t delay_pm, uint32_t corrupt_pm) {
  MessageFaultPlan plan;
  plan.start = start;
  plan.end = end;
  plan.drop_pm = drop_pm;
  plan.dup_pm = dup_pm;
  plan.delay_pm = delay_pm;
  plan.corrupt_pm = corrupt_pm;
  return plan;
}

TEST(MessageFaultModelTest, DrawsNothingOutsideActiveWindows) {
  MessageFaultModel model(11);
  model.AddPlan(AllRoutesPlan(1000, 2000, 1000, 0, 0, 0));
  // Before and after the window: no decision and -- critically for no-fault
  // determinism -- no RNG draw. Both window edges are sampled.
  EXPECT_EQ(model.Sample(999, 0, 1).kind, MessageFaultKind::kNone);
  EXPECT_EQ(model.Sample(2000, 0, 1).kind, MessageFaultKind::kNone);
  EXPECT_EQ(model.stats().sampled, 0u);
  EXPECT_EQ(model.Sample(1000, 0, 1).kind, MessageFaultKind::kDrop);
  EXPECT_EQ(model.Sample(1999, 0, 1).kind, MessageFaultKind::kDrop);
  EXPECT_EQ(model.stats().sampled, 2u);
  EXPECT_EQ(model.stats().dropped, 2u);
}

TEST(MessageFaultModelTest, DirectedPlanMatchesOnlyItsRoute) {
  MessageFaultModel model(11);
  MessageFaultPlan plan = AllRoutesPlan(0, 1000, 1000, 0, 0, 0);
  plan.src_node = 2;
  plan.dst_node = 3;
  model.AddPlan(plan);
  EXPECT_EQ(model.Sample(10, 0, 1).kind, MessageFaultKind::kNone);
  EXPECT_EQ(model.Sample(10, 3, 2).kind, MessageFaultKind::kNone);  // Reverse route.
  EXPECT_EQ(model.stats().sampled, 0u);
  EXPECT_EQ(model.Sample(10, 2, 3).kind, MessageFaultKind::kDrop);
  EXPECT_EQ(model.stats().sampled, 1u);
}

TEST(MessageFaultModelTest, SameSeedSameDecisionSequence) {
  MessageFaultModel a(99);
  MessageFaultModel b(99);
  a.AddPlan(AllRoutesPlan(0, 1 << 30, 100, 150, 200, 50));
  b.AddPlan(AllRoutesPlan(0, 1 << 30, 100, 150, 200, 50));
  for (int i = 0; i < 500; ++i) {
    const MessageFaultDecision da = a.Sample(i, 0, 1);
    const MessageFaultDecision db = b.Sample(i, 0, 1);
    EXPECT_EQ(da.kind, db.kind) << i;
    EXPECT_EQ(da.delay_ns, db.delay_ns) << i;
    EXPECT_EQ(da.corrupt_byte, db.corrupt_byte) << i;
    EXPECT_EQ(da.corrupt_mask, db.corrupt_mask) << i;
  }
  EXPECT_EQ(a.stats().sampled, 500u);
  EXPECT_EQ(a.stats().dropped, b.stats().dropped);
  EXPECT_EQ(a.stats().duplicated, b.stats().duplicated);
  EXPECT_EQ(a.stats().delayed, b.stats().delayed);
  EXPECT_EQ(a.stats().corrupted, b.stats().corrupted);
  // With 50% total fault mass over 500 draws, every family fired.
  EXPECT_GT(a.stats().dropped, 0u);
  EXPECT_GT(a.stats().duplicated, 0u);
  EXPECT_GT(a.stats().delayed, 0u);
  EXPECT_GT(a.stats().corrupted, 0u);
}

}  // namespace
}  // namespace flash
