// Property-style parameterized sweeps over the fault containment invariants:
// whatever we inject, wherever we inject it, the invariant of paper section 2
// must hold -- only applications using the failed cell's resources fail, and
// no surviving kernel is damaged.

#include <gtest/gtest.h>

#include "src/core/cell.h"
#include "src/core/cow_tree.h"
#include "src/core/filesystem.h"
#include "src/core/kernel_heap.h"
#include "src/flash/fault_injector.h"
#include "src/workloads/ocean.h"
#include "src/workloads/pmake.h"
#include "src/workloads/workload.h"
#include "tests/test_util.h"

namespace hive {
namespace {

using hivetest::BootHive;
using hivetest::TestSystem;

workloads::PmakeParams TinyPmake(uint64_t seed) {
  workloads::PmakeParams params;
  params.jobs = 6;
  params.source_bytes = 8 * 1024;
  params.output_bytes = 16 * 1024;
  params.shared_text_pages = 20;
  params.private_file_pages = 40;
  params.anon_pages = 20;
  params.scratch_pages = 2;
  params.metadata_ops = 5;
  params.compute_per_job = 120 * kMillisecond;
  params.name_seed = seed;
  return params;
}

// Runs a tiny pmake with a node failure at `inject_ms`, and asserts the
// containment invariant.
void RunContainmentCase(CellId victim, Time inject_ms, uint64_t seed) {
  TestSystem ts = BootHive(4);
  workloads::PmakeWorkload pmake(ts.hive.get(), TinyPmake(seed));
  pmake.Setup();
  auto pids = pmake.Start();
  flash::FaultInjector injector(ts.machine.get(), seed);
  injector.ScheduleNodeFailure(victim, inject_ms * kMillisecond);
  (void)ts.hive->RunUntilDone(pids, 120 * kSecond);
  ts.machine->events().RunUntil(ts.machine->Now() + 300 * kMillisecond);

  // Invariant 1: exactly the victim died.
  for (CellId c = 0; c < 4; ++c) {
    EXPECT_EQ(ts.hive->cell(c).alive(), c != victim) << "cell " << c;
  }
  // Invariant 2: recovery ran exactly once.
  EXPECT_EQ(ts.hive->recovery().recoveries_run(), 1);
  // Invariant 3: no surviving kernel panicked.
  for (CellId c = 0; c < 4; ++c) {
    if (c != victim) {
      EXPECT_TRUE(ts.hive->cell(c).panic_reason().empty()) << ts.hive->cell(c).panic_reason();
    }
  }
  // Invariant 4: outputs of jobs that report success are uncorrupted (when
  // the file server survived to validate them).
  if (victim != 0) {
    EXPECT_EQ(pmake.ValidateOutputs(), 0);
  }
  // Invariant 5: survivors still do useful work.
  Cell& survivor = ts.hive->cell(victim == 0 ? 1 : 0);
  Ctx ctx = survivor.MakeCtx();
  EXPECT_TRUE(
      survivor.fs().Create(ctx, "/post-recovery", workloads::PatternData(1, 4096)).ok());
}

struct ContainmentParam {
  CellId victim;
  Time inject_ms;
};

class ContainmentSweep : public ::testing::TestWithParam<ContainmentParam> {};

TEST_P(ContainmentSweep, NodeFailureIsContained) {
  const uint64_t seed =
      hivetest::TestSeed(4000 + static_cast<uint64_t>(GetParam().victim) * 100 +
                         static_cast<uint64_t>(GetParam().inject_ms));
  SCOPED_TRACE(hivetest::SeedTrace(seed));
  RunContainmentCase(GetParam().victim, GetParam().inject_ms, seed);
}

INSTANTIATE_TEST_SUITE_P(
    VictimsAndTimes, ContainmentSweep,
    ::testing::Values(ContainmentParam{0, 5}, ContainmentParam{0, 80},
                      ContainmentParam{1, 5}, ContainmentParam{1, 40},
                      ContainmentParam{1, 200}, ContainmentParam{2, 15},
                      ContainmentParam{2, 150}, ContainmentParam{3, 10},
                      ContainmentParam{3, 99}, ContainmentParam{3, 350}),
    [](const auto& param_info) {
      return "cell" + std::to_string(param_info.param.victim) + "_t" +
             std::to_string(param_info.param.inject_ms) + "ms";
    });

// Corruption modes: each of the paper's pathological pointer corruptions in a
// process address map panics only the victim cell.
class CorruptionModeSweep
    : public ::testing::TestWithParam<flash::PointerCorruptionMode> {};

TEST_P(CorruptionModeSweep, AddressMapCorruptionContained) {
  TestSystem ts = BootHive(4);
  const CellId victim = 2;

  // A long-lived process on the victim cell that keeps faulting fresh pages:
  // every fault miss walks the address map, so the corruption is discovered.
  auto behavior = std::make_unique<workloads::ScriptedBehavior>("walker");
  behavior->Add(workloads::OpMapAnon(0x1000000, 4096, true));
  behavior->Add(workloads::OpMapAnon(0x2000000, 2048 * 4096, true));
  behavior->Add(workloads::OpFaultRange(0x2000000, 2048, /*write=*/true, /*per_step=*/4));
  Ctx fctx = ts.cell(victim).MakeCtx();
  auto pid = ts.hive->Fork(fctx, victim, std::move(behavior));
  ASSERT_TRUE(pid.ok());

  // An unrelated process on another cell that must survive.
  auto bystander_behavior = std::make_unique<workloads::ScriptedBehavior>("bystander");
  bystander_behavior->Add(workloads::OpCompute(2 * kSecond));
  Ctx bctx = ts.cell(1).MakeCtx();
  auto bystander = ts.hive->Fork(bctx, 1, std::move(bystander_behavior));
  ASSERT_TRUE(bystander.ok());

  auto injected = std::make_shared<bool>(false);
  ts.machine->events().ScheduleAt(30 * kMillisecond, [&ts, victim, pid, injected, this] {
    Cell& cell = ts.hive->cell(victim);
    Process* proc = cell.sched().FindProcess(*pid);
    ASSERT_NE(proc, nullptr);
    Ctx ctx = cell.MakeCtx();
    auto regions = proc->address_space().ListRegions(ctx);
    ASSERT_GE(regions.size(), 2u);
    flash::FaultInjector injector(ts.machine.get(), 77);
    injector.CorruptPointer(regions[0].entry_addr + AddrMapEntryLayout::kNext, GetParam(),
                            cell.mem_base(), cell.mem_size(), ts.hive->cell(0).mem_base(),
                            ts.hive->cell(0).mem_size());
    *injected = true;
  });

  (void)ts.hive->RunUntilDone({*bystander}, 120 * kSecond);
  ts.machine->events().RunUntil(ts.machine->Now() + 500 * kMillisecond);

  ASSERT_TRUE(*injected);
  EXPECT_FALSE(ts.hive->cell(victim).alive());
  for (CellId c = 0; c < 4; ++c) {
    if (c != victim) {
      EXPECT_TRUE(ts.hive->cell(c).alive()) << c;
    }
  }
  // The bystander was untouched.
  EXPECT_EQ(ts.cell(1).sched().FindProcess(*bystander)->state(), ProcState::kExited);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, CorruptionModeSweep,
    ::testing::Values(flash::PointerCorruptionMode::kRandomSameCell,
                      flash::PointerCorruptionMode::kRandomOtherCell,
                      flash::PointerCorruptionMode::kOffByOneWord,
                      flash::PointerCorruptionMode::kSelfPointing),
    [](const auto& param_info) {
      switch (param_info.param) {
        case flash::PointerCorruptionMode::kRandomSameCell:
          return std::string("RandomSameCell");
        case flash::PointerCorruptionMode::kRandomOtherCell:
          return std::string("RandomOtherCell");
        case flash::PointerCorruptionMode::kOffByOneWord:
          return std::string("OffByOneWord");
        case flash::PointerCorruptionMode::kSelfPointing:
          return std::string("SelfPointing");
      }
      return std::string("Unknown");
    });

// Detection latency is bounded by the monitoring period: latency <= stall +
// threshold * period + agreement, for every period.
class DetectionPeriodSweep : public ::testing::TestWithParam<int> {};

TEST_P(DetectionPeriodSweep, LatencyBoundedByPeriod) {
  const Time period = GetParam() * kMillisecond;
  auto machine = std::make_unique<flash::Machine>(hivetest::SmallConfig(), 123);
  HiveOptions options;
  options.num_cells = 4;
  options.start_wax = false;
  options.costs.clock_tick_period_ns = period;
  HiveSystem hive(machine.get(), options);
  hive.Boot();

  const Time inject = 37 * kMillisecond;
  flash::FaultInjector injector(machine.get(), 5);
  injector.ScheduleNodeFailure(2, inject);
  machine->events().RunUntil(inject + 4 * period + 100 * kMillisecond);

  ASSERT_EQ(hive.recovery().recoveries_run(), 1);
  const Time latency = hive.recovery().last_stats().detect_time - inject;
  EXPECT_GT(latency, 0);
  EXPECT_LE(latency, options.costs.failed_access_stall_ns + 2 * period + 10 * kMillisecond);
}

INSTANTIATE_TEST_SUITE_P(Periods, DetectionPeriodSweep, ::testing::Values(1, 2, 5, 10, 25),
                         [](const auto& param_info) {
                           return std::to_string(param_info.param) + "ms";
                         });

// Kernel heap: random alloc/free sequences keep payloads aligned, disjoint,
// tagged while live, and de-tagged when freed.
class HeapPropertySweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HeapPropertySweep, AllocationsDisjointAlignedTagged) {
  const uint64_t seed = hivetest::TestSeed(GetParam());
  SCOPED_TRACE(hivetest::SeedTrace(seed));
  flash::PhysMem mem(hivetest::SmallConfig());
  KernelHeap heap(&mem, 0, 0, 2 << 20);
  base::Rng rng(seed);

  struct Alloc {
    PhysAddr addr;
    uint64_t size;
  };
  std::vector<Alloc> live;
  for (int step = 0; step < 600; ++step) {
    if (live.empty() || rng.Below(3) != 0) {
      const uint64_t size = 1 + rng.Below(512);
      auto addr = heap.Alloc(kTagGeneric, size);
      ASSERT_TRUE(addr.ok());
      EXPECT_EQ(*addr % 8, 0u);
      const uint64_t rounded = (size + 7) & ~7ull;
      for (const Alloc& other : live) {
        const bool disjoint =
            *addr + rounded <= other.addr || other.addr + other.size <= *addr;
        ASSERT_TRUE(disjoint) << "overlap at step " << step;
      }
      live.push_back({*addr, rounded});
    } else {
      const size_t idx = rng.Below(live.size());
      EXPECT_EQ(heap.ReadTypeTag(0, live[idx].addr), static_cast<uint32_t>(kTagGeneric));
      heap.Free(live[idx].addr);
      EXPECT_EQ(heap.ReadTypeTag(0, live[idx].addr), static_cast<uint32_t>(kTagFree));
      live.erase(live.begin() + static_cast<int64_t>(idx));
    }
  }
  uint64_t live_bytes = 0;
  for (const Alloc& alloc : live) {
    live_bytes += alloc.size;
  }
  EXPECT_EQ(heap.bytes_in_use(), live_bytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeapPropertySweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// Firewall policies: the spanning application completes under every policy
// (the single-writer policy thrashes but the refault path keeps it alive).
class FirewallPolicySweep : public ::testing::TestWithParam<FirewallPolicy> {};

TEST_P(FirewallPolicySweep, OceanSurvivesPolicy) {
  auto machine = std::make_unique<flash::Machine>(hivetest::SmallConfig(), 321);
  HiveOptions options;
  options.num_cells = 4;
  options.firewall_policy = GetParam();
  HiveSystem hive(machine.get(), options);
  hive.Boot();

  workloads::OceanParams params;
  params.grid_pages = 96;
  params.timesteps = 5;
  params.compute_per_step = 5 * kMillisecond;
  params.touches_per_step = 8;
  params.halo_pages = 2;
  params.name_seed = 8800 + static_cast<uint64_t>(GetParam());
  workloads::OceanWorkload ocean(&hive, params);
  ocean.Setup();
  auto pids = ocean.Start();
  ASSERT_TRUE(hive.RunUntilDone(pids, 120 * kSecond));
  for (ProcId pid : pids) {
    const CellId c = hive.FindProcessCell(pid);
    EXPECT_EQ(hive.cell(c).sched().FindProcess(pid)->state(), ProcState::kExited);
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, FirewallPolicySweep,
                         ::testing::Values(FirewallPolicy::kBitVector,
                                           FirewallPolicy::kGlobalBit,
                                           FirewallPolicy::kSingleWriter),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case FirewallPolicy::kBitVector:
                               return std::string("BitVector");
                             case FirewallPolicy::kGlobalBit:
                               return std::string("GlobalBit");
                             case FirewallPolicy::kSingleWriter:
                               return std::string("SingleWriter");
                           }
                           return std::string("Unknown");
                         });

// Event-queue determinism: the same seed gives byte-identical outcomes.
class DeterminismSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeterminismSweep, IdenticalSeedsIdenticalRuns) {
  auto run = [&](uint64_t seed) {
    TestSystem ts = BootHive(4, 4, {}, seed);
    workloads::PmakeWorkload pmake(ts.hive.get(), TinyPmake(seed));
    pmake.Setup();
    auto pids = pmake.Start();
    EXPECT_TRUE(ts.hive->RunUntilDone(pids, 120 * kSecond));
    Time finish = 0;
    for (ProcId pid : pids) {
      const CellId c = ts.hive->FindProcessCell(pid);
      finish = std::max(finish, ts.hive->cell(c).sched().FindProcess(pid)->finished_at);
    }
    return finish;
  };
  const uint64_t seed = hivetest::TestSeed(GetParam());
  SCOPED_TRACE(hivetest::SeedTrace(seed));
  EXPECT_EQ(run(seed), run(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismSweep, ::testing::Values(10u, 20u, 30u));

}  // namespace
}  // namespace hive
