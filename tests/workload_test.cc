#include "src/workloads/workload.h"

#include <gtest/gtest.h>

#include "src/workloads/ocean.h"
#include "src/workloads/pmake.h"
#include "src/workloads/raytrace.h"
#include "tests/test_util.h"

namespace workloads {
namespace {

TEST(PatternDataTest, Deterministic) {
  EXPECT_EQ(PatternData(42, 1000), PatternData(42, 1000));
}

TEST(PatternDataTest, SeedsProduceDifferentStreams) {
  EXPECT_NE(PatternData(1, 256), PatternData(2, 256));
}

TEST(PatternDataTest, PrefixStable) {
  // Byte i depends only on (seed, i): a longer stream extends a shorter one,
  // which the offset-write verification relies on.
  const auto short_data = PatternData(7, 100);
  const auto long_data = PatternData(7, 1000);
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(short_data[i], long_data[i]) << i;
  }
}

uint64_t XorShift(uint64_t x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

// The stream's definition, one byte at a time: the generator steps once per
// 8-byte block and byte i is byte (i % 8) of the state, low byte first.
std::vector<uint8_t> SerialPattern(uint64_t seed, size_t size) {
  uint64_t x = seed * 0x9E3779B97F4A7C15ull + 1;
  std::vector<uint8_t> out;
  for (size_t i = 0; i < size; ++i) {
    if (i % 8 == 0) {
      x = XorShift(x);
    }
    out.push_back(static_cast<uint8_t>(x >> ((i % 8) * 8)));
  }
  return out;
}

constexpr uint64_t kPatternSeeds[] = {0, 1, 42, 0x9E3779B97F4A7C15ull, ~0ull};

TEST(PatternAtTest, MatchesSerialDefinition) {
  // Past 2^13 blocks the seek uses jump-table entries beyond 13.
  constexpr uint64_t kFar = (1ull << 17) + 3;
  const uint64_t offsets[] = {0, 1, 3, 7, 8, 9, 4095, 4096, 4097, 65531, kFar};
  // From 4 lanes of 64 blocks (kMinLaneBlocks in workload.cc) a range is
  // stepped as four lanes: one block either side of that cutoff, block
  // counts that leave 1-3 blocks past the lanes, and long ranges with a tail.
  constexpr size_t kLaneCutoff = 4 * 64 * 8;
  const size_t lengths[] = {0,
                            1,
                            7,
                            8,
                            4099,
                            kLaneCutoff - 8,
                            kLaneCutoff,
                            kLaneCutoff + 8,
                            kLaneCutoff + 16 + 5,
                            kLaneCutoff + 24,
                            32 * 1024 + 3,
                            160 * 1024 + 5};
  for (uint64_t seed : kPatternSeeds) {
    const std::vector<uint8_t> serial = SerialPattern(seed, kFar + 160 * 1024 + 5);
    for (uint64_t offset : offsets) {
      for (size_t len : lengths) {
        const std::vector<uint8_t> expect(serial.begin() + static_cast<ptrdiff_t>(offset),
                                          serial.begin() + static_cast<ptrdiff_t>(offset + len));
        EXPECT_EQ(PatternAt(seed, offset, len), expect)
            << "seed=" << seed << " offset=" << offset << " len=" << len;
      }
    }
  }
}

TEST(PatternAtTest, PatternDataIsTheStreamPrefix) {
  for (uint64_t seed : kPatternSeeds) {
    for (size_t n : {0, 1, 7, 8, 9, 4099}) {
      EXPECT_EQ(PatternData(seed, n), PatternAt(seed, 0, n)) << "seed=" << seed << " n=" << n;
      EXPECT_EQ(PatternData(seed, n), SerialPattern(seed, n)) << "seed=" << seed << " n=" << n;
    }
  }
}

// The little-endian word of stream `seed` at byte `offset`.
uint64_t WordAt(uint64_t seed, uint64_t offset) {
  const std::vector<uint8_t> bytes = PatternAt(seed, offset, 8);
  uint64_t word = 0;
  for (int k = 7; k >= 0; --k) {
    word = word << 8 | bytes[static_cast<size_t>(k)];
  }
  return word;
}

// The seed whose stream starts from generator state `state`: the seed map
// x = seed * golden + 1 is a bijection because the golden ratio is odd.
uint64_t SeedFor(uint64_t state) {
  constexpr uint64_t kGolden = 0x9E3779B97F4A7C15ull;
  uint64_t inverse = kGolden;  // Each Newton step doubles the correct low bits.
  for (int i = 0; i < 5; ++i) {
    inverse *= 2 - kGolden * inverse;
  }
  return (state - 1) * inverse;
}

TEST(PatternAtTest, FarBlocksFollowTheGenerator) {
  for (uint64_t seed : kPatternSeeds) {
    // Block 2^k - 1 is 2^k steps from the seed state, and so 2^(k-1) steps
    // on from block 2^(k-1) - 1. Restarting a stream at that midpoint must
    // land on the same state: with MatchesSerialDefinition as the base case,
    // this checks seeking at every offset scale.
    for (int k = 1; k <= 61; ++k) {
      const uint64_t half = (1ull << (k - 1)) - 1;
      EXPECT_EQ(WordAt(SeedFor(WordAt(seed, half * 8)), half * 8),
                WordAt(seed, ((1ull << k) - 1) * 8))
          << "seed=" << seed << " k=" << k;
    }
    // Far away, consecutive blocks are one generator step apart, and a read
    // split at any byte matches the whole.
    for (uint64_t block : {(1ull << 20) + 7, (1ull << 40) - 1, 1ull << 60}) {
      EXPECT_EQ(WordAt(seed, block * 8 + 8), XorShift(WordAt(seed, block * 8)))
          << "seed=" << seed << " block=" << block;
      std::vector<uint8_t> joined = PatternAt(seed, block * 8 + 3, 5);
      const std::vector<uint8_t> rest = PatternAt(seed, block * 8 + 8, 11);
      joined.insert(joined.end(), rest.begin(), rest.end());
      EXPECT_EQ(joined, PatternAt(seed, block * 8 + 3, 16)) << "seed=" << seed;
    }
  }
}

class ScriptedBehaviorTest : public ::testing::Test {
 protected:
  ScriptedBehaviorTest() : ts_(hivetest::BootHive(1, 4, NoWax())) {}
  static hive::HiveOptions NoWax() {
    hive::HiveOptions options;
    options.start_wax = false;
    return options;
  }
  hivetest::TestSystem ts_;
};

TEST_F(ScriptedBehaviorTest, OpsRunInOrder) {
  std::vector<int> order;
  auto behavior = std::make_unique<ScriptedBehavior>("ordered");
  for (int i = 0; i < 5; ++i) {
    behavior->Add([&order, i](Ctx& ctx, Process&) {
      ctx.Charge(1000);
      order.push_back(i);
      return StepOutcome::kContinue;
    });
  }
  hive::Ctx ctx = ts_.cell(0).MakeCtx();
  auto pid = ts_.hive->Fork(ctx, 0, std::move(behavior));
  ASSERT_TRUE(ts_.hive->RunUntilDone({*pid}, 10 * hive::kSecond));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST_F(ScriptedBehaviorTest, MultiStepOpRepeats) {
  auto behavior = std::make_unique<ScriptedBehavior>("compute");
  behavior->Add(OpCompute(42 * hive::kMillisecond, 5 * hive::kMillisecond));
  hive::Ctx ctx = ts_.cell(0).MakeCtx();
  auto pid = ts_.hive->Fork(ctx, 0, std::move(behavior));
  ASSERT_TRUE(ts_.hive->RunUntilDone({*pid}, 10 * hive::kSecond));
  hive::Process* proc = ts_.cell(0).sched().FindProcess(*pid);
  EXPECT_GE(proc->finished_at, 42 * hive::kMillisecond);
}

TEST_F(ScriptedBehaviorTest, FailedOpAbortsProcess) {
  auto behavior = std::make_unique<ScriptedBehavior>("fail");
  auto fd = std::make_shared<int>(-1);
  behavior->Add(OpOpen("/does/not/exist", fd));
  behavior->Add([](Ctx&, Process&) {
    ADD_FAILURE() << "op after a failed op must not run";
    return StepOutcome::kContinue;
  });
  hive::Ctx ctx = ts_.cell(0).MakeCtx();
  auto pid = ts_.hive->Fork(ctx, 0, std::move(behavior));
  ASSERT_TRUE(ts_.hive->RunUntilDone({*pid}, 10 * hive::kSecond));
  hive::Process* proc = ts_.cell(0).sched().FindProcess(*pid);
  EXPECT_EQ(proc->state(), hive::ProcState::kKilled);
  EXPECT_NE(proc->exit_reason.find("open failed"), std::string::npos);
}

TEST_F(ScriptedBehaviorTest, FileRoundTripThroughOps) {
  hive::Ctx sctx = ts_.cell(0).MakeCtx();
  ASSERT_TRUE(ts_.cell(0).fs().Create(sctx, "/wt", {}).ok());
  auto behavior = std::make_unique<ScriptedBehavior>("rw");
  auto fd = std::make_shared<int>(-1);
  behavior->Add(OpOpen("/wt", fd));
  behavior->Add(OpWrite(fd, 0, 8192, /*seed=*/55));
  behavior->Add(OpRead(fd, 0, 8192, /*verify_seed=*/55));
  behavior->Add(OpClose(fd));
  hive::Ctx ctx = ts_.cell(0).MakeCtx();
  auto pid = ts_.hive->Fork(ctx, 0, std::move(behavior));
  ASSERT_TRUE(ts_.hive->RunUntilDone({*pid}, 10 * hive::kSecond));
  EXPECT_EQ(ts_.cell(0).sched().FindProcess(*pid)->state(), hive::ProcState::kExited);
}

TEST_F(ScriptedBehaviorTest, ReadVerificationCatchesWrongSeed) {
  hive::Ctx sctx = ts_.cell(0).MakeCtx();
  ASSERT_TRUE(ts_.cell(0).fs().Create(sctx, "/wv", PatternData(1, 4096)).ok());
  auto behavior = std::make_unique<ScriptedBehavior>("verify");
  auto fd = std::make_shared<int>(-1);
  behavior->Add(OpOpen("/wv", fd));
  behavior->Add(OpRead(fd, 0, 4096, /*verify_seed=*/2));  // Wrong seed.
  hive::Ctx ctx = ts_.cell(0).MakeCtx();
  auto pid = ts_.hive->Fork(ctx, 0, std::move(behavior));
  ASSERT_TRUE(ts_.hive->RunUntilDone({*pid}, 10 * hive::kSecond));
  hive::Process* proc = ts_.cell(0).sched().FindProcess(*pid);
  EXPECT_EQ(proc->state(), hive::ProcState::kKilled);
  EXPECT_EQ(proc->exit_reason, "read data corrupt");
}

// Property sweep: every workload completes and validates on every cell-count
// configuration the paper evaluates.
class WorkloadSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(WorkloadSweepTest, PmakeCompletesAndValidates) {
  const int cells = GetParam();
  auto ts = hivetest::BootHive(cells);
  PmakeParams params;
  params.jobs = 6;
  params.source_bytes = 8 * 1024;
  params.output_bytes = 16 * 1024;
  params.shared_text_pages = 20;
  params.private_file_pages = 40;
  params.anon_pages = 20;
  params.scratch_pages = 2;
  params.metadata_ops = 5;
  params.compute_per_job = 80 * hive::kMillisecond;
  params.name_seed = 7000 + static_cast<uint64_t>(cells);
  PmakeWorkload pmake(ts.hive.get(), params);
  pmake.Setup();
  auto pids = pmake.Start();
  ASSERT_TRUE(ts.hive->RunUntilDone(pids, 120 * hive::kSecond));
  EXPECT_EQ(pmake.CompletedJobs(), params.jobs);
  EXPECT_EQ(pmake.ValidateOutputs(), 0);
}

TEST_P(WorkloadSweepTest, OceanCompletes) {
  const int cells = GetParam();
  auto ts = hivetest::BootHive(cells);
  OceanParams params;
  params.grid_pages = 128;
  params.timesteps = 6;
  params.compute_per_step = 8 * hive::kMillisecond;
  params.touches_per_step = 8;
  params.name_seed = 7100 + static_cast<uint64_t>(cells);
  OceanWorkload ocean(ts.hive.get(), params);
  ocean.Setup();
  auto pids = ocean.Start();
  ASSERT_TRUE(ts.hive->RunUntilDone(pids, 120 * hive::kSecond));
  for (hive::ProcId pid : pids) {
    const hive::CellId c = ts.hive->FindProcessCell(pid);
    EXPECT_EQ(ts.hive->cell(c).sched().FindProcess(pid)->state(),
              hive::ProcState::kExited);
  }
}

TEST_P(WorkloadSweepTest, RaytraceCompletesAndValidates) {
  const int cells = GetParam();
  auto ts = hivetest::BootHive(cells);
  RaytraceParams params;
  params.scene_pages = 32;
  params.blocks_per_worker = 2;
  params.compute_per_block = 15 * hive::kMillisecond;
  params.result_bytes = 8 * 1024;
  params.name_seed = 7200 + static_cast<uint64_t>(cells);
  RaytraceWorkload ray(ts.hive.get(), params);
  auto pids = ray.Start();
  ASSERT_TRUE(ts.hive->RunUntilDone(pids, 120 * hive::kSecond));
  EXPECT_EQ(ray.ValidateOutputs(), 0);
}

INSTANTIATE_TEST_SUITE_P(CellCounts, WorkloadSweepTest, ::testing::Values(1, 2, 4),
                         [](const auto& param_info) {
                           return std::to_string(param_info.param) + "cells";
                         });

}  // namespace
}  // namespace workloads
