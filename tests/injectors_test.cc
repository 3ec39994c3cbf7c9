// Contract tests for the fault-injection library shared by the campaign, the
// serve soak and the Table 7.4 bench: what each injector does to the machine
// and when it reports a landing, checked directly rather than through the
// fingerprints of whole runs.

#include "src/campaign/injectors.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/cell.h"
#include "src/core/filesystem.h"
#include "src/core/process.h"
#include "src/flash/firewall.h"
#include "src/workloads/workload.h"
#include "tests/test_util.h"

namespace campaign {
namespace {

using hive::Cell;
using hive::Ctx;
using hive::kMillisecond;
using hive::kSecond;

// A page of `cell`'s file cache that no other cell may write.
hive::PhysAddr CachedFilePage(Cell& cell, const std::string& path) {
  Ctx ctx = cell.MakeCtx();
  EXPECT_TRUE(cell.fs().Create(ctx, path, std::vector<uint8_t>(8192, 0x5A)).ok());
  const std::optional<hive::PhysAddr> frame = CachedFrame(cell, path, 0);
  EXPECT_TRUE(frame.has_value());
  return frame.value_or(0);
}

std::vector<uint8_t> ReadBytes(hivetest::TestSystem& ts, hive::PhysAddr addr, size_t n) {
  std::vector<uint8_t> bytes(n);
  ts.machine->mem().RawRead(addr, std::span<uint8_t>(bytes));
  return bytes;
}

TEST(WildWriteTest, FirewallDeniesTheStoreAndPanicsOnlyTheWriter) {
  hivetest::TestSystem ts = hivetest::BootHive(4, 4);
  const hive::PhysAddr frame = CachedFilePage(ts.cell(1), "/injectors/target");
  const std::vector<uint8_t> garbage(64, 0xEE);

  EXPECT_FALSE(WildWrite(*ts.hive, /*writer=*/0, /*target=*/1, frame + 128, garbage));

  EXPECT_FALSE(ts.cell(0).alive());
  EXPECT_EQ(ts.cell(0).panic_reason(), "wild write into cell 1 denied by firewall");
  for (hive::CellId c = 1; c < 4; ++c) {
    EXPECT_TRUE(ts.cell(c).alive()) << "cell " << c;
    EXPECT_EQ(ts.cell(c).panic_reason(), "") << "cell " << c;
  }
  EXPECT_EQ(ReadBytes(ts, frame + 128, garbage.size()), std::vector<uint8_t>(64, 0x5A));
}

TEST(WildWriteTest, WithCheckingOffTheBytesLand) {
  hivetest::TestSystem ts = hivetest::BootHive(4, 4);
  const hive::PhysAddr frame = CachedFilePage(ts.cell(1), "/injectors/target");
  ts.machine->firewall().set_checking_enabled(false);
  const std::vector<uint8_t> garbage(64, 0xEE);

  EXPECT_TRUE(WildWrite(*ts.hive, /*writer=*/0, /*target=*/1, frame + 128, garbage));

  EXPECT_EQ(ReadBytes(ts, frame + 128, garbage.size()), garbage);
  for (hive::CellId c = 0; c < 4; ++c) {
    EXPECT_TRUE(ts.cell(c).alive()) << "cell " << c;
  }
}

// Drives CorruptPointerWhenFound against cell 1, which runs one long-lived
// process, and records every attempt (the times the locator ran) and every
// landing.
class CorruptPointerTest : public ::testing::Test {
 protected:
  static constexpr hive::CellId kVictim = 1;

  CorruptPointerTest() : ts_(hivetest::BootHive(4, 4)) {
    auto sleeper = std::make_unique<workloads::ScriptedBehavior>("sleeper");
    sleeper->Add(workloads::OpCompute(10 * kSecond));
    Ctx ctx = ts_.cell(kVictim).MakeCtx();
    EXPECT_TRUE(ts_.hive->Fork(ctx, kVictim, std::move(sleeper)).ok());
    start_ = ts_.machine->Now();
  }

  // Starts the attempt chain; `match` makes the locator find a target (the
  // word at the victim's memory base + 4096) instead of none.
  void Start(Time give_up, bool match) {
    CorruptPointerWhenFound(
        *ts_.hive, kVictim, /*injector_seed=*/7, flash::PointerCorruptionMode::kOffByOneWord,
        give_up,
        [this, match](Cell& cell, hive::Process&) -> std::optional<hive::PhysAddr> {
          attempts_.push_back(ts_.machine->Now() - start_);
          if (!match) {
            return std::nullopt;
          }
          return cell.mem_base() + 4096;
        },
        [this] { ++landed_; });
  }

  std::vector<Time> Offsets(int count) const {
    std::vector<Time> offsets;
    for (int i = 0; i < count; ++i) {
      offsets.push_back(static_cast<Time>(i) * 10 * kMillisecond);
    }
    return offsets;
  }

  hivetest::TestSystem ts_;
  Time start_ = 0;
  std::vector<Time> attempts_;
  int landed_ = 0;
};

TEST_F(CorruptPointerTest, NoTargetRetriesEvery10MsUntilGiveUp) {
  Start(start_ + 100 * kMillisecond, /*match=*/false);
  ts_.machine->events().RunUntil(start_ + 1 * kSecond);
  // The first attempt runs at once; each one before give-up schedules the
  // next, so the last runs at the give-up time itself.
  EXPECT_EQ(attempts_, Offsets(11));
  EXPECT_EQ(landed_, 0);
}

TEST_F(CorruptPointerTest, DeadVictimEndsTheChainAtOnce) {
  FailCellNode(*ts_.hive, kVictim);
  Start(start_ + 100 * kMillisecond, /*match=*/false);
  ts_.machine->events().RunUntil(start_ + 1 * kSecond);
  EXPECT_TRUE(attempts_.empty());
  EXPECT_EQ(landed_, 0);
}

TEST_F(CorruptPointerTest, VictimDyingBetweenAttemptsEndsTheChain) {
  Start(start_ + 100 * kMillisecond, /*match=*/false);
  ts_.machine->events().ScheduleAt(start_ + 25 * kMillisecond,
                                   [this] { FailCellNode(*ts_.hive, kVictim); });
  ts_.machine->events().RunUntil(start_ + 1 * kSecond);
  EXPECT_EQ(attempts_, Offsets(3));
  EXPECT_EQ(landed_, 0);
}

TEST_F(CorruptPointerTest, MatchCorruptsThePointerAndLandsOnce) {
  const hive::PhysAddr target = ts_.cell(kVictim).mem_base() + 4096;
  const uint64_t pointer = 0x1000;
  ts_.machine->mem().RawWrite(
      target, std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(&pointer), 8));

  Start(start_ + 100 * kMillisecond, /*match=*/true);
  ts_.machine->events().RunUntil(start_ + 1 * kSecond);

  EXPECT_EQ(attempts_, Offsets(1));
  EXPECT_EQ(landed_, 1);
  uint64_t corrupt = 0;
  ts_.machine->mem().RawRead(target,
                             std::span<uint8_t>(reinterpret_cast<uint8_t*>(&corrupt), 8));
  EXPECT_EQ(corrupt, pointer + 8);
}

}  // namespace
}  // namespace campaign
