// Tests for the hive_serve soak engine: SLO accounting, fault-plan coverage,
// graceful degradation, a golden fingerprint, and the seeded sensitivity
// bugs that prove the SLO oracles can trip.

#include "src/serve/serve.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>

#include "src/campaign/scenario.h"
#include "src/core/types.h"

namespace serve {
namespace {

ServeOptions SmokeOptions(hive::Time duration_ns = 60 * hive::kSecond) {
  ServeOptions options;
  options.smoke = true;
  options.duration_ns = duration_ns;
  return options;
}

TEST(ServeTest, SoakMeetsSlosUnderFullFaultRotation) {
  const ServeResult result = RunSoak(SmokeOptions());
  EXPECT_TRUE(result.ok()) << (result.violations.empty()
                                   ? std::string("no violations")
                                   : result.violations.front());
  EXPECT_GT(result.submitted, 1000u);
  EXPECT_GT(result.completed, 1000u);
  EXPECT_EQ(result.hung, 0u);
  EXPECT_GT(result.latency.count(), 0u);
  EXPECT_EQ(result.latency.count(), result.completed);
  // The soak ran under continuous fault pressure, not a quiet machine.
  EXPECT_GT(result.episodes.size(), 10u);
  EXPECT_GT(result.episodes_landed, 10u);
  EXPECT_GT(result.requests_per_fault, 1.0);
}

TEST(ServeTest, FaultPlanCoversEveryFamily) {
  const ServeResult result = RunSoak(SmokeOptions());
  ASSERT_EQ(result.per_family.size(), std::size(campaign::kAllFaultKinds));
  for (size_t i = 0; i < result.per_family.size(); ++i) {
    EXPECT_GE(result.per_family[i], 1u)
        << "family never landed: "
        << campaign::FaultKindName(campaign::kAllFaultKinds[i]);
  }
}

TEST(ServeTest, RecoveryEpisodesAndAvailabilityAccounted) {
  const ServeResult result = RunSoak(SmokeOptions());
  // Node failures and reboot storms force real recoveries; each one must
  // leave a per-episode duration, and the victims' downtime must dent (but
  // not demolish) their availability windows.
  EXPECT_GT(result.recoveries_run, 0);
  EXPECT_GT(result.reintegrations, 0);
  ASSERT_FALSE(result.recovery_durations.empty());
  for (hive::Time d : result.recovery_durations) {
    EXPECT_GT(d, 0);
  }
  ASSERT_EQ(result.cells.size(), 4u);
  double total_down = 0;
  for (const ServeCellSummary& cell : result.cells) {
    EXPECT_LE(cell.availability, 1.0);
    EXPECT_GE(cell.availability, result.options.availability_floor);
    total_down += static_cast<double>(cell.down_ns + cell.suspended_ns);
  }
  EXPECT_GT(total_down, 0.0);
  EXPECT_LT(result.availability_min, 1.0);
  // Human-readable report carries all three tables.
  EXPECT_NE(result.report.find("Hive system state"), std::string::npos);
  EXPECT_NE(result.report.find("Recovery episodes"), std::string::npos);
  EXPECT_NE(result.report.find("Service SLO summary"), std::string::npos);
}

// Pins the soak's observable outcome: any change to event ordering, the
// request mix or the fault rotation moves this fingerprint.
TEST(ServeTest, GoldenFingerprintIsStable) {
  EXPECT_EQ(RunSoak(SmokeOptions(20 * hive::kSecond)).fingerprint,
            0x1c26e0fbdd16d891ull);
}

TEST(ServeTest, DifferentSeedsDiverge) {
  ServeOptions one = SmokeOptions(20 * hive::kSecond);
  ServeOptions two = SmokeOptions(20 * hive::kSecond);
  two.seed = 2;
  EXPECT_NE(RunSoak(one).fingerprint, RunSoak(two).fingerprint);
}

// The soak raises the tenant count to the cell count so every cell homes a
// tenant; the result (and so the CLI header and BENCH_serve.json) must report
// the count that ran, not the one asked for.
TEST(ServeTest, ResultReportsTheTenantCountThatRan) {
  ServeOptions options = SmokeOptions(2 * hive::kSecond);
  options.tenants = 1;
  EXPECT_EQ(RunSoak(options).options.tenants, 4);
  options.tenants = 5;
  EXPECT_EQ(RunSoak(options).options.tenants, 5);
}

TEST(ServeTest, TinyWatermarkShedsInsteadOfQueueing) {
  ServeOptions options = SmokeOptions(20 * hive::kSecond);
  options.admit_runq_watermark = 2;
  const ServeResult result = RunSoak(options);
  EXPECT_GT(result.shed, 0u);
  uint64_t per_cell_shed = 0;
  size_t max_runnable = 0;
  for (const ServeCellSummary& cell : result.cells) {
    per_cell_shed += cell.shed;
    max_runnable = std::max(max_runnable, cell.max_runnable);
  }
  EXPECT_EQ(per_cell_shed, result.shed);
  // Shedding at the door keeps the run queues near the watermark; the only
  // processes above it are ones already admitted (children of fork bursts
  // run on the home cell without re-admission).
  EXPECT_GT(max_runnable, 0u);
}

TEST(ServeTest, NoShedBugTripsLatencySlo) {
  ServeOptions options = SmokeOptions();
  options.bug = "no_shed";
  const ServeResult result = RunSoak(options);
  EXPECT_FALSE(result.ok());
  bool latency_tripped = false;
  for (const std::string& violation : result.violations) {
    if (violation.find("latency-p999") != std::string::npos) {
      latency_tripped = true;
    }
  }
  EXPECT_TRUE(latency_tripped);
  // With admission control off, nothing is shed.
  EXPECT_EQ(result.shed, 0u);
}

TEST(ServeTest, SlowRecoveryBugTripsRecoverySlo) {
  ServeOptions options = SmokeOptions(10 * hive::kSecond);
  options.bug = "slow_recovery";
  const ServeResult result = RunSoak(options);
  EXPECT_FALSE(result.ok());
  bool recovery_tripped = false;
  for (const std::string& violation : result.violations) {
    if (violation.find("recovery-time") != std::string::npos) {
      recovery_tripped = true;
    }
  }
  EXPECT_TRUE(recovery_tripped);
}

}  // namespace
}  // namespace serve
