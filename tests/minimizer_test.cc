// Direct unit tests for the ddmin scenario minimizer: preservation of the
// violating property, 1-minimality of the result, determinism, and budget
// behaviour. Synthetic predicates drive the search without simulator runs;
// one end-to-end case pins the real RunScenario-backed wrapper.

#include "src/campaign/minimizer.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/campaign/runner.h"
#include "src/campaign/scenario.h"

namespace campaign {
namespace {

// A spec with five message-fault windows at 5/10/15/20/25 ms. Synthetic
// predicates key off the injection times, so each fault is identifiable.
ScenarioSpec FiveFaultSpec() {
  ScenarioSpec spec;
  spec.master_seed = 1;
  spec.index = 0;
  spec.seed = 12345;
  spec.num_cells = 4;
  spec.workload = WorkloadKind::kPmake;
  spec.workload_scale = 2;
  for (int i = 0; i < 5; ++i) {
    FaultSpec fault;
    fault.kind = FaultKind::kMessageFaults;
    fault.victim = -1;
    fault.target = -1;
    fault.inject_at = (5 + 5 * i) * hive::kMillisecond;
    fault.drop_pm = 20;
    fault.duration = 50 * hive::kMillisecond;
    spec.faults.push_back(fault);
  }
  return spec;
}

bool HasFaultAt(const ScenarioSpec& spec, Time when) {
  for (const FaultSpec& fault : spec.faults) {
    if (fault.inject_at == when) {
      return true;
    }
  }
  return false;
}

// Violation requires BOTH the 5 ms and the 25 ms fault: the unique minimal
// plan is exactly that pair.
bool NeedsPair(const ScenarioSpec& spec) {
  return HasFaultAt(spec, 5 * hive::kMillisecond) &&
         HasFaultAt(spec, 25 * hive::kMillisecond);
}

TEST(MinimizerTest, FindsTheMinimalFaultPair) {
  const ScenarioSpec original = FiveFaultSpec();
  ASSERT_TRUE(NeedsPair(original));
  const MinimizationResult result =
      MinimizeScenarioWith(original, /*max_runs=*/64, NeedsPair);

  // Preservation: the minimized spec still satisfies the predicate.
  EXPECT_TRUE(NeedsPair(result.minimized));
  // Exactly the two load-bearing faults survive.
  ASSERT_EQ(result.minimized.faults.size(), 2u);
  EXPECT_EQ(result.minimized.faults[0].inject_at, 5 * hive::kMillisecond);
  EXPECT_EQ(result.minimized.faults[1].inject_at, 25 * hive::kMillisecond);
  EXPECT_TRUE(result.reduced);
  // The predicate ignores the workload, so the minimizer drops it too.
  EXPECT_EQ(result.minimized.workload, WorkloadKind::kNone);
}

TEST(MinimizerTest, ResultIsOneMinimal) {
  const ScenarioSpec original = FiveFaultSpec();
  const MinimizationResult result =
      MinimizeScenarioWith(original, /*max_runs=*/64, NeedsPair);
  // 1-minimality: removing any single remaining fault breaks the property.
  for (size_t drop = 0; drop < result.minimized.faults.size(); ++drop) {
    ScenarioSpec smaller = result.minimized;
    smaller.faults.erase(smaller.faults.begin() + static_cast<ptrdiff_t>(drop));
    EXPECT_FALSE(NeedsPair(smaller)) << "dropping fault " << drop;
  }
}

TEST(MinimizerTest, SearchIsDeterministic) {
  const ScenarioSpec original = FiveFaultSpec();
  const MinimizationResult a =
      MinimizeScenarioWith(original, /*max_runs=*/64, NeedsPair);
  const MinimizationResult b =
      MinimizeScenarioWith(original, /*max_runs=*/64, NeedsPair);
  EXPECT_EQ(a.minimized.ToString(), b.minimized.ToString());
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.reduced, b.reduced);
}

TEST(MinimizerTest, ZeroBudgetIsANoOp) {
  const ScenarioSpec original = FiveFaultSpec();
  const MinimizationResult result =
      MinimizeScenarioWith(original, /*max_runs=*/0, NeedsPair);
  EXPECT_EQ(result.runs, 0);
  EXPECT_FALSE(result.reduced);
  EXPECT_EQ(result.minimized.ToString(), original.ToString());
}

TEST(MinimizerTest, PredicateCallsNeverExceedBudget) {
  const ScenarioSpec original = FiveFaultSpec();
  for (int budget : {1, 2, 3, 5, 8}) {
    int calls = 0;
    const MinimizationResult result = MinimizeScenarioWith(
        original, budget, [&calls](const ScenarioSpec& spec) {
          ++calls;
          return NeedsPair(spec);
        });
    EXPECT_LE(calls, budget) << "budget " << budget;
    EXPECT_EQ(calls, result.runs) << "budget " << budget;
    // Whatever the budget allowed, the property still holds (a failed probe
    // never replaces the current spec).
    EXPECT_TRUE(NeedsPair(result.minimized)) << "budget " << budget;
  }
}

TEST(MinimizerTest, AlwaysTruePredicateCollapsesEverything) {
  const ScenarioSpec original = FiveFaultSpec();
  const MinimizationResult result = MinimizeScenarioWith(
      original, /*max_runs=*/16, [](const ScenarioSpec&) { return true; });
  EXPECT_TRUE(result.minimized.faults.empty());
  EXPECT_EQ(result.minimized.workload, WorkloadKind::kNone);
  EXPECT_TRUE(result.reduced);
}

// End-to-end: the RunScenario-backed wrapper with a pinned target oracle.
// The wild-write fixture reliably trips the canary (generation-consistency)
// oracle, and the minimized spec must keep tripping that same oracle.
TEST(MinimizerTest, TargetOracleIsPreservedEndToEnd) {
  const ScenarioSpec spec = GenerateScenario(7, 0, GeneratorMode::kWildWrite);
  const ScenarioResult before = RunScenario(spec);
  ASSERT_TRUE(before.violated());
  const std::string oracle = before.violations[0].oracle;

  const MinimizationResult result =
      MinimizeScenario(spec, /*max_runs=*/24, oracle);
  const ScenarioResult after = RunScenario(result.minimized);
  bool same_oracle = false;
  for (const OracleViolation& violation : after.violations) {
    same_oracle = same_oracle || violation.oracle == oracle;
  }
  EXPECT_TRUE(same_oracle)
      << "minimized spec no longer trips " << oracle << ": "
      << result.minimized.ToString();
}

}  // namespace
}  // namespace campaign
