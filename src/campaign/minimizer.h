// Automatic scenario minimization.
//
// When a scenario trips an oracle, the raw spec may carry faults and workload
// volume that have nothing to do with the violation. The minimizer shrinks
// the spec while the violation persists: delta debugging (ddmin) over the
// fault sequence, then workload reduction (drop the workload, then its
// scale). The minimized spec keeps the original (master_seed, index) -- the
// repro line always references the scenario as generated; the minimized form
// is reported alongside it as the smallest spec that still violates.

#ifndef HIVE_SRC_CAMPAIGN_MINIMIZER_H_
#define HIVE_SRC_CAMPAIGN_MINIMIZER_H_

#include <functional>
#include <string>

#include "src/campaign/runner.h"
#include "src/campaign/scenario.h"

namespace campaign {

struct MinimizationResult {
  ScenarioSpec minimized;
  int runs = 0;        // Predicate evaluations the search spent.
  bool reduced = false;  // True if anything was dropped from the original.
};

// The property the minimizer preserves: "this candidate still violates".
using ViolationPredicate = std::function<bool(const ScenarioSpec&)>;

// Core search: shrinks `original` (for which `violates` must currently hold)
// to a smaller spec for which it still holds, evaluating the predicate at
// most `max_runs` times. Deterministic: the same (original, predicate
// behaviour, max_runs) always yields the same result. Exposed so unit tests
// can drive the search with synthetic predicates instead of full simulator
// runs.
MinimizationResult MinimizeScenarioWith(const ScenarioSpec& original, int max_runs,
                                        const ViolationPredicate& violates);

inline constexpr int kMinimizeRuns = 64;  // MinimizeScenario's default run budget.

// Production wrapper: the predicate is a real scenario execution. When
// `target_oracle` is non-empty, a candidate only counts as violating if that
// specific oracle trips -- triage uses this so a bucket's minimized repro
// cannot drift to a different oracle's (smaller) violation.
MinimizationResult MinimizeScenario(const ScenarioSpec& original, int max_runs = kMinimizeRuns,
                                    const std::string& target_oracle = "");

}  // namespace campaign

#endif  // HIVE_SRC_CAMPAIGN_MINIMIZER_H_
