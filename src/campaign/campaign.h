// Campaign driver: fans scenarios out over a worker thread pool.
//
// Each scenario is an isolated single-threaded simulation, so the pool gets
// near-linear speedup with zero shared mutable state. Work is organized in
// deterministic batches: the batch's scenario specs are fixed *before* any
// worker runs, workers claim batch slots from an atomic counter, and results
// are merged in slot order afterward. Everything downstream of the merge --
// coverage map, corpus admission, triage buckets, failure order, the merged
// fingerprint -- is therefore independent of worker count and scheduling.
//
// In guided mode the next batch is built from the corpus the previous batches
// grew: most slots mutate a coverage-novel corpus entry, the rest draw fresh
// scenarios, and any result that adds coverage features is admitted back into
// the corpus (and persisted when --corpus=DIR is given).

#ifndef HIVE_SRC_CAMPAIGN_CAMPAIGN_H_
#define HIVE_SRC_CAMPAIGN_CAMPAIGN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/campaign/minimizer.h"
#include "src/campaign/runner.h"
#include "src/campaign/scenario.h"

namespace campaign {

struct CampaignOptions {
  uint64_t master_seed = 1;
  uint64_t num_scenarios = 200;
  int workers = 4;
  // The plan mode every generated scenario is drawn from (corpus entries
  // carry their own).
  GeneratorMode mode = GeneratorMode::kDefault;

  // Coverage-guided mode: batch the run, mutate coverage-novel corpus entries
  // instead of always drawing fresh scenarios.
  bool guided = false;
  // Scenarios per guided batch. Corpus admissions from batch N feed the
  // mutation pool of batch N+1, so smaller batches react to coverage faster
  // but parallelize less.
  int batch_size = 16;
  // When non-empty: load corpus entries from this directory before the run
  // (guided mode uses them as mutation bases) and persist every newly
  // admitted entry into it.
  std::string corpus_dir;
  // Replay mode: run exactly the loaded corpus entries, nothing else.
  // num_scenarios is ignored; no mutation, no admission, no persistence.
  bool corpus_replay_only = false;
  // Stop at the first batch boundary after a violation (discovery-cost
  // measurement: CampaignReport::first_violation_order is the metric).
  bool stop_on_violation = false;

  // Minimize violating scenarios after the sweep (one per triage bucket; the
  // bucket's other members keep their original spec).
  bool minimize = true;
  // Optional progress hook; invoked from the deterministic merge step, in
  // execution order, on the driver thread.
  std::function<void(const ScenarioResult&)> on_result;
};

struct CampaignFailure {
  ScenarioResult result;
  MinimizationResult minimization;  // minimized == result.spec when skipped.
  bool minimized = false;
  uint64_t order = 0;  // 1-based execution order of this scenario.

  std::string Report() const;
};

// One triage bucket: failures that tripped the same first oracle and share a
// trace signature. The bucket's representative (its earliest failure) is
// minimized with the oracle pinned, so `repro` + `minimized` is one
// actionable, byte-stable line pair per distinct misbehaviour.
struct TriageBucket {
  std::string oracle;
  uint64_t trace_signature = 0;
  uint64_t count = 0;        // Failures in this bucket.
  uint64_t first_order = 0;  // Execution order of the representative.
  std::string repro;         // Representative's self-contained repro line.
  std::string minimized;     // Representative's minimized spec (ToString).
  int minimize_runs = 0;     // 0 when minimization was disabled.
};

struct CampaignReport {
  uint64_t scenarios_run = 0;
  uint64_t faults_injected = 0;
  uint64_t excisions = 0;  // Cells confirmed failed by agreement, summed.
  uint64_t pages_salvaged = 0;  // Pages adopted instead of discarded, summed.
  // Violating scenarios in execution order (deterministic across worker
  // counts and interleavings; in non-guided mode this is index order).
  std::vector<CampaignFailure> failures;
  // Triage buckets in first-appearance order.
  std::vector<TriageBucket> buckets;

  // Merged coverage map (size and FNV digest) after the full run.
  uint64_t coverage_features = 0;
  uint64_t coverage_hash = 0;
  // FNV mix of every scenario fingerprint in execution order.
  uint64_t merged_fingerprint = 0;
  // Corpus entries loaded from disk / total in the pool after the run.
  uint64_t corpus_loaded = 0;
  uint64_t corpus_size = 0;
  // Guided-mode draw mix.
  uint64_t fresh_run = 0;
  uint64_t mutants_run = 0;
  // 1-based execution order of the first violating scenario, 0 if none.
  uint64_t first_violation_order = 0;

  bool ok() const { return failures.empty(); }
};

CampaignReport RunCampaign(const CampaignOptions& options);

}  // namespace campaign

#endif  // HIVE_SRC_CAMPAIGN_CAMPAIGN_H_
