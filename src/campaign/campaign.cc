#include "src/campaign/campaign.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <sstream>
#include <thread>
#include <utility>

#include "src/base/rng.h"
#include "src/campaign/corpus.h"
#include "src/campaign/coverage.h"

namespace campaign {
namespace {

// Per-batch slot cap, and the batch size of a plain sweep: bounds the
// work-list memory without changing results (batches are merged in slot
// order).
constexpr int kMaxBatchSize = 1024;

// Seed-domain separator for guided draw decisions, so the slot RNG never
// collides with the scenario-seed domain of DeriveScenarioSeed.
constexpr uint64_t kGuidedSeedSalt = 0x6775696465644831ull;

// Per-mille of guided slots that draw a fresh scenario instead of mutating a
// corpus entry (exploration vs exploitation).
constexpr uint64_t kGuidedFreshPerMille = 250;

uint64_t CountLanded(const ScenarioResult& result) {
  uint64_t landed = 0;
  for (bool flag : result.injected) {
    landed += flag ? 1 : 0;
  }
  return landed;
}

}  // namespace

std::string CampaignFailure::Report() const {
  std::ostringstream out;
  out << result.ViolationReport();
  if (minimized && minimization.reduced) {
    out << "  minimized (" << minimization.runs << " runs): "
        << minimization.minimized.ToString() << "\n";
  }
  return out.str();
}

CampaignReport RunCampaign(const CampaignOptions& options) {
  CampaignReport report;

  // Corpus pool: the specs guided slots mutate. Loaded entries become
  // mutation bases; they are not re-run.
  std::vector<ScenarioSpec> pool;
  if (!options.corpus_dir.empty()) {
    const std::vector<CorpusEntry> loaded = LoadCorpusDir(options.corpus_dir);
    pool.reserve(loaded.size());
    for (const CorpusEntry& entry : loaded) {
      pool.push_back(RegenerateScenario(entry));
    }
    report.corpus_loaded = loaded.size();
  }
  const bool replay = options.corpus_replay_only;
  // Admit coverage-novel scenarios into the pool when guiding, or when the
  // caller asked for a persisted corpus from a plain sweep.
  const bool admit = !replay && (options.guided || !options.corpus_dir.empty());

  CoverageMap coverage;
  report.merged_fingerprint = kFnvOffsetBasis;
  uint64_t exec_order = 0;

  // Runs one pre-built batch on the pool; results come back indexed by slot.
  auto run_batch = [&options](const std::vector<ScenarioSpec>& batch) {
    std::vector<ScenarioResult> results(batch.size());
    std::atomic<size_t> next_slot{0};
    auto worker = [&batch, &results, &next_slot] {
      for (;;) {
        const size_t slot = next_slot.fetch_add(1, std::memory_order_relaxed);
        if (slot >= batch.size()) {
          return;
        }
        results[slot] = RunScenario(batch[slot]);
      }
    };
    const int workers = std::min<int>(std::max(1, options.workers),
                                      static_cast<int>(batch.size()));
    if (workers <= 1) {
      worker();
    } else {
      std::vector<std::thread> threads;
      threads.reserve(static_cast<size_t>(workers));
      for (int w = 0; w < workers; ++w) {
        threads.emplace_back(worker);
      }
      for (std::thread& thread : threads) {
        thread.join();
      }
    }
    return results;
  };

  // Merges batch results in slot order: every downstream artifact (coverage,
  // corpus, failures, fingerprints, hooks) sees the same deterministic
  // sequence regardless of which worker ran which slot.
  auto merge = [&](std::vector<ScenarioResult>& results) {
    for (ScenarioResult& result : results) {
      ++exec_order;
      report.faults_injected += CountLanded(result);
      report.excisions += static_cast<uint64_t>(result.excisions);
      report.pages_salvaged += static_cast<uint64_t>(result.pages_salvaged);
      report.merged_fingerprint =
          FnvMix(report.merged_fingerprint, result.fingerprint);
      const size_t novel = coverage.Merge(result.coverage);
      if (admit && novel > 0 &&
          (options.corpus_dir.empty() ||
           SaveCorpusEntry(options.corpus_dir, CorpusEntryFromSpec(result.spec)))) {
        pool.push_back(result.spec);
      }
      if (options.on_result) {
        options.on_result(result);
      }
      if (result.violated()) {
        if (report.first_violation_order == 0) {
          report.first_violation_order = exec_order;
        }
        CampaignFailure failure;
        failure.order = exec_order;
        failure.result = std::move(result);
        report.failures.push_back(std::move(failure));
      }
    }
  };

  if (replay) {
    std::vector<ScenarioResult> results = run_batch(pool);
    merge(results);
  } else {
    // A plain sweep (neither guided nor stopping early) reads no batch
    // boundary, so it runs in full slots: workers stay busy, and its memory
    // stays one batch however many scenarios it sweeps. Execution order is
    // scenario index order.
    const bool plain = !options.guided && !options.stop_on_violation;
    const int batch_size =
        plain ? kMaxBatchSize : std::min(kMaxBatchSize, std::max(1, options.batch_size));
    uint64_t fresh_index = 0;
    uint64_t generation = 0;
    while (exec_order < options.num_scenarios &&
           !(options.stop_on_violation && report.first_violation_order != 0)) {
      const uint64_t want = std::min<uint64_t>(
          static_cast<uint64_t>(batch_size), options.num_scenarios - exec_order);
      std::vector<ScenarioSpec> batch;
      batch.reserve(want);
      for (uint64_t slot = 0; slot < want; ++slot) {
        if (!options.guided || pool.empty()) {
          batch.push_back(
              GenerateScenario(options.master_seed, fresh_index++, options.mode));
          ++report.fresh_run;
          continue;
        }
        // The draw is a pure function of (master_seed, generation, slot), so
        // the batch work list -- and everything merged from it -- does not
        // depend on workers or timing.
        base::Rng slot_rng(DeriveScenarioSeed(options.master_seed ^ kGuidedSeedSalt,
                                              generation * 1024 + slot));
        if (slot_rng.Below(1000) < kGuidedFreshPerMille) {
          batch.push_back(
              GenerateScenario(options.master_seed, fresh_index++, options.mode));
          ++report.fresh_run;
        } else {
          const ScenarioSpec& base = pool[slot_rng.Below(pool.size())];
          batch.push_back(MutateScenario(base, slot_rng.Next()));
          ++report.mutants_run;
        }
      }
      std::vector<ScenarioResult> results = run_batch(batch);
      merge(results);
      ++generation;
    }
  }

  report.scenarios_run = exec_order;
  report.coverage_features = coverage.size();
  report.coverage_hash = coverage.Hash();
  report.corpus_size = pool.size();

  // Triage: bucket failures by (first tripped oracle, trace signature).
  // Failures are already in execution order, so the first member seen is the
  // bucket representative.
  std::map<std::pair<std::string, uint64_t>, size_t> bucket_index;
  for (size_t i = 0; i < report.failures.size(); ++i) {
    CampaignFailure& failure = report.failures[i];
    const std::pair<std::string, uint64_t> key(
        failure.result.violations[0].oracle, failure.result.trace_signature);
    auto found = bucket_index.find(key);
    if (found == bucket_index.end()) {
      bucket_index.emplace(key, report.buckets.size());
      TriageBucket bucket;
      bucket.oracle = key.first;
      bucket.trace_signature = key.second;
      bucket.count = 1;
      bucket.first_order = failure.order;
      bucket.repro = failure.result.spec.ReproLine();
      if (options.minimize) {
        failure.minimization =
            MinimizeScenario(failure.result.spec, kMinimizeRuns, bucket.oracle);
        failure.minimized = true;
        bucket.minimized = failure.minimization.minimized.ToString();
        bucket.minimize_runs = failure.minimization.runs;
      } else {
        failure.minimization.minimized = failure.result.spec;
        bucket.minimized = failure.result.spec.ToString();
      }
      report.buckets.push_back(std::move(bucket));
    } else {
      ++report.buckets[found->second].count;
      failure.minimization.minimized = failure.result.spec;
    }
  }

  return report;
}

}  // namespace campaign
