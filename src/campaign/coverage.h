// Coverage signals for the coverage-guided fault campaign.
//
// A scenario's coverage is a set of 64-bit feature ids derived from the final
// simulator state: trace-event bigrams, log2-bucketed failure-detector hint
// tables, log2-bucketed RPC transport counters, and oracle near-miss margins
// (traversal-hop high-water marks, agreement round cost, vote timeouts,
// excision and recovery counts). Features are deliberately cell-agnostic --
// the same misbehaviour on cell 0 and cell 2 maps to the same feature -- so
// the corpus collects distinct *behaviours*, not distinct cell layouts.
//
// Feature ids are pure functions of simulator state (no wall clock, no
// allocation-order dependence), so coverage is exactly as deterministic as
// the scenario itself, and a coverage map merged in execution order is
// independent of worker count.

#ifndef HIVE_SRC_CAMPAIGN_COVERAGE_H_
#define HIVE_SRC_CAMPAIGN_COVERAGE_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "src/campaign/oracles.h"

namespace hive {
class HiveSystem;
}

namespace campaign {

// FNV-1a mixing, the one copy in the tree: coverage map digests, trace
// signatures, scenario and soak fingerprints, the campaign's merged
// fingerprint and corpus file names all use it. Golden tests pin its byte
// order (FnvMix folds `value` little-endian, one byte at a time).
inline constexpr uint64_t kFnvOffsetBasis = 0xCBF29CE484222325ull;

uint64_t FnvMix(uint64_t hash, uint64_t value);
uint64_t FnvMixString(uint64_t hash, const std::string& text);
// Folds every cell's final state into `hash`, in cell order: its alive,
// in-recovery and confirmed-failed bits, then its panic reason. Scenario and
// soak fingerprints both hash the cells this way.
uint64_t FnvMixCellStates(uint64_t hash, hive::HiveSystem& sys);

// Extracts the coverage feature set from a finished scenario's simulator
// state plus the oracle verdicts. Returns a sorted, deduplicated vector.
std::vector<uint64_t> ExtractCoverage(hive::HiveSystem& sys,
                                      const std::vector<OracleViolation>& violations);

// Order-sensitive digest of every cell's retained trace-event kind sequence,
// in cell order (event kinds only -- no timestamps, so two runs that took the
// same path through the kernel bucket together even when their clocks
// differ). Triage buckets failures by this signature alongside the tripped
// oracle and the minimized repro.
uint64_t ComputeTraceSignature(hive::HiveSystem& sys);

// Monotone merged coverage map. The campaign driver merges per-scenario
// features in deterministic execution order, so size() and Hash() are
// worker-count independent.
class CoverageMap {
 public:
  // Merges `features` into the map; returns how many were new.
  size_t Merge(const std::vector<uint64_t>& features);

  size_t size() const { return features_.size(); }

  // FNV-1a digest over the sorted feature set.
  uint64_t Hash() const;

 private:
  std::set<uint64_t> features_;
};

}  // namespace campaign

#endif  // HIVE_SRC_CAMPAIGN_COVERAGE_H_
