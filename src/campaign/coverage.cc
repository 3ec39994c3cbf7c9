#include "src/campaign/coverage.h"

#include <bit>

#include "src/core/agreement.h"
#include "src/core/cell.h"
#include "src/core/failure_detection.h"
#include "src/core/hive_system.h"
#include "src/core/recovery.h"
#include "src/core/rpc.h"
#include "src/core/trace.h"

namespace campaign {
namespace {

using hive::Cell;
using hive::CellId;
using hive::HiveSystem;
using hive::TraceRecord;

// Feature-id domains. The domain keeps structurally different observations
// from colliding (a hint-reason bucket can never alias a trace bigram).
constexpr uint64_t kDomTraceBigram = 1;
constexpr uint64_t kDomHintReason = 2;
constexpr uint64_t kDomRpcCounter = 3;
constexpr uint64_t kDomMargin = 4;
constexpr uint64_t kDomOracle = 5;
constexpr uint64_t kDomCellState = 6;

// SplitMix64 avalanche of (domain, a, b) into a feature id. Stable across
// platforms: corpus files and CI logs refer to map hashes built from these.
uint64_t Feature(uint64_t domain, uint64_t a, uint64_t b) {
  uint64_t z = (domain << 56) ^ (a * 0x9E3779B97F4A7C15ull) ^
               (b + 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// AFL-style log2 count bucketing: "once", "a few times" and "hammered" are
// different behaviours; 17 versus 18 occurrences is not.
uint64_t Log2Bucket(uint64_t value) {
  return static_cast<uint64_t>(std::bit_width(value));
}

// Near-miss margin metrics (kDomMargin `a` values). These track how close a
// passing scenario came to an oracle bound -- a scenario that walked 48 hops
// under the 64-hop hang bound is more interesting than one that walked 2.
constexpr uint64_t kMarginTraversalHops = 0;
constexpr uint64_t kMarginVoteTimeouts = 1;
constexpr uint64_t kMarginRoundCostMs = 2;
constexpr uint64_t kMarginRecoveries = 3;
constexpr uint64_t kMarginExcisions = 4;
constexpr uint64_t kMarginDeadCells = 5;

}  // namespace

uint64_t FnvMix(uint64_t hash, uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (byte * 8)) & 0xFF;
    hash *= 0x100000001B3ull;
  }
  return hash;
}

uint64_t FnvMixString(uint64_t hash, const std::string& text) {
  for (char c : text) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001B3ull;
  }
  return hash;
}

uint64_t FnvMixCellStates(uint64_t hash, HiveSystem& sys) {
  for (CellId c = 0; c < sys.num_cells(); ++c) {
    Cell& cell = sys.cell(c);
    uint64_t state = cell.alive() ? 1u : 0u;
    state |= cell.in_recovery() ? 2u : 0u;
    state |= sys.CellConfirmedFailed(c) ? 4u : 0u;
    hash = FnvMix(hash, state);
    hash = FnvMixString(hash, cell.panic_reason());
  }
  return hash;
}

std::vector<uint64_t> ExtractCoverage(HiveSystem& sys,
                                      const std::vector<OracleViolation>& violations) {
  std::set<uint64_t> features;
  uint64_t excised = 0;
  uint64_t dead = 0;
  for (CellId c = 0; c < sys.num_cells(); ++c) {
    Cell& cell = sys.cell(c);

    // Trace-event bigrams: consecutive pairs of event kinds in the retained
    // ring. The pair (kRpcRetry, kPeerQuarantined) is a different behaviour
    // from either event alone.
    const std::vector<TraceRecord> snapshot = cell.trace().Snapshot();
    for (size_t i = 0; i + 1 < snapshot.size(); ++i) {
      features.insert(Feature(kDomTraceBigram,
                              static_cast<uint64_t>(snapshot[i].event),
                              static_cast<uint64_t>(snapshot[i + 1].event)));
    }

    // Failure-detector hint table, bucketed per reason.
    for (hive::HintReason reason : hive::kAllHintReasons) {
      const uint64_t count = cell.detector().hints_for(reason);
      if (count > 0) {
        features.insert(Feature(kDomHintReason, static_cast<uint64_t>(reason),
                                Log2Bucket(count)));
      }
    }

    // RPC transport counters, bucketed per counter. The id is the position in
    // this list; append-only so old corpus map hashes stay comparable.
    const hive::RpcCallStats& stats = cell.rpc().stats();
    const uint64_t counters[] = {
        stats.calls,
        stats.timeouts,
        stats.queued_calls,
        stats.retries,
        stats.duplicates_suppressed,
        stats.corrupt_lost,
        stats.quarantines_entered,
        stats.quarantine_fail_fast,
        stats.at_most_once_violations,
        stats.acked_mutations,
        stats.executed_mutations,
    };
    for (uint64_t id = 0; id < sizeof(counters) / sizeof(counters[0]); ++id) {
      if (counters[id] > 0) {
        features.insert(Feature(kDomRpcCounter, id, Log2Bucket(counters[id])));
      }
    }

    // Per-cell near-miss margin: remote-traversal hop high-water mark.
    features.insert(Feature(kDomMargin, kMarginTraversalHops,
                            Log2Bucket(static_cast<uint64_t>(
                                cell.detector().max_traversal_hops()))));

    // Final cell state (alive / in-recovery / confirmed-failed bits).
    uint64_t state = cell.alive() ? 1u : 0u;
    state |= cell.in_recovery() ? 2u : 0u;
    state |= sys.CellConfirmedFailed(c) ? 4u : 0u;
    features.insert(Feature(kDomCellState, state, 0));
    excised += sys.CellConfirmedFailed(c) ? 1 : 0;
    dead += cell.alive() ? 0 : 1;
  }

  // System-wide near-miss margins.
  features.insert(Feature(kDomMargin, kMarginVoteTimeouts,
                          Log2Bucket(sys.agreement().vote_timeouts())));
  features.insert(
      Feature(kDomMargin, kMarginRoundCostMs,
              Log2Bucket(static_cast<uint64_t>(sys.agreement().max_round_cost_ns() /
                                               hive::kMillisecond))));
  features.insert(Feature(kDomMargin, kMarginRecoveries,
                          Log2Bucket(static_cast<uint64_t>(
                              sys.recovery().recoveries_run()))));
  features.insert(Feature(kDomMargin, kMarginExcisions, excised));
  features.insert(Feature(kDomMargin, kMarginDeadCells, dead));

  // Which oracles tripped (names, not details: the detail strings embed cell
  // ids and counts that would explode the feature space).
  for (const OracleViolation& violation : violations) {
    features.insert(
        Feature(kDomOracle, FnvMixString(kFnvOffsetBasis, violation.oracle), 0));
  }

  return std::vector<uint64_t>(features.begin(), features.end());
}

uint64_t ComputeTraceSignature(HiveSystem& sys) {
  uint64_t hash = kFnvOffsetBasis;
  for (CellId c = 0; c < sys.num_cells(); ++c) {
    hash = FnvMix(hash, 0x6B63656C6Cull);  // Per-cell separator.
    for (const TraceRecord& record : sys.cell(c).trace().Snapshot()) {
      hash = FnvMix(hash, static_cast<uint64_t>(record.event));
    }
  }
  return hash;
}

size_t CoverageMap::Merge(const std::vector<uint64_t>& features) {
  size_t added = 0;
  for (uint64_t feature : features) {
    added += features_.insert(feature).second ? 1 : 0;
  }
  return added;
}

uint64_t CoverageMap::Hash() const {
  uint64_t hash = kFnvOffsetBasis;
  for (uint64_t feature : features_) {
    hash = FnvMix(hash, feature);
  }
  return hash;
}

}  // namespace campaign
