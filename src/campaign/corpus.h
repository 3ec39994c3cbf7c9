// Persisted corpus of coverage-novel scenarios.
//
// A corpus entry does not store the scenario itself -- it stores the recipe:
// (master_seed, index, plan mode, mutation chain). Regeneration is
// deterministic (DeriveScenarioSeed + MutateScenario are pinned), so an entry
// written by one campaign replays byte-identically in another, on any worker
// count, with no reference to the run that discovered it.
//
// On-disk format (one entry per file, text, order fixed):
//   hive-corpus-v1
//   master_seed=7
//   index=12
//   mode=default           <- one GeneratorModeName: default, wild_write,
//                             no_dedup, no_hop_bound, message, rogue, none,
//                             reboot_storm, salvage, bug_no_dedup or
//                             bug_salvage_unchecked
//   mutations=123,456      <- omitted when the chain is empty
// Unknown keys are tolerated (forward compatibility); a file missing
// master_seed/index/mode or with a bad value is skipped by LoadCorpusDir.

#ifndef HIVE_SRC_CAMPAIGN_CORPUS_H_
#define HIVE_SRC_CAMPAIGN_CORPUS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/campaign/scenario.h"

namespace campaign {

struct CorpusEntry {
  uint64_t master_seed = 0;
  uint64_t index = 0;
  GeneratorMode mode = GeneratorMode::kDefault;
  std::vector<uint64_t> mutation_chain;
};

// The recipe of a generated (or mutated) scenario, read off the fields the
// generator recorded on it. Used when admitting a scenario into the corpus.
CorpusEntry CorpusEntryFromSpec(const ScenarioSpec& spec);

// Deterministically rebuilds the scenario an entry describes.
ScenarioSpec RegenerateScenario(const CorpusEntry& entry);

// Text form (see the format comment above) and its inverse. Parse returns
// false on a missing header or required key.
std::string SerializeCorpusEntry(const CorpusEntry& entry);
bool ParseCorpusEntry(std::string_view text, CorpusEntry* out);

// Content-addressed file name for an entry ("entry-<fnv64 of text>.corpus"),
// so re-admitting the same recipe overwrites rather than duplicates.
std::string CorpusEntryFileName(const CorpusEntry& entry);

// Writes `entry` into `dir` (created if absent) under its content-addressed
// name. Returns false on I/O failure.
bool SaveCorpusEntry(const std::string& dir, const CorpusEntry& entry);

// Loads every parsable *.corpus file in `dir`, sorted by file name (a stable
// order: names are content hashes, identical for every loader). A missing
// directory yields an empty corpus.
std::vector<CorpusEntry> LoadCorpusDir(const std::string& dir);

}  // namespace campaign

#endif  // HIVE_SRC_CAMPAIGN_CORPUS_H_
