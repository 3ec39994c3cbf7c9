// Scenario model for the fault-campaign engine.
//
// A campaign is driven by one master seed. Scenario k's seed is derived
// deterministically (SplitMix64 over the master seed and the index), and
// everything in the scenario -- cell geometry, workload mix, fault plan,
// injection times -- is generated from that seed and the run's plan mode
// alone. Any scenario is therefore reproducible from (master_seed, index,
// mode), which is what the repro line `hive_campaign --seed=N --scenario=K`
// plus the mode's flag encodes.

#ifndef HIVE_SRC_CAMPAIGN_SCENARIO_H_
#define HIVE_SRC_CAMPAIGN_SCENARIO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/agreement.h"
#include "src/core/types.h"
#include "src/flash/fault_injector.h"

namespace campaign {

using hive::CellId;
using hive::Time;

enum class WorkloadKind {
  kNone,      // Boot + faults only (produced by the minimizer, never generated).
  kPmake,     // Multiprogrammed compile jobs (metadata + file traffic).
  kRaytrace,  // COW-tree sharing across cells.
  kOcean,     // Write-shared spanning task group.
  kMixed,     // Pmake and raytrace concurrently.
};

const char* WorkloadKindName(WorkloadKind kind);

enum class FaultKind {
  // Fail-stop hardware failure of the victim's node at inject_at.
  kNodeFailure,
  // Corrupt the `next` pointer of an address-map entry of some process on the
  // victim cell (retried until a process with a populated map exists).
  kAddrMapCorruption,
  // The victim cell attempts a store into another cell's memory through the
  // checked path. With the firewall on, the store is denied and the victim
  // panics (containment holds); with checking disabled (the wild-write
  // fixture) the store lands and the oracles must catch the damage.
  kWildWrite,
  // The victim (here: accuser) raises a hint against a healthy cell; voting
  // or the oracle must refuse to kill the accused.
  kFalseAccusation,
  // A time-windowed message-fault plan on the SIPS substrate (drop /
  // duplicate / delay / corrupt rates in per-mille, see
  // flash::MessageFaultPlan). No cell may die from message faults alone:
  // the reliable RPC transport must ride them out.
  kMessageFaults,
  // The victim cell stays alive but turns Byzantine along the axes in
  // `rogue_axes` (clock misbehaviour, kernel-heap corruption of its published
  // probe structures, RPC babbling/garbage/silence, contrarian votes or
  // repeated false accusations). The survivors must detect and excise the
  // rogue within the detection bound without hanging and without excising any
  // healthy cell.
  kRogueCell,
  // Seed-driven repeated kill/rejoin cycles of rotating victims under load
  // (`storm_cycles` kills inside [inject_at, inject_at + duration)), with
  // live rejoin and page salvage enabled. Some cycles re-kill a cell while a
  // *prior* victim's reintegration is still in flight. The salvage,
  // reintegration-convergence and containment oracles judge the aftermath.
  kRebootStorm,
};

const char* FaultKindName(FaultKind kind);
// Inverse of FaultKindName; returns false for unknown names.
bool FaultKindFromName(std::string_view name, FaultKind* out);

// Every FaultKind, for exhaustive round-trip tests and sweeps.
inline constexpr FaultKind kAllFaultKinds[] = {
    FaultKind::kNodeFailure,     FaultKind::kAddrMapCorruption,
    FaultKind::kWildWrite,       FaultKind::kFalseAccusation,
    FaultKind::kMessageFaults,   FaultKind::kRogueCell,
    FaultKind::kRebootStorm,
};

// Orthogonal misbehaviour axes for FaultKind::kRogueCell, combined as a
// bitmask in FaultSpec::rogue_axes. Axes come from four categories (clock,
// heap, rpc, agreement); the generator picks one primary axis and at most one
// secondary axis from a different category.
enum RogueAxis : uint32_t {
  kRogueClockFreeze = 1u << 0,     // Clock word stops advancing.
  kRogueClockDrift = 1u << 1,      // Clock advances at half rate.
  kRogueHeapScribble = 1u << 2,    // Type tag of a published node scribbled.
  kRogueHeapBadPtr = 1u << 3,      // Chain next pointer sent out of range.
  kRogueHeapCycle = 1u << 4,       // Chain next pointer bent back to the head.
  kRogueHeapTorn = 1u << 5,        // Seqlock block torn mid-update (odd seq).
  kRogueRpcBabble = 1u << 6,       // Floods peers with requests.
  kRogueRpcGarbage = 1u << 7,      // Replies carry garbage payload words.
  kRogueRpcSilence = 1u << 8,      // Drops every incoming request, even pings.
  kRogueVoteContrarian = 1u << 9,  // Votes the opposite of its observation.
  kRogueVoteAccuse = 1u << 10,     // Repeatedly accuses a healthy cell.
};

// "clock-freeze+rpc-babble" style rendering of an axis mask.
std::string RogueAxesToString(uint32_t axes);

// A plan mode: the fault-plan distribution GenerateScenario draws from, plus
// the seeded fixture or bug that goes with it. A run takes exactly one. One
// table in scenario.cc gives each mode its corpus name and its hive_campaign
// flag; a mode that combines two of these is a new row, never two flags.
enum class GeneratorMode {
  kDefault,              // One to three mixed faults (no flag).
  kWildWrite,            // One landing wild write, firewall checking off.
  kNoDedup,              // Duplication-heavy message plan, dedup off.
  kNoHopBound,           // Cyclic-chain rogue, survivors' hop bound off.
  kMessage,              // One or two message-fault windows only.
  kRogue,                // One rogue cell in the four-cell voting geometry.
  kNone,                 // Rogue geometry, zero faults (healthy baseline).
  kRebootStorm,          // One reboot storm, live rejoin and salvage on.
  kSalvage,              // Default plans with page salvage on.
  kBugNoDedup,           // See ScenarioSpec::bug_no_dedup.
  kBugSalvageUnchecked,  // See ScenarioSpec::bug_salvage_unchecked.
};

// The mode's corpus name ("default", "wild_write", ...), which corpus files
// carry on disk and so never changes, and its hive_campaign flag ("" for
// kDefault, "--fixture=wild_write", ...). The inverses return false for an
// unknown string.
const char* GeneratorModeName(GeneratorMode mode);
bool GeneratorModeFromName(std::string_view name, GeneratorMode* out);
const char* GeneratorModeFlag(GeneratorMode mode);
bool GeneratorModeFromFlag(std::string_view flag, GeneratorMode* out);

struct FaultSpec {
  FaultKind kind = FaultKind::kNodeFailure;
  CellId victim = 0;  // For kFalseAccusation: the accuser.
  CellId target = 0;  // kWildWrite: scribble target; kFalseAccusation: accused.
  Time inject_at = 0;
  flash::PointerCorruptionMode mode = flash::PointerCorruptionMode::kOffByOneWord;

  // kMessageFaults only. victim/target name the source/destination cells of
  // the faulty route, or -1 for all routes. Rates are per-mille per hop; the
  // plan window is [inject_at, inject_at + duration).
  uint32_t drop_pm = 0;
  uint32_t dup_pm = 0;
  uint32_t delay_pm = 0;
  uint32_t corrupt_pm = 0;
  Time duration = 0;

  // kRogueCell only: bitmask of RogueAxis values. For kRogueVoteAccuse,
  // `target` names the healthy cell the rogue keeps accusing.
  uint32_t rogue_axes = 0;

  // kRebootStorm only: number of kill/rejoin cycles. `victim` is the first
  // victim (cycles rotate from there); `duration` bounds the storm window.
  uint32_t storm_cycles = 0;

  std::string ToString() const;
};

struct ScenarioSpec {
  uint64_t master_seed = 0;
  uint64_t index = 0;
  uint64_t seed = 0;  // DeriveScenarioSeed(master_seed, index).
  // The plan mode GenerateScenario drew this scenario from. The repro line
  // and the corpus read it; the behaviour fields below are what it set.
  GeneratorMode mode = GeneratorMode::kDefault;

  int num_cells = 4;  // One node per cell.
  WorkloadKind workload = WorkloadKind::kPmake;
  int workload_scale = 1;  // Multiplies job counts / compute.
  hive::AgreementMode agreement_mode = hive::AgreementMode::kOracle;
  bool auto_reintegrate = false;
  // Wild-write fixture mode: firewall checking is disabled so an injected
  // wild write actually lands. Used to prove the oracles catch violations.
  bool disable_firewall = false;
  // No-dedup fixture mode: RPC duplicate suppression is disabled on every
  // cell, so substrate duplicates re-execute non-idempotent handlers and the
  // at-most-once oracle must flag the scenario.
  bool disable_rpc_dedup = false;
  // Generated by the rogue-cell sweep (--faults=rogue): exactly one
  // kRogueCell fault, four cells, real voting, no reintegration.
  bool rogue_only = false;
  // Healthy baseline (--faults=none): rogue-sweep geometry with an empty
  // fault plan; the no-false-excision oracle must see zero excisions.
  bool healthy_baseline = false;
  // No-hop-bound fixture: survivors chase remote chains with the hop bound
  // effectively removed and cycle detection off, so a cyclic rogue chain
  // must trip the no-survivor-hang oracle.
  bool disable_hop_bound = false;
  // Seeded-bug discovery mode (--bug=no_dedup): duplicate suppression is
  // silently broken on one cell (kBugNoDedupCell) while fault plans come from
  // the *default* distribution with duplication thinned to trace levels.
  // Unlike --fixture=no_dedup -- which forces a duplication-heavy plan so
  // every scenario trips -- only the rare scenario whose plan lands a
  // duplicate on non-idempotent traffic served by the buggy cell exposes the
  // bug. This is the discovery problem the guided-vs-random CI check
  // measures: the guided mode must find it in fewer scenarios.
  bool bug_no_dedup = false;
  // Page salvage during recovery (HiveOptions::salvage_pages). On for the
  // salvage sweep (--salvage), the reboot-storm family and the
  // salvage_unchecked bug mode; off elsewhere so the pre-salvage fault
  // families keep their byte-identical fingerprints.
  bool salvage = false;
  // Generated by the reboot-storm sweep (--faults=reboot-storm): exactly one
  // kRebootStorm fault, four cells, live rejoin + salvage enabled.
  bool reboot_storm_only = false;
  // Seeded-bug sensitivity mode (--bug=salvage_unchecked): salvage adopts
  // pages without re-verifying their content checksum
  // (HiveOptions::salvage_verify = false). The plan write-exports a canary
  // page to the victim, lands a wild write on it (firewall checking off) and
  // then kills the victim, so blind adoption keeps corrupt canary bytes and
  // the no-corrupt-adoption oracle must trip.
  bool bug_salvage_unchecked = false;

  // Mutation lineage: this scenario was derived from
  // GenerateScenario(master_seed, index, mode) by applying MutateScenario
  // once per entry, in order. ReproLine() encodes the chain (--mutate=...),
  // so replay is self-contained -- no corpus directory needed.
  std::vector<uint64_t> mutation_chain;

  std::vector<FaultSpec> faults;  // Sorted by inject_at.

  // Simulated settle time after the last injection (detection + recovery +
  // post-checks all complete well within this window).
  Time settle_ns = 800 * hive::kMillisecond;

  // Number of victims of fail-stop node failures (distinct cells).
  int NodeFailureCount() const;

  std::string ToString() const;
  // Self-contained repro line for this scenario.
  std::string ReproLine() const;
};

// Deterministic per-scenario seed derivation (SplitMix64 avalanche of the
// master seed and index). Stable across platforms and releases: repro lines
// in old CI logs must keep meaning the same scenario.
uint64_t DeriveScenarioSeed(uint64_t master_seed, uint64_t index);

// Generates scenario `index` of the campaign rooted at `master_seed`, drawn
// from the plan distribution of `mode`.
ScenarioSpec GenerateScenario(uint64_t master_seed, uint64_t index,
                              GeneratorMode mode = GeneratorMode::kDefault);

// The cell whose duplicate suppression is broken in bug_no_dedup mode. Cell 1
// exists in both 2- and 4-cell geometries, and is never the file-root home,
// so the bug's only symptom is the at-most-once counter.
inline constexpr CellId kBugNoDedupCell = 1;

// Coverage-guided mutation: derives a new scenario from `base` by applying
// one structure-preserving operator chosen from `mutation_seed` -- injection
// time jitter, victim/target retargeting, fault duplication or removal,
// workload kind/scale changes, message-rate redraws, corruption-mode changes,
// or a 2<->4 cell geometry flip. The mutant keeps the base's mode and
// appends `mutation_seed` to its mutation_chain; its scenario seed is derived
// from the base seed and the mutation seed, so the mutant is fully determined
// by (master_seed, index, mutation_chain).
//
// Mutants preserve the generator's plan invariants (distinct node-failure
// victims capped at num_cells/2, at most one false accusation, message faults
// and accusations never mixed, targets distinct from victims) so a mutant can
// only trip an oracle by finding a real bug, never by violating a documented
// scenario precondition.
ScenarioSpec MutateScenario(const ScenarioSpec& base, uint64_t mutation_seed);

// Replays a mutation chain against a freshly generated root scenario.
ScenarioSpec ApplyMutationChain(const ScenarioSpec& root,
                                const std::vector<uint64_t>& chain);

// "12,7,3099" rendering of a mutation chain (decimal, comma-separated) and
// its inverse. Used by repro lines and the corpus on-disk format.
std::string FormatMutationChain(const std::vector<uint64_t>& chain);
bool ParseMutationChain(std::string_view text, std::vector<uint64_t>* out);

}  // namespace campaign

#endif  // HIVE_SRC_CAMPAIGN_SCENARIO_H_
