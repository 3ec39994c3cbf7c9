#include "src/campaign/scenario.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "src/base/rng.h"

namespace campaign {
namespace {

// Name table for RogueAxesToString; order matches the RogueAxis bit order so
// the rendering is stable for repro lines and fingerprint-adjacent logs.
struct RogueAxisEntry {
  RogueAxis axis;
  const char* name;
};
constexpr RogueAxisEntry kRogueAxisNames[] = {
    {kRogueClockFreeze, "clock-freeze"},
    {kRogueClockDrift, "clock-drift"},
    {kRogueHeapScribble, "heap-scribble"},
    {kRogueHeapBadPtr, "heap-bad-ptr"},
    {kRogueHeapCycle, "heap-cycle"},
    {kRogueHeapTorn, "heap-torn"},
    {kRogueRpcBabble, "rpc-babble"},
    {kRogueRpcGarbage, "rpc-garbage"},
    {kRogueRpcSilence, "rpc-silence"},
    {kRogueVoteContrarian, "vote-contrarian"},
    {kRogueVoteAccuse, "vote-accuse"},
};

// One row per plan mode: its corpus name (on disk, so never renamed) and its
// hive_campaign flag. The repro line, the corpus and the CLI all read this
// table, so a mode cannot be saved or printed as a different one.
struct GeneratorModeEntry {
  GeneratorMode mode;
  const char* name;
  const char* flag;
};
constexpr GeneratorModeEntry kGeneratorModes[] = {
    {GeneratorMode::kDefault, "default", ""},
    {GeneratorMode::kWildWrite, "wild_write", "--fixture=wild_write"},
    {GeneratorMode::kNoDedup, "no_dedup", "--fixture=no_dedup"},
    {GeneratorMode::kNoHopBound, "no_hop_bound", "--fixture=no_hop_bound"},
    {GeneratorMode::kMessage, "message", "--faults=message"},
    {GeneratorMode::kRogue, "rogue", "--faults=rogue"},
    {GeneratorMode::kNone, "none", "--faults=none"},
    {GeneratorMode::kRebootStorm, "reboot_storm", "--faults=reboot-storm"},
    {GeneratorMode::kSalvage, "salvage", "--salvage"},
    {GeneratorMode::kBugNoDedup, "bug_no_dedup", "--bug=no_dedup"},
    {GeneratorMode::kBugSalvageUnchecked, "bug_salvage_unchecked", "--bug=salvage_unchecked"},
};

const GeneratorModeEntry& ModeEntry(GeneratorMode mode) {
  for (const GeneratorModeEntry& entry : kGeneratorModes) {
    if (entry.mode == mode) {
      return entry;
    }
  }
  std::abort();  // Every enumerator has a row.
}

const char* CorruptionModeName(flash::PointerCorruptionMode mode) {
  switch (mode) {
    case flash::PointerCorruptionMode::kRandomSameCell:
      return "random-same-cell";
    case flash::PointerCorruptionMode::kRandomOtherCell:
      return "random-other-cell";
    case flash::PointerCorruptionMode::kOffByOneWord:
      return "off-by-one-word";
    case flash::PointerCorruptionMode::kSelfPointing:
      return "self-pointing";
  }
  return "unknown";
}

flash::PointerCorruptionMode PickCorruptionMode(base::Rng& rng) {
  switch (rng.Below(4)) {
    case 0:
      return flash::PointerCorruptionMode::kRandomSameCell;
    case 1:
      return flash::PointerCorruptionMode::kRandomOtherCell;
    case 2:
      return flash::PointerCorruptionMode::kOffByOneWord;
    default:
      return flash::PointerCorruptionMode::kSelfPointing;
  }
}

// A message-fault plan with rates low enough that the reliable transport must
// ride it out: per-hop loss (drop + corrupt) stays well under the level where
// kMaxRpcAttempts consecutive losses become likely, so no cell may die.
FaultSpec MakeMessageFaultPlan(base::Rng& rng, int num_cells) {
  FaultSpec fault;
  fault.kind = FaultKind::kMessageFaults;
  fault.drop_pm = 10 + static_cast<uint32_t>(rng.Below(41));     // 1.0% - 5.0%
  fault.dup_pm = 10 + static_cast<uint32_t>(rng.Below(41));      // 1.0% - 5.0%
  fault.delay_pm = 20 + static_cast<uint32_t>(rng.Below(81));    // 2.0% - 10.0%
  fault.corrupt_pm = 5 + static_cast<uint32_t>(rng.Below(21));   // 0.5% - 2.5%
  fault.duration = (50 + static_cast<Time>(rng.Below(201))) * hive::kMillisecond;
  if (rng.OneIn(3)) {
    // Directed plan: one faulty route between two distinct cells.
    fault.victim = static_cast<CellId>(rng.Below(static_cast<uint64_t>(num_cells)));
    fault.target = static_cast<CellId>(
        (fault.victim + 1 + rng.Below(static_cast<uint64_t>(num_cells - 1))) % num_cells);
  } else {
    fault.victim = -1;  // All routes.
    fault.target = -1;
  }
  return fault;
}

// One rogue axis from the given category (0 clock, 1 heap, 2 rpc, 3 vote).
// As a primary axis, category 3 always includes vote-accuse: a purely
// contrarian rogue only acts when something else triggers an agreement round,
// so on its own it would be undetectable; the repeated-accusation strike rule
// gives the vote category a self-contained detection path. Babble and
// silence live in the same category so they can never be combined (a mute
// cell cannot flood anyone).
uint32_t PickRogueAxis(base::Rng& rng, int category, bool primary) {
  switch (category) {
    case 0:
      return rng.OneIn(2) ? kRogueClockFreeze : kRogueClockDrift;
    case 1:
      switch (rng.Below(4)) {
        case 0:
          return kRogueHeapScribble;
        case 1:
          return kRogueHeapBadPtr;
        case 2:
          return kRogueHeapCycle;
        default:
          return kRogueHeapTorn;
      }
    case 2:
      switch (rng.Below(3)) {
        case 0:
          return kRogueRpcBabble;
        case 1:
          return kRogueRpcGarbage;
        default:
          return kRogueRpcSilence;
      }
    default:
      if (primary) {
        return kRogueVoteAccuse | (rng.OneIn(2) ? kRogueVoteContrarian : 0u);
      }
      return rng.OneIn(2) ? kRogueVoteContrarian : kRogueVoteAccuse;
  }
}

// A rogue-cell plan: one victim turned Byzantine along a primary axis plus,
// half the time, a secondary axis from a different category. The victim,
// accusation target and injection time are drawn before the axes so the RNG
// stream stays position-stable across axis choices.
FaultSpec MakeRoguePlan(base::Rng& rng, int num_cells, uint32_t forced_axes) {
  FaultSpec fault;
  fault.kind = FaultKind::kRogueCell;
  fault.victim = static_cast<CellId>(rng.Below(static_cast<uint64_t>(num_cells)));
  fault.target = static_cast<CellId>(
      (fault.victim + 1 + rng.Below(static_cast<uint64_t>(num_cells - 1))) % num_cells);
  fault.inject_at = (30 + static_cast<Time>(rng.Below(120))) * hive::kMillisecond;
  if (forced_axes != 0) {
    fault.rogue_axes = forced_axes;
    return fault;
  }
  const int primary = static_cast<int>(rng.Below(4));
  fault.rogue_axes = PickRogueAxis(rng, primary, /*primary=*/true);
  if (rng.OneIn(2)) {
    const int secondary = (primary + 1 + static_cast<int>(rng.Below(3))) % 4;
    fault.rogue_axes |= PickRogueAxis(rng, secondary, /*primary=*/false);
  }
  return fault;
}

}  // namespace

const char* WorkloadKindName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kNone:
      return "none";
    case WorkloadKind::kPmake:
      return "pmake";
    case WorkloadKind::kRaytrace:
      return "raytrace";
    case WorkloadKind::kOcean:
      return "ocean";
    case WorkloadKind::kMixed:
      return "mixed";
  }
  return "unknown";
}

const char* FaultKindName(FaultKind kind) {
  // Exhaustive: adding a FaultKind without a name is a compile error
  // (-Werror=switch), and the trailing abort keeps the function total
  // without a silent "unknown" bucket.
  switch (kind) {
    case FaultKind::kNodeFailure:
      return "node-failure";
    case FaultKind::kAddrMapCorruption:
      return "addr-map-corruption";
    case FaultKind::kWildWrite:
      return "wild-write";
    case FaultKind::kFalseAccusation:
      return "false-accusation";
    case FaultKind::kMessageFaults:
      return "message-faults";
    case FaultKind::kRogueCell:
      return "rogue-cell";
    case FaultKind::kRebootStorm:
      return "reboot-storm";
  }
  std::abort();
}

bool FaultKindFromName(std::string_view name, FaultKind* out) {
  for (FaultKind kind : kAllFaultKinds) {
    if (name == FaultKindName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

const char* GeneratorModeName(GeneratorMode mode) { return ModeEntry(mode).name; }

const char* GeneratorModeFlag(GeneratorMode mode) { return ModeEntry(mode).flag; }

bool GeneratorModeFromName(std::string_view name, GeneratorMode* out) {
  for (const GeneratorModeEntry& entry : kGeneratorModes) {
    if (name == entry.name) {
      *out = entry.mode;
      return true;
    }
  }
  return false;
}

bool GeneratorModeFromFlag(std::string_view flag, GeneratorMode* out) {
  for (const GeneratorModeEntry& entry : kGeneratorModes) {
    if (entry.mode != GeneratorMode::kDefault && flag == entry.flag) {
      *out = entry.mode;
      return true;
    }
  }
  return false;
}

std::string RogueAxesToString(uint32_t axes) {
  std::string out;
  for (const RogueAxisEntry& entry : kRogueAxisNames) {
    if ((axes & entry.axis) == 0) {
      continue;
    }
    if (!out.empty()) {
      out += "+";
    }
    out += entry.name;
    axes &= ~static_cast<uint32_t>(entry.axis);
  }
  if (axes != 0) {
    out += out.empty() ? "?" : "+?";
  }
  return out.empty() ? "none" : out;
}

std::string FaultSpec::ToString() const {
  std::ostringstream out;
  if (kind == FaultKind::kMessageFaults) {
    out << FaultKindName(kind);
    if (victim >= 0) {
      out << " route=" << victim << "->" << target;
    } else {
      out << " route=all";
    }
    out << " drop=" << drop_pm << "pm dup=" << dup_pm << "pm delay=" << delay_pm
        << "pm corrupt=" << corrupt_pm << "pm t=" << inject_at / hive::kMillisecond
        << "ms+" << duration / hive::kMillisecond << "ms";
    return out.str();
  }
  out << FaultKindName(kind) << " victim=" << victim;
  if (kind == FaultKind::kRebootStorm) {
    out << " cycles=" << storm_cycles << " t=" << inject_at / hive::kMillisecond << "ms+"
        << duration / hive::kMillisecond << "ms";
    return out.str();
  }
  if (kind == FaultKind::kRogueCell) {
    out << " axes=" << RogueAxesToString(rogue_axes);
    if ((rogue_axes & kRogueVoteAccuse) != 0) {
      out << " target=" << target;
    }
    out << " t=" << inject_at / hive::kMillisecond << "ms";
    return out.str();
  }
  if (kind == FaultKind::kWildWrite || kind == FaultKind::kFalseAccusation) {
    out << " target=" << target;
  }
  if (kind == FaultKind::kAddrMapCorruption) {
    out << " mode=" << CorruptionModeName(mode);
  }
  out << " t=" << inject_at / hive::kMillisecond << "ms";
  return out.str();
}

int ScenarioSpec::NodeFailureCount() const {
  int count = 0;
  for (const FaultSpec& fault : faults) {
    count += fault.kind == FaultKind::kNodeFailure ? 1 : 0;
  }
  return count;
}

std::string ScenarioSpec::ToString() const {
  std::ostringstream out;
  out << "scenario " << index << " seed=0x" << std::hex << seed << std::dec
      << " cells=" << num_cells << " workload=" << WorkloadKindName(workload) << "x"
      << workload_scale << " agreement="
      << (agreement_mode == hive::AgreementMode::kOracle ? "oracle" : "voting");
  if (auto_reintegrate) {
    out << " reintegrate";
  }
  if (disable_firewall) {
    out << " FIREWALL-OFF";
  }
  if (disable_hop_bound) {
    out << " HOP-BOUND-OFF";
  }
  if (bug_no_dedup) {
    out << " BUG-NO-DEDUP";
  }
  if (salvage) {
    out << " salvage";
  }
  if (bug_salvage_unchecked) {
    out << " BUG-SALVAGE-UNCHECKED";
  }
  if (healthy_baseline) {
    out << " baseline";
  }
  out << " faults=[";
  for (size_t i = 0; i < faults.size(); ++i) {
    out << (i > 0 ? "; " : "") << faults[i].ToString();
  }
  out << "]";
  return out.str();
}

std::string ScenarioSpec::ReproLine() const {
  std::ostringstream out;
  out << "hive_campaign --seed=" << master_seed << " --scenario=" << index;
  if (mode != GeneratorMode::kDefault) {
    out << " " << GeneratorModeFlag(mode);
  }
  if (!mutation_chain.empty()) {
    out << " --mutate=" << FormatMutationChain(mutation_chain);
  }
  return out.str();
}

uint64_t DeriveScenarioSeed(uint64_t master_seed, uint64_t index) {
  // Two SplitMix64 rounds over master and index. One round is enough to
  // decorrelate neighbouring indices; the second decorrelates neighbouring
  // master seeds as well.
  uint64_t z = master_seed ^ (index * 0x9E3779B97F4A7C15ull + 0x9E3779B97F4A7C15ull);
  for (int round = 0; round < 2; ++round) {
    z += 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z = z ^ (z >> 31);
  }
  return z != 0 ? z : 1;  // Rng(0) is fine, but a zero seed reads badly in repro lines.
}

ScenarioSpec GenerateScenario(uint64_t master_seed, uint64_t index, GeneratorMode mode) {
  ScenarioSpec spec;
  spec.master_seed = master_seed;
  spec.index = index;
  spec.mode = mode;
  spec.seed = DeriveScenarioSeed(master_seed, index);
  base::Rng rng(spec.seed);

  spec.num_cells = rng.OneIn(4) ? 2 : 4;
  spec.agreement_mode =
      rng.OneIn(3) ? hive::AgreementMode::kVoting : hive::AgreementMode::kOracle;
  spec.auto_reintegrate = rng.OneIn(5);

  const uint64_t workload_roll = rng.Below(100);
  if (workload_roll < 40) {
    spec.workload = WorkloadKind::kPmake;
  } else if (workload_roll < 65) {
    spec.workload = WorkloadKind::kRaytrace;
  } else if (workload_roll < 85) {
    spec.workload = WorkloadKind::kOcean;
  } else {
    spec.workload = WorkloadKind::kMixed;
  }
  spec.workload_scale = 1 + static_cast<int>(rng.Below(2));

  if (mode == GeneratorMode::kBugNoDedup) {
    // Seeded-bug discovery mode: one cell's duplicate suppression is silently
    // broken, but the fault plan still comes from the default distribution
    // (with duplication thinned below, after the plan is drawn). Only a
    // scenario that lands duplicates on non-idempotent traffic served by the
    // buggy cell trips the at-most-once oracle. Reintegration is forced off:
    // a reboot would recreate the buggy cell's RPC layer and wipe the
    // violation counters the oracle reads.
    spec.bug_no_dedup = true;
    spec.disable_rpc_dedup = true;
    spec.auto_reintegrate = false;
  }

  if (mode == GeneratorMode::kSalvage) {
    // Salvage sweep: the default fault distribution, but recoveries salvage
    // provably-clean pages instead of discarding them. No extra RNG draws, so
    // the plan is identical to the plain sweep's scenario at the same index.
    spec.salvage = true;
  }

  if (mode == GeneratorMode::kRebootStorm) {
    // Reboot-storm family: four cells, ground-truth agreement (the family
    // stresses salvage and live rejoin, not Byzantine voting), automatic
    // reintegration with live rejoin and salvage on, and exactly one storm.
    spec.reboot_storm_only = true;
    spec.salvage = true;
    spec.num_cells = 4;
    spec.agreement_mode = hive::AgreementMode::kOracle;
    spec.auto_reintegrate = true;
    FaultSpec fault;
    fault.kind = FaultKind::kRebootStorm;
    fault.victim = static_cast<CellId>(rng.Below(static_cast<uint64_t>(spec.num_cells)));
    fault.inject_at = (30 + static_cast<Time>(rng.Below(90))) * hive::kMillisecond;
    fault.storm_cycles = 3 + static_cast<uint32_t>(rng.Below(3));
    fault.duration = 500 * hive::kMillisecond;
    spec.faults.push_back(fault);
    return spec;
  }

  if (mode == GeneratorMode::kBugSalvageUnchecked) {
    // Sensitivity fixture: salvage runs blind (no checksum re-verification).
    // The plan write-exports the target's canary page to the victim, lands a
    // wild write on it (firewall checking off so the scribble sticks), then
    // kills the victim. Blind salvage adopts the corrupt canary bytes and the
    // no-corrupt-adoption oracle must flag the scenario; with verification on
    // the same plan discards the page and stays silent.
    spec.bug_salvage_unchecked = true;
    spec.salvage = true;
    spec.disable_firewall = true;
    spec.auto_reintegrate = false;  // The corpse stays excised; the salvage log stands.
    FaultSpec wild;
    wild.kind = FaultKind::kWildWrite;
    wild.victim = static_cast<CellId>(rng.Below(static_cast<uint64_t>(spec.num_cells)));
    wild.target = static_cast<CellId>(
        (wild.victim + 1 + rng.Below(static_cast<uint64_t>(spec.num_cells - 1))) %
        spec.num_cells);
    wild.inject_at = (40 + static_cast<Time>(rng.Below(60))) * hive::kMillisecond;
    spec.faults.push_back(wild);
    FaultSpec kill;
    kill.kind = FaultKind::kNodeFailure;
    kill.victim = wild.victim;
    kill.inject_at = wild.inject_at + (30 + static_cast<Time>(rng.Below(40))) * hive::kMillisecond;
    spec.faults.push_back(kill);
    return spec;
  }

  if (mode == GeneratorMode::kWildWrite) {
    // Fixture: exactly one wild write that actually lands (firewall checking
    // off). Everything else stays deterministic from the seed.
    spec.disable_firewall = true;
    FaultSpec fault;
    fault.kind = FaultKind::kWildWrite;
    fault.victim = static_cast<CellId>(rng.Below(static_cast<uint64_t>(spec.num_cells)));
    fault.target = static_cast<CellId>(
        (fault.victim + 1 + rng.Below(static_cast<uint64_t>(spec.num_cells - 1))) %
        spec.num_cells);
    fault.inject_at = (40 + static_cast<Time>(rng.Below(60))) * hive::kMillisecond;
    spec.faults.push_back(fault);
    return spec;
  }

  if (mode == GeneratorMode::kNoDedup) {
    // Fixture: duplicate suppression off, plus one long, duplication-heavy
    // plan over all routes. The intercell traffic the runner drives through
    // the at-most-once handlers then re-executes, and the at-most-once
    // oracle must flag the scenario. Reintegration is forced off: a reboot
    // recreates the victim's RPC layer and would wipe the violation counters
    // the oracle reads.
    spec.disable_rpc_dedup = true;
    spec.auto_reintegrate = false;
    FaultSpec fault = MakeMessageFaultPlan(rng, spec.num_cells);
    fault.victim = -1;
    fault.target = -1;
    fault.drop_pm = 0;  // Pure duplication: losses would only mask the bug.
    fault.corrupt_pm = 0;
    fault.dup_pm = 350 + static_cast<uint32_t>(rng.Below(151));  // 35% - 50%
    fault.inject_at = (20 + static_cast<Time>(rng.Below(30))) * hive::kMillisecond;
    fault.duration = 300 * hive::kMillisecond;
    spec.faults.push_back(fault);
    return spec;
  }

  if (mode == GeneratorMode::kMessage) {
    // CI sweep mode: one or two message-fault windows, nothing else. The
    // transport must keep every cell alive and every mutation at-most-once.
    const int num_plans = 1 + static_cast<int>(rng.Below(2));
    for (int i = 0; i < num_plans; ++i) {
      FaultSpec fault = MakeMessageFaultPlan(rng, spec.num_cells);
      fault.inject_at = (5 + static_cast<Time>(rng.Below(395))) * hive::kMillisecond;
      spec.faults.push_back(fault);
    }
    std::sort(spec.faults.begin(), spec.faults.end(), [](const FaultSpec& a,
                                                         const FaultSpec& b) {
      return a.inject_at < b.inject_at;
    });
    return spec;
  }

  if (mode == GeneratorMode::kRogue || mode == GeneratorMode::kNone ||
      mode == GeneratorMode::kNoHopBound) {
    // Rogue-family geometry: four cells so three honest voters always outvote
    // the rogue, real voting (an oracle consulting ground truth would
    // trivialise Byzantine detection), and no reintegration (the excision
    // verdict must stand for the oracles to inspect).
    spec.num_cells = 4;
    spec.agreement_mode = hive::AgreementMode::kVoting;
    spec.auto_reintegrate = false;
    if (mode == GeneratorMode::kNone) {
      // Sensitivity baseline: identical geometry and workload, zero faults.
      // The hardened detectors must raise no excision at all.
      spec.healthy_baseline = true;
      return spec;
    }
    spec.rogue_only = true;
    uint32_t forced_axes = 0;
    if (mode == GeneratorMode::kNoHopBound) {
      // Fixture: a cyclic chain with the survivors' hop bound removed is
      // exactly the hang the bound exists to prevent; the no-survivor-hang
      // oracle must flag it.
      spec.disable_hop_bound = true;
      forced_axes = kRogueHeapCycle;
    }
    spec.faults.push_back(MakeRoguePlan(rng, spec.num_cells, forced_axes));
    return spec;
  }

  // Fault plan: one to three faults. At most half the cells take fail-stop
  // node failures so the survivor oracles always have cells to check, and at
  // most one false accusation per scenario (a second identical accusation
  // would, by design, get the accuser declared corrupt -- covered by the
  // recovery edge-case tests, not the campaign's healthy-path oracles).
  // Message faults and false accusations are never mixed: an
  // exhaustion-induced hint against the already-accused suspect would be
  // vetoed and accumulate a second voting strike against a healthy accuser,
  // which is the strike machinery working as designed, not a containment bug.
  const int max_node_failures = spec.num_cells / 2;
  const int num_faults = 1 + static_cast<int>(rng.Below(3));
  std::vector<CellId> node_fail_victims;
  bool have_accusation = false;
  bool have_message = false;
  for (int i = 0; i < num_faults; ++i) {
    FaultSpec fault;
    fault.inject_at = (5 + static_cast<Time>(rng.Below(595))) * hive::kMillisecond;
    const uint64_t roll = rng.Below(100);
    if (roll < 45 && static_cast<int>(node_fail_victims.size()) < max_node_failures) {
      fault.kind = FaultKind::kNodeFailure;
      // Distinct victims: failing a dead node is a no-op, not a new scenario.
      CellId victim;
      do {
        victim = static_cast<CellId>(rng.Below(static_cast<uint64_t>(spec.num_cells)));
      } while (std::find(node_fail_victims.begin(), node_fail_victims.end(), victim) !=
               node_fail_victims.end());
      fault.victim = victim;
      node_fail_victims.push_back(victim);
    } else if (roll < 65) {
      fault.kind = FaultKind::kAddrMapCorruption;
      fault.victim = static_cast<CellId>(rng.Below(static_cast<uint64_t>(spec.num_cells)));
      fault.mode = PickCorruptionMode(rng);
    } else if (roll < 80 || have_message || have_accusation) {
      fault.kind = FaultKind::kWildWrite;
      fault.victim = static_cast<CellId>(rng.Below(static_cast<uint64_t>(spec.num_cells)));
      fault.target = static_cast<CellId>(
          (fault.victim + 1 + rng.Below(static_cast<uint64_t>(spec.num_cells - 1))) %
          spec.num_cells);
    } else if (roll < 90) {
      const Time inject_at = fault.inject_at;
      fault = MakeMessageFaultPlan(rng, spec.num_cells);
      fault.inject_at = inject_at;
      have_message = true;
    } else {
      fault.kind = FaultKind::kFalseAccusation;
      fault.victim = static_cast<CellId>(rng.Below(static_cast<uint64_t>(spec.num_cells)));
      fault.target = static_cast<CellId>(
          (fault.victim + 1 + rng.Below(static_cast<uint64_t>(spec.num_cells - 1))) %
          spec.num_cells);
      have_accusation = true;
    }
    spec.faults.push_back(fault);
  }
  std::sort(spec.faults.begin(), spec.faults.end(),
            [](const FaultSpec& a, const FaultSpec& b) { return a.inject_at < b.inject_at; });
  if (spec.bug_no_dedup) {
    // Thin every duplicate-delivery channel to trace levels. Duplication is
    // the obvious one, but loss is just as dangerous: a lost *reply* makes
    // the client retransmit a request the server already executed, which is
    // a duplicate delivery too (and corruption degrades into loss). With
    // 10..50 per mille thinned to 0..2, a random draw rarely re-delivers a
    // non-idempotent request to the buggy cell, so exposing the seeded bug
    // takes the sustained duplicate pressure only the mutation stage builds
    // up (RedrawMessageRates pushes duplication to 45%, far past the
    // generator's envelope).
    for (FaultSpec& fault : spec.faults) {
      if (fault.kind == FaultKind::kMessageFaults) {
        fault.drop_pm = fault.drop_pm / 25;
        fault.corrupt_pm = fault.corrupt_pm / 25;
        fault.dup_pm = fault.dup_pm / 25;
      }
    }
  }
  return spec;
}

namespace {

// Structure-preserving mutation operators (see MutateScenario in the header).
enum class MutationOp {
  kJitterTime,      // Redraw one fault's injection time.
  kRetarget,        // Redraw one fault's victim (and target / route).
  kDuplicateFault,  // Copy a fault to a fresh injection time (plan grows).
  kDropFault,       // Remove one fault (plan shrinks).
  kWorkloadKind,    // Swap the workload for a different kind.
  kWorkloadScale,   // Toggle workload scale 1 <-> 2.
  kMessageRates,    // Redraw a message window's rates and duration.
  kCorruptionMode,  // Redraw an addr-map corruption mode.
  kGeometry,        // Flip 2 <-> 4 cells, re-fitting the fault plan.
};

bool HasFaultKind(const ScenarioSpec& spec, FaultKind kind) {
  for (const FaultSpec& fault : spec.faults) {
    if (fault.kind == kind) {
      return true;
    }
  }
  return false;
}

std::vector<size_t> FaultsOfKind(const ScenarioSpec& spec, FaultKind kind) {
  std::vector<size_t> indices;
  for (size_t i = 0; i < spec.faults.size(); ++i) {
    if (spec.faults[i].kind == kind) {
      indices.push_back(i);
    }
  }
  return indices;
}

// Node failures, accusations and rogues are never duplicated: re-killing a
// dead cell is a no-op, a second accusation is the two-strike path the
// generator excludes by design, and rogue sweeps expect exactly one rogue.
bool CanDuplicate(FaultKind kind) {
  return kind != FaultKind::kNodeFailure && kind != FaultKind::kFalseAccusation &&
         kind != FaultKind::kRogueCell && kind != FaultKind::kRebootStorm;
}

Time DrawInjectTime(base::Rng& rng) {
  return (5 + static_cast<Time>(rng.Below(595))) * hive::kMillisecond;
}

void RetargetFault(base::Rng& rng, ScenarioSpec& spec, size_t index) {
  FaultSpec& fault = spec.faults[index];
  const auto n = static_cast<uint64_t>(spec.num_cells);
  switch (fault.kind) {
    case FaultKind::kNodeFailure: {
      // Redraw among cells not already taken by another node failure, so
      // victims stay distinct.
      std::vector<CellId> free_cells;
      for (CellId c = 0; c < spec.num_cells; ++c) {
        bool taken = false;
        for (size_t j = 0; j < spec.faults.size(); ++j) {
          taken = taken || (j != index && spec.faults[j].kind == FaultKind::kNodeFailure &&
                            spec.faults[j].victim == c);
        }
        if (!taken) {
          free_cells.push_back(c);
        }
      }
      fault.victim = free_cells[rng.Below(free_cells.size())];
      break;
    }
    case FaultKind::kAddrMapCorruption:
    case FaultKind::kRebootStorm:
      fault.victim = static_cast<CellId>(rng.Below(n));
      break;
    case FaultKind::kMessageFaults:
      if (rng.OneIn(3)) {
        fault.victim = static_cast<CellId>(rng.Below(n));
        fault.target =
            static_cast<CellId>((fault.victim + 1 + rng.Below(n - 1)) % spec.num_cells);
      } else {
        fault.victim = -1;
        fault.target = -1;
      }
      break;
    case FaultKind::kWildWrite:
    case FaultKind::kFalseAccusation:
    case FaultKind::kRogueCell:
      fault.victim = static_cast<CellId>(rng.Below(n));
      fault.target =
          static_cast<CellId>((fault.victim + 1 + rng.Below(n - 1)) % spec.num_cells);
      break;
  }
}

// Redraws a message window's rates. The loss envelope matches the generator
// (drop + corrupt capped at 7.5% per hop, so the transport must survive), but
// duplication may climb to 45% -- an order beyond the generator's 5%.
// Duplicate pressure is the strongest gradient for transport bugs, which is
// why this operator carries double weight in the operator list.
void RedrawMessageRates(base::Rng& rng, FaultSpec& fault) {
  fault.drop_pm = static_cast<uint32_t>(rng.Below(51));
  fault.corrupt_pm = static_cast<uint32_t>(rng.Below(26));
  fault.delay_pm = 20 + static_cast<uint32_t>(rng.Below(81));
  fault.dup_pm = 10 + static_cast<uint32_t>(rng.Below(441));
  fault.duration = (50 + static_cast<Time>(rng.Below(301))) * hive::kMillisecond;
}

// Flips the cell count 2 <-> 4 and re-fits the fault plan: victims and
// targets are folded into range, targets are kept distinct from victims, and
// node failures keep distinct victims capped at half the cells (extras are
// dropped, exactly the invariant the generator maintains).
void FlipGeometry(ScenarioSpec& spec) {
  spec.num_cells = spec.num_cells == 2 ? 4 : 2;
  const auto n = static_cast<CellId>(spec.num_cells);
  std::vector<FaultSpec> kept;
  std::vector<CellId> node_victims;
  for (FaultSpec fault : spec.faults) {
    if (fault.victim >= n) {
      fault.victim = fault.victim % n;
    }
    if (fault.target >= n) {
      fault.target = fault.target % n;
    }
    const bool distinct_target = fault.kind == FaultKind::kWildWrite ||
                                 fault.kind == FaultKind::kFalseAccusation ||
                                 fault.kind == FaultKind::kRogueCell;
    if (distinct_target && fault.target == fault.victim) {
      fault.target = static_cast<CellId>((fault.victim + 1) % n);
    }
    if (fault.kind == FaultKind::kNodeFailure) {
      const bool duplicate = std::find(node_victims.begin(), node_victims.end(),
                                       fault.victim) != node_victims.end();
      if (duplicate || static_cast<int>(node_victims.size()) >= spec.num_cells / 2) {
        continue;
      }
      node_victims.push_back(fault.victim);
    }
    kept.push_back(fault);
  }
  spec.faults = kept;
}

}  // namespace

ScenarioSpec MutateScenario(const ScenarioSpec& base, uint64_t mutation_seed) {
  ScenarioSpec spec = base;
  spec.mutation_chain.push_back(mutation_seed);
  spec.seed = DeriveScenarioSeed(base.seed, mutation_seed);
  base::Rng rng(spec.seed ^ 0x6D757461746Full);

  // Applicable operators for this spec. kMessageRates appears twice when a
  // message window exists (see RedrawMessageRates).
  const bool fixed_geometry = spec.rogue_only || spec.healthy_baseline ||
                              spec.disable_hop_bound || spec.reboot_storm_only ||
                              spec.bug_salvage_unchecked;
  bool can_duplicate = false;
  if (spec.faults.size() < 4) {
    for (const FaultSpec& fault : spec.faults) {
      can_duplicate = can_duplicate || CanDuplicate(fault.kind);
    }
  }
  std::vector<MutationOp> ops;
  if (!spec.faults.empty()) {
    ops.push_back(MutationOp::kJitterTime);
    ops.push_back(MutationOp::kRetarget);
  }
  if (spec.faults.size() >= 2) {
    ops.push_back(MutationOp::kDropFault);
  }
  if (can_duplicate) {
    ops.push_back(MutationOp::kDuplicateFault);
  }
  ops.push_back(MutationOp::kWorkloadKind);
  ops.push_back(MutationOp::kWorkloadScale);
  if (HasFaultKind(spec, FaultKind::kMessageFaults)) {
    ops.push_back(MutationOp::kMessageRates);
    ops.push_back(MutationOp::kMessageRates);
  }
  if (HasFaultKind(spec, FaultKind::kAddrMapCorruption)) {
    ops.push_back(MutationOp::kCorruptionMode);
  }
  if (!fixed_geometry) {
    ops.push_back(MutationOp::kGeometry);
  }

  switch (ops[rng.Below(ops.size())]) {
    case MutationOp::kJitterTime:
      spec.faults[rng.Below(spec.faults.size())].inject_at = DrawInjectTime(rng);
      break;
    case MutationOp::kRetarget:
      RetargetFault(rng, spec, rng.Below(spec.faults.size()));
      break;
    case MutationOp::kDuplicateFault: {
      std::vector<size_t> eligible;
      for (size_t i = 0; i < spec.faults.size(); ++i) {
        if (CanDuplicate(spec.faults[i].kind)) {
          eligible.push_back(i);
        }
      }
      FaultSpec copy = spec.faults[eligible[rng.Below(eligible.size())]];
      copy.inject_at = DrawInjectTime(rng);
      spec.faults.push_back(copy);
      break;
    }
    case MutationOp::kDropFault:
      spec.faults.erase(spec.faults.begin() +
                        static_cast<ptrdiff_t>(rng.Below(spec.faults.size())));
      break;
    case MutationOp::kWorkloadKind: {
      const WorkloadKind kinds[] = {WorkloadKind::kPmake, WorkloadKind::kRaytrace,
                                    WorkloadKind::kOcean, WorkloadKind::kMixed};
      WorkloadKind pick;
      do {
        pick = kinds[rng.Below(4)];
      } while (pick == spec.workload);
      spec.workload = pick;
      break;
    }
    case MutationOp::kWorkloadScale:
      spec.workload_scale = spec.workload_scale == 1 ? 2 : 1;
      break;
    case MutationOp::kMessageRates: {
      const std::vector<size_t> windows = FaultsOfKind(spec, FaultKind::kMessageFaults);
      RedrawMessageRates(rng, spec.faults[windows[rng.Below(windows.size())]]);
      break;
    }
    case MutationOp::kCorruptionMode: {
      const std::vector<size_t> maps = FaultsOfKind(spec, FaultKind::kAddrMapCorruption);
      spec.faults[maps[rng.Below(maps.size())]].mode = PickCorruptionMode(rng);
      break;
    }
    case MutationOp::kGeometry:
      FlipGeometry(spec);
      break;
  }

  // Stable sort: equal injection times keep their pre-mutation order, so the
  // mutant is fully determined by (base, mutation_seed).
  std::stable_sort(spec.faults.begin(), spec.faults.end(),
                   [](const FaultSpec& a, const FaultSpec& b) {
                     return a.inject_at < b.inject_at;
                   });
  return spec;
}

ScenarioSpec ApplyMutationChain(const ScenarioSpec& root,
                                const std::vector<uint64_t>& chain) {
  ScenarioSpec spec = root;
  for (uint64_t mutation_seed : chain) {
    spec = MutateScenario(spec, mutation_seed);
  }
  return spec;
}

std::string FormatMutationChain(const std::vector<uint64_t>& chain) {
  std::ostringstream out;
  for (size_t i = 0; i < chain.size(); ++i) {
    out << (i > 0 ? "," : "") << chain[i];
  }
  return out.str();
}

bool ParseMutationChain(std::string_view text, std::vector<uint64_t>* out) {
  out->clear();
  uint64_t value = 0;
  bool have_digit = false;
  for (char c : text) {
    if (c == ',') {
      if (!have_digit) {
        return false;
      }
      out->push_back(value);
      value = 0;
      have_digit = false;
    } else if (c >= '0' && c <= '9') {
      value = value * 10 + static_cast<uint64_t>(c - '0');
      have_digit = true;
    } else {
      return false;
    }
  }
  if (!have_digit) {
    return false;
  }
  out->push_back(value);
  return true;
}

}  // namespace campaign
