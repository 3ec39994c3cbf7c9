#include "src/campaign/runner.h"

#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "src/base/rng.h"
#include "src/campaign/coverage.h"
#include "src/campaign/injectors.h"
#include "src/core/careful_ref.h"
#include "src/core/cell.h"
#include "src/core/failure_detection.h"
#include "src/core/recovery.h"
#include "src/core/rpc.h"
#include "src/flash/fault_injector.h"
#include "src/flash/machine.h"
#include "src/workloads/ocean.h"
#include "src/workloads/pmake.h"
#include "src/workloads/raytrace.h"
#include "src/workloads/workload.h"

namespace campaign {

flash::MachineConfig CampaignConfig(int num_cells) {
  flash::MachineConfig config;
  config.num_nodes = num_cells;
  config.cpus_per_node = 1;
  config.memory_per_node = 16ull * 1024 * 1024;
  return config;
}

namespace {

using hive::Cell;
using hive::CellId;
using hive::Ctx;
using hive::HiveOptions;
using hive::HiveSystem;
using hive::kMillisecond;
using hive::kSecond;
using hive::ProcId;

// Tiny workload parameterizations: enough traffic to populate page sharing,
// address maps and the COW tree, small enough that a scenario simulates in
// tens of milliseconds of wall time.
workloads::PmakeParams CampaignPmake(const ScenarioSpec& spec) {
  workloads::PmakeParams params;
  params.jobs = 4 * spec.workload_scale;
  params.parallelism = 4;
  params.source_bytes = 8 * 1024;
  params.output_bytes = 16 * 1024;
  params.shared_text_pages = 20;
  params.private_file_pages = 40;
  params.anon_pages = 20;
  params.scratch_pages = 2;
  params.metadata_ops = 5;
  params.compute_per_job = 150 * kMillisecond;
  params.name_seed = spec.seed;
  return params;
}

workloads::RaytraceParams CampaignRaytrace(const ScenarioSpec& spec) {
  workloads::RaytraceParams params;
  params.scene_pages = 48;
  params.blocks_per_worker = 2 * spec.workload_scale;
  params.compute_per_block = 60 * kMillisecond;
  params.result_bytes = 16 * 1024;
  params.name_seed = spec.seed + 1;
  return params;
}

workloads::OceanParams CampaignOcean(const ScenarioSpec& spec) {
  workloads::OceanParams params;
  params.grid_pages = 96;
  params.timesteps = 4 * spec.workload_scale;
  params.compute_per_step = 40 * kMillisecond;
  params.touches_per_step = 8;
  params.halo_pages = 2;
  params.name_seed = spec.seed + 2;
  return params;
}

std::string CanaryPath(CellId cell) {
  return "/campaign/canary-" + std::to_string(cell);
}

// Creates one canary file per cell (homed on that cell) and opens a
// cross-cell handle to each from the next cell over, before any fault fires.
// The cross reads also export the canary pages, so preemptive discard and
// generation bumps have real sharing state to operate on.
CanaryState SetUpCanaries(const ScenarioSpec& spec, HiveSystem& sys) {
  CanaryState canaries;
  canaries.cells.resize(static_cast<size_t>(spec.num_cells));
  for (CellId c = 0; c < spec.num_cells; ++c) {
    CanaryState::PerCell& canary = canaries.cells[static_cast<size_t>(c)];
    canary.path = CanaryPath(c);
    canary.pattern_seed = spec.seed ^ (0xC0FFEEull + static_cast<uint64_t>(c));
    canary.size = 8192;
    Cell& owner = sys.cell(c);
    Ctx octx = owner.MakeCtx();
    auto created = owner.fs().Create(
        octx, canary.path,
        workloads::PatternData(canary.pattern_seed, canary.size));
    if (!created.ok()) {
      continue;
    }
    if (spec.num_cells > 1) {
      canary.cross_reader = (c + 1) % spec.num_cells;
      Cell& reader = sys.cell(canary.cross_reader);
      Ctx rctx = reader.MakeCtx();
      auto handle = reader.fs().Open(rctx, canary.path);
      if (!handle.ok()) {
        continue;
      }
      canary.cross_handle = *handle;
      std::vector<uint8_t> warm(canary.size);
      (void)reader.fs().Read(rctx, canary.cross_handle, 0, std::span<uint8_t>(warm));
    } else {
      canary.cross_reader = c;
      canary.cross_handle = *owner.fs().Open(octx, canary.path);
    }
    canary.valid = true;
  }
  return canaries;
}

// The victim kernel scribbles over the frame caching the target's canary page
// (WildWrite). Firewall on: the victim panics -- damage contained. Firewall
// checking off (the wild-write fixture): the store lands in the target's page
// cache, its frame joins `landed_frames` and the canary oracle must flag the
// corruption.
void InjectWildWrite(const ScenarioSpec& spec, HiveSystem& sys, size_t fault_index,
                     const OnLanded& landed, std::vector<hive::PhysAddr>& landed_frames) {
  const FaultSpec& fault = spec.faults[fault_index];
  if (!sys.CellReachable(fault.victim) || !sys.CellReachable(fault.target)) {
    return;
  }
  const std::optional<hive::PhysAddr> frame =
      CachedFrame(sys.cell(fault.target), CanaryPath(fault.target), 0);
  if (!frame.has_value()) {
    return;
  }
  base::Rng garbage_rng(spec.seed ^ (0xBADull << 32) ^ fault_index);
  std::vector<uint8_t> garbage(64);
  for (uint8_t& byte : garbage) {
    byte = static_cast<uint8_t>(garbage_rng.Next());
  }
  if (spec.salvage) {
    // Salvage scenarios: the victim first takes a writable import of one
    // canary page, so the target holds a write-exported page (a discard
    // candidate with a checksum baseline) when the victim later dies. With
    // the firewall on the import must cover a *different* page than the
    // scribble below -- the grant would otherwise let the "wild" store land
    // legitimately -- and recovery salvages it because the denied scribble
    // never touched it. With checking off (--bug=salvage_unchecked) the
    // import covers the scribbled page itself, so blind adoption keeps the
    // corrupt bytes and checked adoption rejects them.
    const uint64_t import_page = spec.disable_firewall ? 0 : 1;
    Cell& writer = sys.cell(fault.victim);
    Ctx wctx = writer.MakeCtx();
    auto whandle = writer.fs().Open(wctx, CanaryPath(fault.target));
    if (whandle.ok()) {
      auto wpage = writer.fs().GetPage(wctx, *whandle, import_page, /*want_write=*/true,
                                       hive::FileSystem::AccessPath::kSyscall);
      if (wpage.ok()) {
        writer.fs().ReleasePage(wctx, *wpage);
      }
    }
  }
  landed();
  if (WildWrite(sys, fault.victim, fault.target, *frame + 128, garbage)) {
    landed_frames.push_back(*frame);
  }
}

// The storm's next victim and inter-kill gap, from its own deterministic
// stream. One gap in three is short enough (1 ms) to land the next kill
// inside the prior victim's warm-rejoin window, exercising a membership
// change during live rejoin.
std::pair<CellId, Time> DrawStormKill(const ScenarioSpec& spec, size_t fault_index,
                                      uint32_t cycle, CellId victim) {
  base::Rng rng(spec.seed ^ (0x5706ull << 32) ^ (static_cast<uint64_t>(fault_index) << 8) ^
                cycle);
  const CellId n = static_cast<CellId>(spec.num_cells);
  const CellId next = static_cast<CellId>(
      (victim + 1 + static_cast<CellId>(rng.Below(static_cast<uint64_t>(n - 1)))) % n);
  const Time gap =
      rng.OneIn(3) ? 1 * kMillisecond : static_cast<Time>(20 + rng.Below(80)) * kMillisecond;
  return {next, gap};
}

// Periodic careful-reference walks of every other live cell's published probe
// structures (bounded chain chase + seqlock read). Corruption planted by a
// rogue surfaces here as a kCarefulCheckFailed hint with structural evidence
// that agreement voters re-walk themselves. In the no-hop-bound fixture the
// chase runs with the bound effectively removed and cycle detection off, so a
// cyclic chain racks up the hop count the no-survivor-hang oracle flags.
void ProbeRemoteStructures(HiveSystem& sys, bool no_hop_bound, Time until) {
  const int max_hops = no_hop_bound ? 4096 : 16;
  for (CellId c = 0; c < sys.num_cells(); ++c) {
    if (!sys.CellReachable(c) || sys.cell(c).in_recovery()) {
      continue;
    }
    Cell& prober = sys.cell(c);
    for (CellId peer = 0; peer < sys.num_cells(); ++peer) {
      if (peer == c || !sys.CellReachable(peer) || sys.cell(peer).in_recovery()) {
        continue;
      }
      Cell& suspect = sys.cell(peer);
      const hive::PhysAddr head = suspect.chain_head_addr();
      if (head == 0) {
        continue;
      }
      Ctx ctx = prober.MakeCtx();
      hive::CarefulRef careful(&ctx, &prober.machine().mem(), prober.costs(), peer,
                               suspect.mem_base(), suspect.mem_size());
      auto walk = careful.ChaseChain(head, hive::kTagChainNode, max_hops,
                                     /*detect_cycles=*/!no_hop_bound);
      prober.detector().NoteTraversal(careful.last_chain_hops());
      if (!walk.ok()) {
        hive::HintEvidence evidence;
        evidence.structure = hive::EvidenceStructure::kChain;
        evidence.structure_addr = head;
        prober.detector().RaiseHintWithEvidence(
            ctx, peer, hive::HintReason::kCarefulCheckFailed, evidence);
        continue;
      }
      const hive::PhysAddr block = suspect.seq_block_addr();
      if (block == 0) {
        continue;
      }
      auto snap = careful.ReadSeqlocked(block, hive::kTagSeqBlock, /*max_retries=*/3);
      if (!snap.ok() || snap->word1 != ~snap->word0) {
        hive::HintEvidence evidence;
        evidence.structure = hive::EvidenceStructure::kSeqBlock;
        evidence.structure_addr = block;
        prober.detector().RaiseHintWithEvidence(
            ctx, peer, hive::HintReason::kCarefulCheckFailed, evidence);
      }
    }
  }
  if (sys.machine().Now() + 15 * kMillisecond <= until) {
    sys.machine().events().ScheduleAfter(15 * kMillisecond, [&sys, no_hop_bound, until] {
      ProbeRemoteStructures(sys, no_hop_bound, until);
    });
  }
}

uint64_t ComputeFingerprint(const ScenarioResult& result, HiveSystem& sys) {
  uint64_t hash = kFnvOffsetBasis;
  hash = FnvMix(hash, result.spec.seed);
  hash = FnvMix(hash, static_cast<uint64_t>(result.end_time));
  hash = FnvMixCellStates(hash, sys);
  for (bool landed : result.injected) {
    hash = FnvMix(hash, landed ? 1u : 0u);
  }
  hash = FnvMix(hash, static_cast<uint64_t>(sys.recovery().recoveries_run()));
  hash = FnvMix(hash, static_cast<uint64_t>(result.corrupt_outputs + 1));
  for (const OracleViolation& violation : result.violations) {
    hash = FnvMixString(hash, violation.ToString());
  }
  return hash;
}

}  // namespace

std::string ScenarioResult::Summary() const {
  std::ostringstream out;
  out << (violated() ? "VIOLATION" : "ok") << " " << spec.ToString()
      << " excisions=" << excisions << " fingerprint=0x" << std::hex << fingerprint
      << std::dec;
  return out.str();
}

std::string ScenarioResult::ViolationReport() const {
  std::ostringstream out;
  out << "containment violation in scenario " << spec.index << ":\n";
  out << "  " << spec.ToString() << "\n";
  for (const OracleViolation& violation : violations) {
    out << "  - " << violation.ToString() << "\n";
  }
  out << "  repro: " << spec.ReproLine() << "\n";
  return out.str();
}

ScenarioResult RunScenario(const ScenarioSpec& spec) {
  ScenarioResult result;
  result.spec = spec;

  flash::Machine machine(CampaignConfig(spec.num_cells), spec.seed);
  HiveOptions options;
  options.num_cells = spec.num_cells;
  options.agreement_mode = spec.agreement_mode;
  options.auto_reintegrate = spec.auto_reintegrate;
  options.salvage_pages = spec.salvage;
  options.salvage_verify = !spec.bug_salvage_unchecked;
  options.live_rejoin = spec.reboot_storm_only;
  HiveSystem sys(&machine, options);
  sys.Boot();
  if (spec.disable_firewall) {
    machine.firewall().set_checking_enabled(false);
  }
  if (spec.bug_no_dedup) {
    // Seeded-bug mode: suppression is broken on exactly one cell, so only
    // duplicates landing on that cell's non-idempotent traffic are symptoms.
    if (spec.num_cells > kBugNoDedupCell) {
      sys.cell(kBugNoDedupCell).rpc().set_duplicate_suppression(false);
    }
  } else if (spec.disable_rpc_dedup) {
    for (CellId c = 0; c < spec.num_cells; ++c) {
      sys.cell(c).rpc().set_duplicate_suppression(false);
    }
  }

  CanaryState canaries = SetUpCanaries(spec, sys);

  // Workloads. Setup happens before any fault can fire (earliest inject_at is
  // 5 ms of simulated time; setup charges no event-queue delay).
  std::unique_ptr<workloads::PmakeWorkload> pmake;
  std::unique_ptr<workloads::RaytraceWorkload> raytrace;
  std::unique_ptr<workloads::OceanWorkload> ocean;
  std::vector<ProcId> pids;
  const bool want_pmake =
      spec.workload == WorkloadKind::kPmake || spec.workload == WorkloadKind::kMixed;
  const bool want_raytrace =
      spec.workload == WorkloadKind::kRaytrace || spec.workload == WorkloadKind::kMixed;
  if (want_pmake) {
    pmake = std::make_unique<workloads::PmakeWorkload>(&sys, CampaignPmake(spec));
    pmake->Setup();
    auto started = pmake->Start();
    pids.insert(pids.end(), started.begin(), started.end());
  }
  if (want_raytrace) {
    raytrace = std::make_unique<workloads::RaytraceWorkload>(&sys, CampaignRaytrace(spec));
    auto started = raytrace->Start();
    pids.insert(pids.end(), started.begin(), started.end());
  }
  if (spec.workload == WorkloadKind::kOcean) {
    ocean = std::make_unique<workloads::OceanWorkload>(&sys, CampaignOcean(spec));
    ocean->Setup();
    auto started = ocean->Start();
    pids.insert(pids.end(), started.begin(), started.end());
  }

  // Schedule the fault plan: one event per fault at its injection time (a
  // message-fault plan is installed right away instead).
  result.injected.assign(spec.faults.size(), false);
  // Frames where an injected wild write actually landed (firewall checking
  // off). The salvage-containment oracle asserts none of them was salvaged.
  std::vector<hive::PhysAddr> wild_write_frames;
  Time last_inject = 0;
  Time probe_until = 0;
  for (size_t i = 0; i < spec.faults.size(); ++i) {
    const FaultSpec& fault = spec.faults[i];
    const OnLanded landed = [&result, i] { result.injected[i] = true; };
    last_inject = std::max(last_inject, fault.inject_at);
    flash::EventFn inject;
    switch (fault.kind) {
      case FaultKind::kNodeFailure:
        inject = [&sys, &fault, landed] {
          FailCellNode(sys, fault.victim);
          landed();
        };
        break;
      case FaultKind::kAddrMapCorruption:
        // Gives up 400 ms after the nominal injection time (the fault is then
        // recorded as not landed).
        inject = [&sys, &spec, &fault, i, landed] {
          CorruptPointerWhenFound(sys, fault.victim, spec.seed ^ i, fault.mode,
                                  fault.inject_at + 400 * kMillisecond, AddrMapNextPointer,
                                  landed);
        };
        break;
      case FaultKind::kWildWrite:
        inject = [&sys, &spec, i, landed, &wild_write_frames] {
          InjectWildWrite(spec, sys, i, landed, wild_write_frames);
        };
        break;
      case FaultKind::kFalseAccusation:
        inject = [&sys, &fault, landed] {
          if (FalseAccusation(sys, fault.victim, fault.target)) {
            landed();
          }
        };
        break;
      case FaultKind::kMessageFaults: {
        // Plans are evaluated by send time, so the plan goes in at setup and
        // lands at once. victim/target of -1 match every route.
        flash::MessageFaultPlan plan;
        plan.start = fault.inject_at;
        plan.end = fault.inject_at + fault.duration;
        plan.drop_pm = fault.drop_pm;
        plan.dup_pm = fault.dup_pm;
        plan.delay_pm = fault.delay_pm;
        plan.corrupt_pm = fault.corrupt_pm;
        plan.src_node = fault.victim >= 0 ? sys.cell(fault.victim).first_node() : -1;
        plan.dst_node = fault.target >= 0 ? sys.cell(fault.target).first_node() : -1;
        InstallMessageFaults(sys, spec.seed, plan);
        landed();
        last_inject = std::max(last_inject, fault.inject_at + fault.duration);
        probe_until = std::max(probe_until, fault.inject_at + fault.duration);
        break;
      }
      case FaultKind::kRogueCell:
        inject = [&sys, &spec, &fault, i, landed] {
          if (TurnRogue(sys, fault.victim, fault.target, fault.rogue_axes, spec.seed, i,
                        fault.inject_at + spec.settle_ns)) {
            landed();
          }
        };
        break;
      case FaultKind::kRebootStorm:
        inject = [&sys, &spec, &fault, i, landed] {
          RunRebootStorm(
              sys, fault.victim, fault.storm_cycles, fault.inject_at + fault.duration,
              [&spec, i](uint32_t cycle, CellId victim) {
                return DrawStormKill(spec, i, cycle, victim);
              },
              landed);
        };
        last_inject = std::max(last_inject, fault.inject_at + fault.duration);
        break;
    }
    if (inject) {
      machine.events().ScheduleAt(fault.inject_at, std::move(inject));
    }
  }
  if (spec.rogue_only || spec.healthy_baseline) {
    // Publish the probe structures every survivor walks, then start the
    // heartbeat and structure probers. The healthy baseline runs the same
    // detectors over the same structures with no fault injected, proving
    // they raise no excision on their own (the sensitivity check).
    for (CellId c = 0; c < spec.num_cells; ++c) {
      sys.cell(c).PublishProbeStructures();
    }
    const Time drivers_until = last_inject + spec.settle_ns;
    machine.events().ScheduleAt(10 * kMillisecond, [&sys, drivers_until] {
      DriveHeartbeats(sys, drivers_until);
    });
    machine.events().ScheduleAt(15 * kMillisecond, [&sys, &spec, drivers_until] {
      ProbeRemoteStructures(sys, spec.disable_hop_bound, drivers_until);
    });
  }
  if (probe_until > 0) {
    // Message-fault scenarios: the workloads' own RPC mix is bursty and can
    // quiesce before a fault window opens; without steady probe traffic the
    // at-most-once and liveness oracles would pass vacuously. Keep probing a
    // few quiet rounds past the last fault window so retry exhaustion tails
    // and quarantine probation can resolve.
    probe_until += 50 * kMillisecond;
    machine.events().ScheduleAt(5 * kMillisecond, [&sys, probe_until] {
      ProbeIntercellRpc(sys, 5 * kMillisecond, probe_until);
    });
  }

  // Run the workload (bounded), then settle long enough after the last
  // injection for clock monitoring, agreement and recovery to finish.
  if (!pids.empty()) {
    (void)sys.RunUntilDone(pids, 60 * kSecond);
  }
  machine.RunUntil(std::max(machine.Now(), last_inject) + spec.settle_ns);
  result.end_time = machine.Now();
  result.events_run = machine.events().total_run();

  // Output validation: each validator already skips dead cells and
  // unfinished jobs, but a dead pmake file server would count every output
  // as missing -- skip validation entirely in that case.
  int corrupt = -1;
  if (pmake != nullptr && sys.cell(CampaignPmake(spec).file_server).alive()) {
    corrupt = pmake->ValidateOutputs();
  }
  if (raytrace != nullptr) {
    const int tiles = raytrace->ValidateOutputs();
    corrupt = corrupt < 0 ? tiles : corrupt + tiles;
  }
  result.corrupt_outputs = corrupt;
  for (CellId c = 0; c < spec.num_cells; ++c) {
    result.excisions += sys.CellConfirmedFailed(c) ? 1 : 0;
  }
  result.pages_salvaged = static_cast<int>(sys.recovery().salvage_log().size());

  OracleInput input;
  input.spec = &spec;
  input.system = &sys;
  input.canaries = &canaries;
  input.injected = result.injected;
  input.corrupt_outputs = corrupt;
  input.wild_write_frames = wild_write_frames;
  result.violations = CheckAllOracles(input);

  result.fingerprint = ComputeFingerprint(result, sys);
  result.trace_signature = ComputeTraceSignature(sys);
  result.coverage = ExtractCoverage(sys, result.violations);
  return result;
}

}  // namespace campaign
