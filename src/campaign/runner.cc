#include "src/campaign/runner.h"

#include <functional>
#include <memory>
#include <sstream>

#include "src/base/rng.h"
#include "src/campaign/coverage.h"
#include "src/core/address_space.h"
#include "src/core/careful_ref.h"
#include "src/core/cell.h"
#include "src/core/failure_detection.h"
#include "src/core/kernel_heap.h"
#include "src/core/process.h"
#include "src/core/recovery.h"
#include "src/core/rpc.h"
#include "src/core/scheduler.h"
#include "src/flash/fault_injector.h"
#include "src/flash/machine.h"
#include "src/flash/sips.h"
#include "src/workloads/ocean.h"
#include "src/workloads/pmake.h"
#include "src/workloads/raytrace.h"
#include "src/workloads/workload.h"

namespace campaign {
namespace {

using hive::Cell;
using hive::CellId;
using hive::Ctx;
using hive::HiveOptions;
using hive::HiveSystem;
using hive::kMillisecond;
using hive::kSecond;
using hive::ProcId;

// Scenario machines are deliberately small: detection and containment do not
// depend on memory size, and a campaign runs hundreds of these.
flash::MachineConfig CampaignConfig(int num_cells) {
  flash::MachineConfig config;
  config.num_nodes = num_cells;
  config.cpus_per_node = 1;
  config.memory_per_node = 16ull * 1024 * 1024;
  return config;
}

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

// State shared between the runner and the scheduled injection callbacks.
struct InjectionState {
  HiveSystem* sys = nullptr;
  const ScenarioSpec* spec = nullptr;
  std::vector<bool> injected;
  // Frames where an injected wild write actually landed (firewall checking
  // off). The salvage-containment oracle asserts none of them was salvaged.
  std::vector<hive::PhysAddr> wild_write_frames;
};

void InjectNodeFailure(InjectionState& state, size_t fault_index) {
  const FaultSpec& fault = state.spec->faults[fault_index];
  state.sys->machine().FailNode(state.sys->cell(fault.victim).first_node());
  state.injected[fault_index] = true;
}

// Corrupts an address-map next pointer of some process on the victim cell.
// Retries every 10 ms until a process has built a map; gives up 400 ms after
// the nominal injection time (the fault is then recorded as not landed).
void TryAddrMapCorruption(const std::shared_ptr<InjectionState>& state,
                          size_t fault_index, Time give_up) {
  const FaultSpec& fault = state->spec->faults[fault_index];
  HiveSystem& sys = *state->sys;
  Cell& victim = sys.cell(fault.victim);
  // Reachable = kernel up AND hardware alive; a node-failure victim stays
  // alive() until agreement confirms, but its memory is already gone.
  if (!sys.CellReachable(fault.victim)) {
    return;  // Already dead (earlier fault); corrupting it adds nothing.
  }
  for (hive::Process* proc : victim.sched().AllProcesses()) {
    if (proc->finished()) {
      continue;
    }
    Ctx ctx = victim.MakeCtx();
    auto regions = proc->address_space().ListRegions(ctx);
    if (regions.size() < 2) {
      continue;
    }
    flash::FaultInjector injector(&sys.machine(), state->spec->seed ^ fault_index);
    Cell& other = sys.cell((fault.victim + 1) % sys.num_cells());
    injector.CorruptPointer(
        regions[0].entry_addr + hive::AddrMapEntryLayout::kNext, fault.mode,
        victim.mem_base(), victim.mem_size(), other.mem_base(), other.mem_size());
    state->injected[fault_index] = true;
    return;
  }
  if (sys.machine().Now() < give_up) {
    sys.machine().events().ScheduleAfter(10 * kMillisecond, [state, fault_index, give_up] {
      TryAddrMapCorruption(state, fault_index, give_up);
    });
  }
}

// The victim kernel computes a bogus address inside the target cell's memory
// (here: the frame caching the target's canary page) and stores through the
// checked hardware path. Firewall on: the store is denied, the bus error
// panics the victim -- damage contained. Firewall checking off (the
// wild-write fixture): the store lands in the target's page cache and the
// canary oracle must flag the corruption.
void InjectWildWrite(InjectionState& state, size_t fault_index) {
  const FaultSpec& fault = state.spec->faults[fault_index];
  HiveSystem& sys = *state.sys;
  Cell& writer = sys.cell(fault.victim);
  Cell& target = sys.cell(fault.target);
  if (!sys.CellReachable(fault.victim) || !sys.CellReachable(fault.target)) {
    return;
  }
  // Materialize the target's canary page in its page cache so the scribble
  // has a live frame to hit (a read-only lookup by the target itself).
  Ctx tctx = target.MakeCtx();
  auto handle = target.fs().Open(tctx, CanaryPath(fault.target));
  if (!handle.ok()) {
    return;
  }
  auto page = target.fs().GetPage(tctx, *handle, 0, /*want_write=*/false,
                                  hive::FileSystem::AccessPath::kSyscall);
  if (!page.ok()) {
    return;
  }
  base::Rng garbage_rng(state.spec->seed ^ (0xBADull << 32) ^ fault_index);
  std::vector<uint8_t> garbage(64);
  for (uint8_t& byte : garbage) {
    byte = static_cast<uint8_t>(garbage_rng.Next());
  }
  if (state.spec->salvage) {
    // Salvage scenarios: the victim first takes a writable import of one
    // canary page, so the target holds a write-exported page (a discard
    // candidate with a checksum baseline) when the victim later dies. With
    // the firewall on the import must cover a *different* page than the
    // scribble below -- the grant would otherwise let the "wild" store land
    // legitimately -- and recovery salvages it because the denied scribble
    // never touched it. With checking off (--bug=salvage_unchecked) the
    // import covers the scribbled page itself, so blind adoption keeps the
    // corrupt bytes and checked adoption rejects them.
    const uint64_t import_page = state.spec->disable_firewall ? 0 : 1;
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
  const int writer_cpu = sys.machine().FirstCpuOfNode(writer.first_node());
  state.injected[fault_index] = true;
  try {
    sys.machine().mem().Write(writer_cpu, (*page)->frame + 128, garbage);
    state.wild_write_frames.push_back((*page)->frame);
    // hive-lint: allow(R3): injected wild write from the fault harness; the firewall trap is converted into the victim kernel's panic, as section 4.1 prescribes.
  } catch (const flash::BusError&) {
    std::ostringstream reason;
    reason << "wild write into cell " << fault.target << " denied by firewall";
    writer.Panic(reason.str());
  }
}

// Seed-driven repeated kill/rejoin cycles of rotating victims. Each cycle
// fails the current victim's node, then polls until auto-reintegration has
// restored the node and rebooted the kernel, then draws the next victim and
// inter-kill gap from the storm's own deterministic stream. One gap in three
// is short enough (1 ms) to land the next kill inside the prior victim's
// warm-rejoin window, exercising a membership change during live rejoin.
void DriveRebootStorm(const std::shared_ptr<InjectionState>& state, size_t fault_index,
                      uint32_t cycle, CellId victim, Time until);

// Polls every 2 ms until the cycle's victim is a live, unconfirmed-failed,
// not-in-recovery member again (or the storm window closes), then schedules
// the next kill cycle.
void WaitForStormRejoin(const std::shared_ptr<InjectionState>& state, size_t fault_index,
                        uint32_t cycle, CellId victim, Time until) {
  HiveSystem& sys = *state->sys;
  if (sys.machine().Now() >= until) {
    return;
  }
  if (!sys.CellReachable(victim) || sys.CellConfirmedFailed(victim) ||
      sys.cell(victim).in_recovery()) {
    sys.machine().events().ScheduleAfter(
        2 * kMillisecond, [state, fault_index, cycle, victim, until] {
          WaitForStormRejoin(state, fault_index, cycle, victim, until);
        });
    return;
  }
  base::Rng rng(state->spec->seed ^ (0x5706ull << 32) ^
                (static_cast<uint64_t>(fault_index) << 8) ^ cycle);
  const CellId n = static_cast<CellId>(sys.num_cells());
  const CellId next = static_cast<CellId>(
      (victim + 1 + static_cast<CellId>(rng.Below(static_cast<uint64_t>(n - 1)))) % n);
  const Time gap =
      rng.OneIn(3) ? 1 * kMillisecond : static_cast<Time>(20 + rng.Below(80)) * kMillisecond;
  sys.machine().events().ScheduleAfter(gap, [state, fault_index, cycle, next, until] {
    DriveRebootStorm(state, fault_index, cycle + 1, next, until);
  });
}

void DriveRebootStorm(const std::shared_ptr<InjectionState>& state, size_t fault_index,
                      uint32_t cycle, CellId victim, Time until) {
  const FaultSpec& fault = state->spec->faults[fault_index];
  HiveSystem& sys = *state->sys;
  if (cycle >= fault.storm_cycles || sys.machine().Now() >= until) {
    return;
  }
  // Hold the kill while the victim is unreachable or mid-recovery, and keep
  // at least two survivors after the kill so a recovery master exists.
  if (!sys.CellReachable(victim) || sys.cell(victim).in_recovery() ||
      sys.LiveCells().size() < 3) {
    sys.machine().events().ScheduleAfter(
        2 * kMillisecond, [state, fault_index, cycle, victim, until] {
          DriveRebootStorm(state, fault_index, cycle, victim, until);
        });
    return;
  }
  sys.machine().FailNode(sys.cell(victim).first_node());
  state->injected[fault_index] = true;
  WaitForStormRejoin(state, fault_index, cycle, victim, until);
}

// Installs one time-windowed message-fault plan on the SIPS substrate. Plans
// are evaluated by send time, so installation happens at scenario setup; the
// fault is recorded as landed immediately (the window is guaranteed active).
void InstallMessageFaultPlan(InjectionState& state, size_t fault_index) {
  const FaultSpec& fault = state.spec->faults[fault_index];
  HiveSystem& sys = *state.sys;
  flash::Sips& sips = sys.machine().sips();
  if (sips.fault_model() == nullptr) {
    sips.EnableFaultModel(state.spec->seed ^ 0x6D7367666Cull);
  }
  flash::MessageFaultPlan plan;
  plan.start = fault.inject_at;
  plan.end = fault.inject_at + fault.duration;
  plan.drop_pm = fault.drop_pm;
  plan.dup_pm = fault.dup_pm;
  plan.delay_pm = fault.delay_pm;
  plan.corrupt_pm = fault.corrupt_pm;
  // Delayed lines stay well under the RPC spin window (50 us): delay models
  // a non-minimal route, not a partition.
  plan.delay_max_ns = 30 * hive::kMicrosecond;
  plan.src_node = fault.victim >= 0 ? sys.cell(fault.victim).first_node() : -1;
  plan.dst_node = fault.target >= 0 ? sys.cell(fault.target).first_node() : -1;
  sips.fault_model()->AddPlan(plan);
  state.injected[fault_index] = true;
}

// Drives a steady stream of non-idempotent intercell RPCs (borrow one frame
// from the neighbor cell, then return it) for message-fault scenarios. The
// workloads' own RPC mix is bursty and can quiesce before a fault window
// opens; without this traffic the at-most-once and liveness oracles would
// pass vacuously.
void ProbeIntercellRpc(const std::shared_ptr<InjectionState>& state, Time until) {
  HiveSystem& sys = *state->sys;
  const int n = sys.num_cells();
  for (CellId c = 0; c < n; ++c) {
    const CellId peer = (c + 1) % n;
    if (peer == c || !sys.CellReachable(c) || !sys.CellReachable(peer)) {
      continue;
    }
    Cell& cell = sys.cell(c);
    if (cell.in_recovery() || sys.cell(peer).in_recovery()) {
      continue;
    }
    Ctx ctx = cell.MakeCtx();
    hive::RpcArgs borrow;
    borrow.w[0] = static_cast<uint64_t>(c);
    borrow.w[1] = 1;
    hive::RpcReply frames;
    const base::Status status =
        cell.rpc().Call(ctx, peer, hive::MsgType::kBorrowFrames, borrow, &frames);
    if (status.ok() && frames.w[0] >= 1) {
      hive::RpcArgs give_back;
      give_back.w[0] = static_cast<uint64_t>(c);
      give_back.w[1] = frames.w[1];
      hive::RpcReply ignored;
      (void)cell.rpc().Call(ctx, peer, hive::MsgType::kReturnFrame, give_back, &ignored);
    }
  }
  if (sys.machine().Now() + 5 * kMillisecond <= until) {
    sys.machine().events().ScheduleAfter(
        5 * kMillisecond, [state, until] { ProbeIntercellRpc(state, until); });
  }
}

// ---------------------------------------------------------------------------
// Rogue-cell fault family.
// ---------------------------------------------------------------------------

// The rogue keeps flooding every peer with null requests until it is excised
// (or the scenario window closes). Bursts are interleaved across peers so all
// survivors cross the babble threshold nearly together and can corroborate
// each other's kBabbling evidence from their own incoming-rate counters.
void DriveRogueBabble(const std::shared_ptr<InjectionState>& state, CellId rogue,
                      Time until) {
  HiveSystem& sys = *state->sys;
  if (!sys.CellReachable(rogue) || sys.CellConfirmedFailed(rogue)) {
    return;
  }
  Cell& cell = sys.cell(rogue);
  for (CellId peer = 0; peer < sys.num_cells(); ++peer) {
    if (peer == rogue || !sys.CellReachable(peer)) {
      continue;
    }
    for (int burst = 0; burst < 30; ++burst) {
      if (!sys.CellReachable(rogue) || sys.CellConfirmedFailed(rogue)) {
        return;  // Excised mid-flood by a peer's babble throttle.
      }
      Ctx ctx = cell.MakeCtx();
      hive::RpcArgs args;
      hive::RpcReply reply;
      (void)cell.rpc().Call(ctx, peer, hive::MsgType::kNull, args, &reply);
    }
  }
  if (sys.machine().Now() + kMillisecond <= until) {
    sys.machine().events().ScheduleAfter(kMillisecond, [state, rogue, until] {
      DriveRogueBabble(state, rogue, until);
    });
  }
}

// The rogue repeatedly accuses the same healthy cell. Voting refuses to kill
// the accused both times, and the second voted-down alert turns the strike
// counter against the rogue itself (paper section 4.3).
void DriveRogueAccusations(const std::shared_ptr<InjectionState>& state, CellId rogue,
                           CellId target, Time until) {
  HiveSystem& sys = *state->sys;
  if (!sys.CellReachable(rogue) || sys.CellConfirmedFailed(rogue)) {
    return;
  }
  if (sys.CellReachable(target)) {
    Ctx ctx = sys.cell(rogue).MakeCtx();
    sys.HandleAlert(ctx, rogue, target, hive::HintReason::kRpcTimeout);
  }
  if (sys.machine().Now() + 30 * kMillisecond <= until) {
    sys.machine().events().ScheduleAfter(30 * kMillisecond, [state, rogue, target, until] {
      DriveRogueAccusations(state, rogue, target, until);
    });
  }
}

// Periodic null-RPC heartbeats between every pair of live cells (rogue-family
// scenarios only). A mute rogue surfaces as retry exhaustion (kRpcTimeout
// hints come from the transport itself); a garbling rogue surfaces here, when
// a reply that must be all-zero comes back with garbage payload words.
void DriveHeartbeats(const std::shared_ptr<InjectionState>& state, Time until) {
  HiveSystem& sys = *state->sys;
  for (CellId c = 0; c < sys.num_cells(); ++c) {
    if (!sys.CellReachable(c) || sys.cell(c).in_recovery()) {
      continue;
    }
    Cell& cell = sys.cell(c);
    for (CellId peer = 0; peer < sys.num_cells(); ++peer) {
      if (peer == c || !sys.CellReachable(peer) || sys.cell(peer).in_recovery()) {
        continue;
      }
      Ctx ctx = cell.MakeCtx();
      hive::RpcArgs args;
      hive::RpcReply reply;
      const base::Status status =
          cell.rpc().Call(ctx, peer, hive::MsgType::kNull, args, &reply);
      if (!status.ok()) {
        continue;  // Timeout path already raised its own hint.
      }
      bool garbage = false;
      for (uint64_t word : reply.w) {
        garbage = garbage || word != 0;
      }
      if (garbage) {
        hive::HintEvidence evidence;
        evidence.structure = hive::EvidenceStructure::kRpcReply;
        cell.detector().RaiseHintWithEvidence(ctx, peer,
                                              hive::HintReason::kInvariantMismatch,
                                              evidence);
      }
    }
  }
  if (sys.machine().Now() + 20 * kMillisecond <= until) {
    sys.machine().events().ScheduleAfter(
        20 * kMillisecond, [state, until] { DriveHeartbeats(state, until); });
  }
}

// Periodic careful-reference walks of every other live cell's published probe
// structures (bounded chain chase + seqlock read). Corruption planted by a
// rogue surfaces here as a kCarefulCheckFailed hint with structural evidence
// that agreement voters re-walk themselves. In the no-hop-bound fixture the
// chase runs with the bound effectively removed and cycle detection off, so a
// cyclic chain racks up the hop count the no-survivor-hang oracle flags.
void ProbeRemoteStructures(const std::shared_ptr<InjectionState>& state, Time until) {
  HiveSystem& sys = *state->sys;
  const bool no_hop_bound = state->spec->disable_hop_bound;
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
    sys.machine().events().ScheduleAfter(
        15 * kMillisecond, [state, until] { ProbeRemoteStructures(state, until); });
  }
}

// Turns the victim Byzantine: behaviour flags for the clock / RPC / vote axes
// and raw-path corruption of the victim's own published probe structures for
// the heap axes (a cell's own bug scribbling its own memory -- damage to
// others can only flow through checked reads of that memory). Babbling and
// repeated accusations need ongoing activity, so they run as drivers.
void InjectRogue(const std::shared_ptr<InjectionState>& state, size_t fault_index,
                 Time drive_until) {
  const FaultSpec& fault = state->spec->faults[fault_index];
  HiveSystem& sys = *state->sys;
  if (!sys.CellReachable(fault.victim)) {
    return;
  }
  Cell& victim = sys.cell(fault.victim);
  const uint32_t axes = fault.rogue_axes;

  hive::RogueBehavior behavior;
  behavior.active = true;
  behavior.clock_freeze = (axes & kRogueClockFreeze) != 0;
  behavior.clock_drift = (axes & kRogueClockDrift) != 0;
  behavior.rpc_silent = (axes & kRogueRpcSilence) != 0;
  behavior.rpc_garbage = (axes & kRogueRpcGarbage) != 0;
  behavior.vote_contrarian = (axes & kRogueVoteContrarian) != 0;
  behavior.garbage_seed = state->spec->seed ^ (0x90609ull << 32) ^ fault_index;
  victim.SetRogueBehavior(behavior);

  const uint32_t heap_axes =
      kRogueHeapScribble | kRogueHeapBadPtr | kRogueHeapCycle | kRogueHeapTorn;
  if ((axes & heap_axes) != 0) {
    flash::FaultInjector injector(&sys.machine(),
                                  state->spec->seed ^ (0xBADull << 32) ^ fault_index);
    const std::vector<hive::PhysAddr>& nodes = victim.chain_node_addrs();
    if ((axes & kRogueHeapScribble) != 0 && nodes.size() > 1) {
      // Scribble the second node's type tag: the walk passes the head, then
      // the careful reference protocol's tag check must refuse the node.
      injector.CorruptTypeTag(nodes[1] - hive::KernelHeap::kHeaderSize + 4, 0xDEADBEEFu);
    }
    if ((axes & kRogueHeapBadPtr) != 0 && !nodes.empty()) {
      // Bend the head's next pointer into another cell's range: the chase
      // must refuse to follow a pointer outside the suspect's memory.
      injector.WriteWord(nodes[0] + 8, sys.cell(fault.target).mem_base() + 64);
    }
    if ((axes & kRogueHeapCycle) != 0 && !nodes.empty()) {
      injector.WriteWord(nodes.back() + 8, victim.chain_head_addr());
    }
    if ((axes & kRogueHeapTorn) != 0 && victim.seq_block_addr() != 0) {
      // A writer died mid-update: odd sequence word plus a half-written
      // payload. Generation-retry readers must give up, never spin forever.
      injector.WriteWord(victim.seq_block_addr(), 3);
      injector.WriteWord(victim.seq_block_addr() + 8, injector.rng().Next());
    }
  }
  state->injected[fault_index] = true;

  if ((axes & kRogueRpcBabble) != 0) {
    DriveRogueBabble(state, fault.victim, drive_until);
  }
  if ((axes & kRogueVoteAccuse) != 0) {
    DriveRogueAccusations(state, fault.victim, fault.target, drive_until);
  }
}

// A buggy detector on the accuser cell raises a hint against a healthy cell.
// Agreement (voting or the oracle) must refuse to kill the accused.
void InjectFalseAccusation(InjectionState& state, size_t fault_index) {
  const FaultSpec& fault = state.spec->faults[fault_index];
  HiveSystem& sys = *state.sys;
  Cell& accuser = sys.cell(fault.victim);
  if (!sys.CellReachable(fault.victim) || !sys.CellReachable(fault.target)) {
    return;
  }
  state.injected[fault_index] = true;
  Ctx ctx = accuser.MakeCtx();
  sys.HandleAlert(ctx, fault.victim, fault.target, hive::HintReason::kRpcTimeout);
}

uint64_t ComputeFingerprint(const ScenarioResult& result, HiveSystem& sys) {
  uint64_t hash = kFnvOffsetBasis;
  hash = FnvMix(hash, result.spec.seed);
  hash = FnvMix(hash, static_cast<uint64_t>(result.end_time));
  for (CellId c = 0; c < sys.num_cells(); ++c) {
    Cell& cell = sys.cell(c);
    uint64_t state = cell.alive() ? 1u : 0u;
    state |= cell.in_recovery() ? 2u : 0u;
    state |= sys.CellConfirmedFailed(c) ? 4u : 0u;
    hash = FnvMix(hash, state);
    hash = FnvMixString(hash, cell.panic_reason());
  }
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
  // Slice dispatch snaps to a 1 ms grid, one tenth of the 10 ms clock tick
  // (the "minor tick" real kernels dispatch on), and lone compute-bound
  // processes run pinned slices. Every golden is captured with both on.
  machine.EnableParallelSim(1, hive::KernelCosts{}.clock_tick_period_ns / 10);
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

  // Schedule the fault plan.
  auto state = std::make_shared<InjectionState>();
  state->sys = &sys;
  state->spec = &spec;
  state->injected.assign(spec.faults.size(), false);
  Time last_inject = 0;
  Time probe_until = 0;
  for (size_t i = 0; i < spec.faults.size(); ++i) {
    const FaultSpec& fault = spec.faults[i];
    last_inject = std::max(last_inject, fault.inject_at);
    switch (fault.kind) {
      case FaultKind::kNodeFailure:
        machine.events().ScheduleAt(fault.inject_at,
                                    [state, i] { InjectNodeFailure(*state, i); });
        break;
      case FaultKind::kAddrMapCorruption: {
        const Time give_up = fault.inject_at + 400 * kMillisecond;
        machine.events().ScheduleAt(fault.inject_at, [state, i, give_up] {
          TryAddrMapCorruption(state, i, give_up);
        });
        break;
      }
      case FaultKind::kWildWrite:
        machine.events().ScheduleAt(fault.inject_at,
                                    [state, i] { InjectWildWrite(*state, i); });
        break;
      case FaultKind::kFalseAccusation:
        machine.events().ScheduleAt(fault.inject_at,
                                    [state, i] { InjectFalseAccusation(*state, i); });
        break;
      case FaultKind::kMessageFaults:
        InstallMessageFaultPlan(*state, i);
        last_inject = std::max(last_inject, fault.inject_at + fault.duration);
        probe_until = std::max(probe_until, fault.inject_at + fault.duration);
        break;
      case FaultKind::kRogueCell: {
        const Time drive_until = fault.inject_at + spec.settle_ns;
        machine.events().ScheduleAt(fault.inject_at, [state, i, drive_until] {
          InjectRogue(state, i, drive_until);
        });
        break;
      }
      case FaultKind::kRebootStorm: {
        const Time storm_until = fault.inject_at + fault.duration;
        const CellId first_victim = fault.victim;
        machine.events().ScheduleAt(fault.inject_at, [state, i, first_victim, storm_until] {
          DriveRebootStorm(state, i, /*cycle=*/0, first_victim, storm_until);
        });
        last_inject = std::max(last_inject, storm_until);
        break;
      }
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
    machine.events().ScheduleAt(10 * kMillisecond, [state, drivers_until] {
      DriveHeartbeats(state, drivers_until);
    });
    machine.events().ScheduleAt(15 * kMillisecond, [state, drivers_until] {
      ProbeRemoteStructures(state, drivers_until);
    });
  }
  if (probe_until > 0) {
    // Keep probing a few quiet rounds past the last fault window so retry
    // exhaustion tails and quarantine probation can resolve.
    probe_until += 50 * kMillisecond;
    machine.events().ScheduleAt(
        5 * kMillisecond, [state, probe_until] { ProbeIntercellRpc(state, probe_until); });
  }

  // Run the workload (bounded), then settle long enough after the last
  // injection for clock monitoring, agreement and recovery to finish.
  if (!pids.empty()) {
    (void)sys.RunUntilDone(pids, 60 * kSecond);
  }
  machine.RunUntil(std::max(machine.Now(), last_inject) + spec.settle_ns);
  result.end_time = machine.Now();
  result.events_run = machine.events().total_run();
  result.injected = state->injected;

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
  input.injected = state->injected;
  input.corrupt_outputs = corrupt;
  input.wild_write_frames = state->wild_write_frames;
  result.violations = CheckAllOracles(input);

  result.fingerprint = ComputeFingerprint(result, sys);
  result.trace_signature = ComputeTraceSignature(sys);
  result.coverage = ExtractCoverage(sys, result.violations);
  return result;
}

}  // namespace campaign
