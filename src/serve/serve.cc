#include "src/serve/serve.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <sstream>

#include "src/base/log.h"
#include "src/base/rng.h"
#include "src/base/table.h"
#include "src/campaign/coverage.h"
#include "src/core/address_space.h"
#include "src/core/careful_ref.h"
#include "src/core/cell.h"
#include "src/core/failure_detection.h"
#include "src/core/hive_system.h"
#include "src/core/kernel_heap.h"
#include "src/core/process.h"
#include "src/core/recovery.h"
#include "src/core/report.h"
#include "src/core/rpc.h"
#include "src/core/scheduler.h"
#include "src/core/slo.h"
#include "src/flash/fault_injector.h"
#include "src/flash/machine.h"
#include "src/flash/sips.h"
#include "src/workloads/serve_requests.h"
#include "src/workloads/workload.h"

namespace serve {
namespace {

using campaign::FaultKind;
using campaign::FnvMix;
using campaign::FnvMixString;
using hive::Cell;
using hive::CellId;
using hive::Ctx;
using hive::HiveOptions;
using hive::HiveSystem;
using hive::kMillisecond;
using hive::kSecond;
using hive::ProcId;
using hive::Time;

// Soak machines match the campaign geometry: one single-CPU node per cell,
// small memory, so recovery scans and fault episodes stay fast while every
// containment path is exercised.
flash::MachineConfig SoakConfig(int num_cells) {
  flash::MachineConfig config;
  config.num_nodes = num_cells;
  config.cpus_per_node = 1;
  config.memory_per_node = 16ull * 1024 * 1024;
  return config;
}

// The rotation the background fault plan cycles through. Ordered so
// heavyweight episodes (storm, rogue) interleave with cheap ones.
constexpr FaultKind kRotation[] = {
    FaultKind::kNodeFailure,    FaultKind::kMessageFaults,
    FaultKind::kWildWrite,      FaultKind::kFalseAccusation,
    FaultKind::kAddrMapCorruption, FaultKind::kRogueCell,
    FaultKind::kRebootStorm,
};
constexpr size_t kRotationSize = sizeof(kRotation) / sizeof(kRotation[0]);

size_t FamilyIndex(FaultKind kind) {
  for (size_t i = 0; i < std::size(campaign::kAllFaultKinds); ++i) {
    if (campaign::kAllFaultKinds[i] == kind) {
      return i;
    }
  }
  return 0;
}

struct TenantState {
  int id = 0;
  CellId home = 0;
  bool hot = false;
  uint64_t file_seed = 0;
  uint64_t requests_issued = 0;
  std::string data_path;
};

// One submitted request, from fork to completion (or loss).
struct RequestRecord {
  CellId cell = 0;
  ProcId pid = 0;
  Time submitted_at = 0;
  Time completed_at = 0;
  bool completed = false;
};

// Shared between the pump, the fault driver and completion ops, all of which
// run as events of the one serial simulation loop.
struct SoakState {
  HiveSystem* sys = nullptr;
  const ServeOptions* opts = nullptr;
  hive::SloRecorder* slo = nullptr;
  base::Rng rng{0};

  std::vector<TenantState> tenants;
  std::vector<RequestRecord> requests;
  uint64_t unroutable = 0;
  uint64_t completed_total = 0;
  uint64_t pump_ticks = 0;

  std::vector<FaultEpisode> episodes;
  size_t rotation_index = 0;
  bool episode_open = false;
};

constexpr uint64_t kTenantFileSize = 64 * 1024;

bool CellUsable(HiveSystem& sys, CellId c) {
  return sys.CellReachable(c) && sys.cell(c).alive() && !sys.cell(c).in_recovery();
}

bool SystemWhole(HiveSystem& sys) {
  for (CellId c = 0; c < sys.num_cells(); ++c) {
    if (!CellUsable(sys, c) || sys.CellConfirmedFailed(c)) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Request pump.
// ---------------------------------------------------------------------------

workloads::ServeRequestParams RequestParams(const SoakState& state,
                                            const TenantState& tenant) {
  workloads::ServeRequestParams params;
  params.data_path = tenant.data_path;
  params.file_seed = tenant.file_seed;
  params.file_size = kTenantFileSize;
  params.request_seed =
      state.opts->seed ^ (static_cast<uint64_t>(tenant.id) << 40) ^ tenant.requests_issued;
  params.home = tenant.home;
  return params;
}

std::unique_ptr<workloads::ScriptedBehavior> BuildRequest(SoakState& state,
                                                          TenantState& tenant) {
  const workloads::ServeRequestParams params = RequestParams(state, tenant);
  // Fixed request mix, rotated per tenant: mostly reads, with writes, fault
  // bursts, metadata walks and a fork storm thrown in.
  switch (tenant.requests_issued % 8) {
    case 0:
    case 3:
    case 5:
      return workloads::MakeReadRequest(params);
    case 1:
    case 6:
      return workloads::MakeWriteRequest(params);
    case 2:
      return workloads::MakeFaultRequest(params);
    case 4:
      return workloads::MakeMetadataRequest(params);
    default:
      return workloads::MakeForkBurstRequest(params, /*children=*/3);
  }
}

// Submits one request for `tenant`: admission check on the chosen cell, fork,
// and a completion op that records submit-to-completion latency.
void SubmitRequest(const std::shared_ptr<SoakState>& state, TenantState& tenant,
                   std::unique_ptr<workloads::ScriptedBehavior> behavior) {
  HiveSystem& sys = *state->sys;
  // Failover: the tenant's home serves unless it is down or recovering, in
  // which case the request lands on the next usable cell.
  CellId target = hive::kInvalidCell;
  for (int i = 0; i < sys.num_cells(); ++i) {
    const CellId candidate =
        static_cast<CellId>((tenant.home + i) % sys.num_cells());
    if (CellUsable(sys, candidate)) {
      target = candidate;
      break;
    }
  }
  ++tenant.requests_issued;
  if (target == hive::kInvalidCell) {
    ++state->unroutable;
    return;
  }
  Cell& cell = sys.cell(target);
  if (!cell.AdmitRequest()) {
    return;  // Shed: traced and counted by the SLO recorder.
  }
  const size_t index = state->requests.size();
  RequestRecord record;
  record.cell = target;
  record.submitted_at = sys.machine().Now();
  state->requests.push_back(record);
  behavior->Add([state, index](Ctx& ctx, hive::Process&) -> hive::StepOutcome {
    RequestRecord& req = state->requests[index];
    req.completed = true;
    req.completed_at = ctx.VirtualNow();
    state->slo->NoteCompleted(req.cell, req.completed_at - req.submitted_at);
    ++state->completed_total;
    if (state->episode_open && !state->episodes.empty()) {
      ++state->episodes.back().completed_during;
    }
    return hive::StepOutcome::kContinue;
  });
  Ctx ctx = cell.MakeCtx();
  auto pid = sys.Fork(ctx, target, std::move(behavior));
  if (!pid.ok()) {
    state->requests.pop_back();
    ++state->unroutable;
    return;
  }
  state->requests[index].pid = *pid;
  state->slo->NoteSubmitted(target);
}

void PumpRequests(const std::shared_ptr<SoakState>& state) {
  HiveSystem& sys = *state->sys;
  const ServeOptions& opts = *state->opts;
  if (sys.machine().Now() >= opts.duration_ns) {
    return;  // Submission window closed; drain only.
  }
  ++state->pump_ticks;
  const uint64_t hot_period = opts.smoke ? 5 : 2;
  const uint64_t cold_period = 4 * hot_period;
  for (TenantState& tenant : state->tenants) {
    const uint64_t period = tenant.hot ? hot_period : cold_period;
    // Phase-shift tenants so submissions spread across pump ticks.
    if ((state->pump_ticks + static_cast<uint64_t>(tenant.id)) % period != 0) {
      continue;
    }
    SubmitRequest(state, tenant, BuildRequest(*state, tenant));
  }
  sys.machine().events().ScheduleAfter(10 * kMillisecond,
                                       [state] { PumpRequests(state); });
}

// Periodic overload burst: a flood of fork-storm requests aimed at one cell.
// With admission control on, the watermark sheds the excess (and the run
// stays within its latency SLO); with --bug=no_shed the queue grows without
// bound and the p999 bound must trip.
void OverloadBurst(const std::shared_ptr<SoakState>& state, int burst_index) {
  HiveSystem& sys = *state->sys;
  if (sys.machine().Now() >= state->opts->duration_ns) {
    return;
  }
  TenantState& tenant = state->tenants[static_cast<size_t>(burst_index) %
                                       state->tenants.size()];
  const int flood = state->opts->smoke ? 120 : 250;
  for (int i = 0; i < flood; ++i) {
    SubmitRequest(state, tenant,
                  workloads::MakeForkBurstRequest(RequestParams(*state, tenant),
                                                  /*children=*/4));
  }
  sys.machine().events().ScheduleAfter(15 * kSecond, [state, burst_index] {
    OverloadBurst(state, burst_index + 1);
  });
}

// ---------------------------------------------------------------------------
// Health plane: heartbeats + intercell probe traffic (the serve analogue of
// the campaign's drivers; detection of silent/garbling/dead peers runs on
// top of these).
// ---------------------------------------------------------------------------

void DriveHeartbeats(const std::shared_ptr<SoakState>& state) {
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
        continue;  // The timeout path raised its own kRpcTimeout hint.
      }
      bool garbage = false;
      for (uint64_t word : reply.w) {
        garbage = garbage || word != 0;
      }
      if (garbage) {
        // A null reply with payload: the peer is scribbling replies (rogue).
        hive::HintEvidence evidence;
        evidence.structure = hive::EvidenceStructure::kRpcReply;
        cell.detector().RaiseHintWithEvidence(
            ctx, peer, hive::HintReason::kInvariantMismatch, evidence);
      }
    }
  }
  if (sys.machine().Now() + 20 * kMillisecond <= state->opts->duration_ns +
                                                    state->opts->drain_ns) {
    sys.machine().events().ScheduleAfter(20 * kMillisecond,
                                         [state] { DriveHeartbeats(state); });
  }
}

// Steady non-idempotent intercell traffic (borrow/return one frame) so
// message-fault windows always have RPC mutations in flight and recovery has
// live loan state to reclaim.
void ProbeIntercellRpc(const std::shared_ptr<SoakState>& state) {
  HiveSystem& sys = *state->sys;
  for (CellId c = 0; c < sys.num_cells(); ++c) {
    const CellId peer = static_cast<CellId>((c + 1) % sys.num_cells());
    if (peer == c || !CellUsable(sys, c) || !CellUsable(sys, peer)) {
      continue;
    }
    Cell& cell = sys.cell(c);
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
  if (sys.machine().Now() + 25 * kMillisecond <= state->opts->duration_ns) {
    sys.machine().events().ScheduleAfter(25 * kMillisecond,
                                         [state] { ProbeIntercellRpc(state); });
  }
}

// ---------------------------------------------------------------------------
// Background fault plan: one episode at a time, rotating through the seven
// families, waiting for the system to become whole between episodes.
// ---------------------------------------------------------------------------

void InjectNextFault(const std::shared_ptr<SoakState>& state);

// Polls until every cell is live, reintegrated and out of recovery (or the
// episode timeout passes), then closes the episode and schedules the next.
void PollEpisodeResolved(const std::shared_ptr<SoakState>& state, Time not_before,
                         Time give_up) {
  HiveSystem& sys = *state->sys;
  const Time now = sys.machine().Now();
  if (now < not_before || (!SystemWhole(sys) && now < give_up)) {
    sys.machine().events().ScheduleAfter(5 * kMillisecond, [state, not_before, give_up] {
      PollEpisodeResolved(state, not_before, give_up);
    });
    return;
  }
  state->episodes.back().resolved_at = now;
  state->episode_open = false;
  const Time gap = 600 * kMillisecond + state->rng.Below(700) * kMillisecond;
  sys.machine().events().ScheduleAfter(gap, [state] { InjectNextFault(state); });
}

// Tenant requests are too short-lived for the corruption poll below to catch
// one holding a multi-region address map, so the episode plants its own
// decoy on the victim cell: map two regions, hold them through a long
// compute, then touch them again. The post-hold touches walk the (by then
// corrupted) map and the careful-reference discipline excises the process.
void PlantAddrMapDecoy(const std::shared_ptr<SoakState>& state, CellId victim) {
  HiveSystem& sys = *state->sys;
  if (!sys.CellReachable(victim)) {
    return;
  }
  auto decoy = std::make_unique<workloads::ScriptedBehavior>("addrmap-decoy");
  constexpr hive::VirtAddr kDecoyBase = 0x50000000;
  constexpr uint64_t kPage = 4096;
  decoy->Add(workloads::OpMapAnon(kDecoyBase, 8 * kPage, /*writable=*/true));
  decoy->Add(workloads::OpMapAnon(kDecoyBase + (1 << 20), 4 * kPage,
                                  /*writable=*/true));
  decoy->Add(workloads::OpFaultRange(kDecoyBase, 8, /*write=*/true));
  decoy->Add(workloads::OpFaultRange(kDecoyBase + (1 << 20), 4, /*write=*/true));
  decoy->Add(workloads::OpCompute(200 * kMillisecond, 200 * kMillisecond));
  decoy->Add(workloads::OpTouchMapped(kDecoyBase, 8, /*write=*/true,
                                      /*misses_per_page=*/4));
  Cell& cell = sys.cell(victim);
  Ctx ctx = cell.MakeCtx();
  (void)sys.Fork(ctx, victim, std::move(decoy));
}

// Address-map corruption lands only once a victim process has built a
// multi-region map; retry until then or until the give-up time.
void TryAddrMapCorruption(const std::shared_ptr<SoakState>& state, CellId victim,
                          Time give_up) {
  HiveSystem& sys = *state->sys;
  if (!sys.CellReachable(victim)) {
    return;
  }
  Cell& cell = sys.cell(victim);
  for (const auto& [pid, proc] : cell.sched().live_processes()) {
    Ctx ctx = cell.MakeCtx();
    auto regions = proc->address_space().ListRegions(ctx);
    if (regions.size() < 2) {
      continue;
    }
    flash::FaultInjector injector(&sys.machine(),
                                  state->opts->seed ^ state->episodes.size());
    Cell& other = sys.cell(static_cast<CellId>((victim + 1) % sys.num_cells()));
    injector.CorruptPointer(
        regions[0].entry_addr + hive::AddrMapEntryLayout::kNext,
        flash::PointerCorruptionMode::kRandomOtherCell, cell.mem_base(),
        cell.mem_size(), other.mem_base(), other.mem_size());
    state->episodes.back().landed = true;
    return;
  }
  if (sys.machine().Now() < give_up) {
    sys.machine().events().ScheduleAfter(10 * kMillisecond, [state, victim, give_up] {
      TryAddrMapCorruption(state, victim, give_up);
    });
  }
}

// A wild write from `victim` into the tenant file page cache of the next cell
// over. The firewall denies the store and the writer kernel panics -- damage
// contained to the writer, which recovery then excises and reboots.
void InjectWildWrite(const std::shared_ptr<SoakState>& state, CellId victim) {
  HiveSystem& sys = *state->sys;
  const CellId target = static_cast<CellId>((victim + 1) % sys.num_cells());
  if (!sys.CellReachable(victim) || !sys.CellReachable(target)) {
    return;
  }
  Cell& writer = sys.cell(victim);
  Cell& owner = sys.cell(target);
  // The tenant homed on the target cell (tenants are assigned round-robin, so
  // tenant id == cell id is always such a tenant).
  const TenantState& tenant = state->tenants[static_cast<size_t>(target)];
  Ctx tctx = owner.MakeCtx();
  auto handle = owner.fs().Open(tctx, tenant.data_path);
  if (!handle.ok()) {
    return;
  }
  auto page = owner.fs().GetPage(tctx, *handle, 0, /*want_write=*/false,
                                 hive::FileSystem::AccessPath::kSyscall);
  if (!page.ok()) {
    return;
  }
  std::vector<uint8_t> garbage(64);
  for (uint8_t& byte : garbage) {
    byte = static_cast<uint8_t>(state->rng.Next());
  }
  const int writer_cpu = sys.machine().FirstCpuOfNode(writer.first_node());
  state->episodes.back().landed = true;
  try {
    sys.machine().mem().Write(writer_cpu, (*page)->frame + 256, garbage);
    // hive-lint: allow(R3): injected wild write from the soak harness; the firewall trap becomes the writer kernel's panic, as section 4.1 prescribes.
  } catch (const flash::BusError&) {
    std::ostringstream reason;
    reason << "wild write into cell " << target << " denied by firewall";
    writer.Panic(reason.str());
  }
}

// Seed-driven kill/rejoin cycles (the reboot-storm family, compressed): kill
// the victim, wait for auto-reintegration to restore it, kill the next.
void DriveRebootStorm(const std::shared_ptr<SoakState>& state, int cycle,
                      CellId victim, Time until);

void WaitForStormRejoin(const std::shared_ptr<SoakState>& state, int cycle,
                        CellId victim, Time until) {
  HiveSystem& sys = *state->sys;
  if (sys.machine().Now() >= until) {
    return;
  }
  if (!sys.CellReachable(victim) || sys.CellConfirmedFailed(victim) ||
      sys.cell(victim).in_recovery()) {
    sys.machine().events().ScheduleAfter(2 * kMillisecond, [state, cycle, victim, until] {
      WaitForStormRejoin(state, cycle, victim, until);
    });
    return;
  }
  const CellId next = static_cast<CellId>((victim + 1) % sys.num_cells());
  const Time gap = state->rng.OneIn(3)
                       ? 1 * kMillisecond
                       : static_cast<Time>(10 + state->rng.Below(40)) * kMillisecond;
  sys.machine().events().ScheduleAfter(gap, [state, cycle, next, until] {
    DriveRebootStorm(state, cycle + 1, next, until);
  });
}

void DriveRebootStorm(const std::shared_ptr<SoakState>& state, int cycle,
                      CellId victim, Time until) {
  HiveSystem& sys = *state->sys;
  if (cycle >= 2 || sys.machine().Now() >= until) {
    return;
  }
  if (!sys.CellReachable(victim) || sys.cell(victim).in_recovery() ||
      sys.LiveCells().size() < 3) {
    sys.machine().events().ScheduleAfter(2 * kMillisecond, [state, cycle, victim, until] {
      DriveRebootStorm(state, cycle, victim, until);
    });
    return;
  }
  sys.machine().FailNode(sys.cell(victim).first_node());
  state->episodes.back().landed = true;
  WaitForStormRejoin(state, cycle, victim, until);
}

void InjectNextFault(const std::shared_ptr<SoakState>& state) {
  HiveSystem& sys = *state->sys;
  const ServeOptions& opts = *state->opts;
  const Time now = sys.machine().Now();
  if (now >= opts.duration_ns) {
    return;  // No fresh fault pressure during the drain window.
  }
  const FaultKind kind = kRotation[state->rotation_index % kRotationSize];
  ++state->rotation_index;
  const CellId victim =
      static_cast<CellId>(state->rng.Below(static_cast<uint64_t>(sys.num_cells())));

  FaultEpisode episode;
  episode.kind = kind;
  episode.victim = victim;
  episode.injected_at = now;
  state->episodes.push_back(episode);
  state->episode_open = true;

  Time settle = 50 * kMillisecond;   // Earliest resolution check.
  Time give_up = now + 4 * kSecond;  // Close the episode even if never whole.
  switch (kind) {
    case FaultKind::kNodeFailure:
      if (sys.CellReachable(victim) && sys.LiveCells().size() >= 3) {
        sys.machine().FailNode(sys.cell(victim).first_node());
        state->episodes.back().landed = true;
      }
      break;
    case FaultKind::kAddrMapCorruption:
      PlantAddrMapDecoy(state, victim);
      TryAddrMapCorruption(state, victim, now + 400 * kMillisecond);
      settle = 450 * kMillisecond;  // Give the corruption time to be walked.
      break;
    case FaultKind::kWildWrite:
      InjectWildWrite(state, victim);
      break;
    case FaultKind::kFalseAccusation: {
      const CellId accused = static_cast<CellId>((victim + 1) % sys.num_cells());
      if (sys.CellReachable(victim) && sys.CellReachable(accused)) {
        Ctx ctx = sys.cell(victim).MakeCtx();
        sys.HandleAlert(ctx, victim, accused, hive::HintReason::kRpcTimeout);
        state->episodes.back().landed = true;
      }
      settle = 20 * kMillisecond;
      break;
    }
    case FaultKind::kMessageFaults: {
      flash::Sips& sips = sys.machine().sips();
      if (sips.fault_model() == nullptr) {
        sips.EnableFaultModel(opts.seed ^ 0x6D7367666Cull);
      }
      flash::MessageFaultPlan plan;
      plan.start = now;
      plan.end = now + 400 * kMillisecond;
      plan.drop_pm = 25;
      plan.dup_pm = 15;
      plan.delay_pm = 40;
      plan.corrupt_pm = 10;
      plan.delay_max_ns = 30 * hive::kMicrosecond;  // Under the RPC spin window.
      sips.fault_model()->AddPlan(plan);
      state->episodes.back().landed = true;
      settle = 420 * kMillisecond;  // The window must fully pass.
      break;
    }
    case FaultKind::kRogueCell: {
      if (sys.CellReachable(victim)) {
        hive::RogueBehavior behavior;
        behavior.active = true;
        behavior.rpc_garbage = true;  // Heartbeats surface the scribbles.
        behavior.garbage_seed = opts.seed ^ (0x90609ull << 32) ^ state->episodes.size();
        sys.cell(victim).SetRogueBehavior(behavior);
        state->episodes.back().landed = true;
      }
      break;
    }
    case FaultKind::kRebootStorm:
      DriveRebootStorm(state, /*cycle=*/0, victim, now + 2 * kSecond);
      give_up = now + 6 * kSecond;
      break;
  }
  PollEpisodeResolved(state, now + settle, give_up);
}

// ---------------------------------------------------------------------------
// Fingerprint + SLO verdict.
// ---------------------------------------------------------------------------

uint64_t ComputeFingerprint(const ServeResult& result, HiveSystem& sys) {
  uint64_t hash = campaign::kFnvOffsetBasis;
  hash = FnvMix(hash, result.options.seed);
  hash = FnvMix(hash, static_cast<uint64_t>(result.end_time));
  hash = FnvMix(hash, result.submitted);
  hash = FnvMix(hash, result.completed);
  hash = FnvMix(hash, result.shed);
  hash = FnvMix(hash, result.unroutable);
  hash = FnvMix(hash, result.lost);
  hash = FnvMix(hash, result.hung);
  if (!result.latency.empty()) {
    hash = FnvMix(hash, result.latency.count());
    hash = FnvMix(hash, static_cast<uint64_t>(result.latency.sum()));
    hash = FnvMix(hash, static_cast<uint64_t>(result.latency.min()));
    hash = FnvMix(hash, static_cast<uint64_t>(result.latency.max()));
    hash = FnvMix(hash, static_cast<uint64_t>(result.latency.Percentile(50)));
    hash = FnvMix(hash, static_cast<uint64_t>(result.latency.Percentile(99)));
    hash = FnvMix(hash, static_cast<uint64_t>(result.latency.Percentile(99.9)));
  }
  for (const ServeCellSummary& cell : result.cells) {
    hash = FnvMix(hash, cell.submitted);
    hash = FnvMix(hash, cell.completed);
    hash = FnvMix(hash, cell.shed);
    hash = FnvMix(hash, static_cast<uint64_t>(cell.down_ns));
    hash = FnvMix(hash, static_cast<uint64_t>(cell.suspended_ns));
  }
  for (const FaultEpisode& episode : result.episodes) {
    hash = FnvMix(hash, static_cast<uint64_t>(FamilyIndex(episode.kind)));
    hash = FnvMix(hash, static_cast<uint64_t>(episode.victim));
    hash = FnvMix(hash, static_cast<uint64_t>(episode.injected_at));
    hash = FnvMix(hash, static_cast<uint64_t>(episode.resolved_at));
    hash = FnvMix(hash, episode.completed_during);
    hash = FnvMix(hash, episode.landed ? 1u : 0u);
  }
  for (Time duration : result.recovery_durations) {
    hash = FnvMix(hash, static_cast<uint64_t>(duration));
  }
  hash = FnvMix(hash, static_cast<uint64_t>(result.recoveries_run));
  hash = FnvMix(hash, static_cast<uint64_t>(result.reintegrations));
  for (CellId c = 0; c < sys.num_cells(); ++c) {
    Cell& cell = sys.cell(c);
    uint64_t cell_state = cell.alive() ? 1u : 0u;
    cell_state |= cell.in_recovery() ? 2u : 0u;
    cell_state |= sys.CellConfirmedFailed(c) ? 4u : 0u;
    hash = FnvMix(hash, cell_state);
    hash = FnvMixString(hash, cell.panic_reason());
  }
  for (const std::string& violation : result.violations) {
    hash = FnvMixString(hash, violation);
  }
  return hash;
}

void JudgeSlos(ServeResult& result) {
  const ServeOptions& opts = result.options;
  for (size_t c = 0; c < result.cells.size(); ++c) {
    if (result.cells[c].availability < opts.availability_floor) {
      std::ostringstream out;
      out << "availability-floor: cell " << c << " availability "
          << result.cells[c].availability << " below floor " << opts.availability_floor;
      result.violations.push_back(out.str());
    }
  }
  if (!result.latency.empty() &&
      result.latency.Percentile(99.9) > static_cast<int64_t>(opts.latency_p999_bound_ns)) {
    std::ostringstream out;
    out << "latency-p999: " << result.latency.Percentile(99.9) / 1000000
        << " ms exceeds bound " << opts.latency_p999_bound_ns / 1000000 << " ms";
    result.violations.push_back(out.str());
  }
  if (result.hung > 0) {
    std::ostringstream out;
    out << "no-hung-request: " << result.hung
        << " request(s) neither completed nor killed by the end of the drain window";
    result.violations.push_back(out.str());
  }
  for (size_t i = 0; i < result.recovery_durations.size(); ++i) {
    if (result.recovery_durations[i] > opts.recovery_bound_ns) {
      std::ostringstream out;
      out << "recovery-time: episode " << i << " took "
          << result.recovery_durations[i] / 1000000 << " ms, bound "
          << opts.recovery_bound_ns / 1000000 << " ms";
      result.violations.push_back(out.str());
    }
  }
}

std::string RenderSloSummary(const ServeResult& result) {
  base::Table table({"Cell", "Submitted", "Completed", "Shed", "Down (ms)",
                     "Frozen (ms)", "Availability", "Max-runq"});
  for (size_t c = 0; c < result.cells.size(); ++c) {
    const ServeCellSummary& cell = result.cells[c];
    table.AddRow({"cell " + base::Table::I64(static_cast<int64_t>(c)),
                  base::Table::I64(static_cast<int64_t>(cell.submitted)),
                  base::Table::I64(static_cast<int64_t>(cell.completed)),
                  base::Table::I64(static_cast<int64_t>(cell.shed)),
                  base::Table::F64(static_cast<double>(cell.down_ns) / 1e6, 1),
                  base::Table::F64(static_cast<double>(cell.suspended_ns) / 1e6, 1),
                  base::Table::F64(cell.availability, 4),
                  base::Table::I64(static_cast<int64_t>(cell.max_runnable))});
  }
  std::ostringstream out;
  out << table.Render("Service SLO summary (per cell)");
  if (!result.latency.empty()) {
    out << "latency (ms): p50="
        << base::Table::F64(static_cast<double>(result.latency.Percentile(50)) / 1e6, 3)
        << " p99="
        << base::Table::F64(static_cast<double>(result.latency.Percentile(99)) / 1e6, 3)
        << " p999="
        << base::Table::F64(static_cast<double>(result.latency.Percentile(99.9)) / 1e6, 3)
        << " max="
        << base::Table::F64(static_cast<double>(result.latency.max()) / 1e6, 3) << "\n";
  }
  out << "faults: " << result.episodes.size() << " episode(s), "
      << result.episodes_landed << " landed; requests/fault="
      << base::Table::F64(result.requests_per_fault, 1) << "\n";
  return out.str();
}

}  // namespace

ServeResult RunSoak(const ServeOptions& options) {
  ServeResult result;
  result.options = options;

  ServeOptions opts = options;
  opts.tenants = std::max(opts.tenants, opts.num_cells);
  if (opts.bug == "no_shed") {
    opts.admit_runq_watermark = 0;
    opts.admit_heap_watermark_bytes = 0;
  }

  flash::Machine machine(SoakConfig(opts.num_cells), opts.seed);
  // Same 1 ms dispatch grid and pinned slices as the campaign (RunScenario).
  machine.EnableParallelSim(1, hive::KernelCosts{}.clock_tick_period_ns / 10);
  HiveOptions hive_options;
  hive_options.num_cells = opts.num_cells;
  hive_options.auto_reintegrate = true;
  hive_options.salvage_pages = true;
  hive_options.live_rejoin = true;
  hive_options.admit_runq_watermark = opts.admit_runq_watermark;
  hive_options.admit_heap_watermark_bytes = opts.admit_heap_watermark_bytes;
  if (opts.bug == "slow_recovery") {
    hive_options.costs.recovery_per_page_scan_ns *= 1000;
  }
  HiveSystem sys(&machine, hive_options);
  hive::SloRecorder slo(static_cast<size_t>(opts.num_cells));
  sys.set_slo_recorder(&slo);
  sys.Boot();

  auto state = std::make_shared<SoakState>();
  state->sys = &sys;
  state->opts = &opts;
  state->slo = &slo;
  state->rng = base::Rng(opts.seed ^ 0x5E27Eull);

  // Tenants: homes round-robin across cells, half hot. Each gets a pattern
  // file on its home cell before the clock starts.
  for (int t = 0; t < opts.tenants; ++t) {
    TenantState tenant;
    tenant.id = t;
    tenant.home = static_cast<CellId>(t % opts.num_cells);
    tenant.hot = t % 2 == 0;
    tenant.file_seed = opts.seed ^ (0x7E4A47ull + static_cast<uint64_t>(t));
    tenant.data_path = "/serve/tenant-" + std::to_string(t);
    Cell& home = sys.cell(tenant.home);
    Ctx ctx = home.MakeCtx();
    auto created = home.fs().Create(
        ctx, tenant.data_path, workloads::PatternData(tenant.file_seed, kTenantFileSize));
    CHECK(created.ok());
    state->tenants.push_back(tenant);
  }

  // Drivers: request pump, health plane, probe traffic, overload bursts, and
  // the rotating background fault plan.
  machine.events().ScheduleAt(10 * kMillisecond, [state] { PumpRequests(state); });
  machine.events().ScheduleAt(20 * kMillisecond, [state] { DriveHeartbeats(state); });
  machine.events().ScheduleAt(25 * kMillisecond, [state] { ProbeIntercellRpc(state); });
  machine.events().ScheduleAt(12 * kSecond, [state] { OverloadBurst(state, 0); });
  machine.events().ScheduleAt(1 * kSecond, [state] { InjectNextFault(state); });

  const Time end_time = opts.duration_ns + opts.drain_ns;
  machine.RunUntil(end_time);
  result.end_time = end_time;
  slo.Finish(end_time);

  // Classify every submitted request: completed, lost to a fault (killed or
  // died with its cell -- the fault plan's collateral), or hung (the SLO
  // violation: still pending after the drain window).
  for (const RequestRecord& request : state->requests) {
    ++result.submitted;
    if (request.completed) {
      ++result.completed;
    } else if (sys.ProcessFinished(request.pid)) {
      ++result.lost;
    } else {
      ++result.hung;
    }
  }
  result.unroutable = state->unroutable;
  result.episodes = state->episodes;
  result.per_family.assign(std::size(campaign::kAllFaultKinds), 0);
  for (const FaultEpisode& episode : result.episodes) {
    if (episode.landed) {
      ++result.episodes_landed;
      ++result.per_family[FamilyIndex(episode.kind)];
    }
  }
  result.requests_per_fault =
      result.episodes_landed == 0
          ? static_cast<double>(result.completed)
          : static_cast<double>(result.completed) /
                static_cast<double>(result.episodes_landed);

  for (CellId c = 0; c < sys.num_cells(); ++c) {
    const hive::CellSloStats& stats = slo.cell(static_cast<size_t>(c));
    ServeCellSummary summary;
    summary.submitted = stats.submitted;
    summary.completed = stats.completed;
    summary.shed = stats.shed;
    summary.down_ns = stats.down_ns;
    summary.suspended_ns = stats.suspended_ns;
    summary.availability = slo.Availability(static_cast<size_t>(c), end_time);
    summary.max_runnable =
        sys.cell(c).alive() ? sys.cell(c).sched().max_runnable() : 0;
    result.availability_min = std::min(result.availability_min, summary.availability);
    result.shed += summary.shed;
    result.latency.Merge(stats.latency);
    result.cells.push_back(summary);
  }

  for (const hive::RecoveryStats& episode : sys.recovery().episodes()) {
    result.recovery_durations.push_back(episode.duration_ns);
  }
  result.recoveries_run = sys.recovery().recoveries_run();
  result.reintegrations = static_cast<int>(sys.recovery().reintegration_log().size());

  JudgeSlos(result);
  result.fingerprint = ComputeFingerprint(result, sys);

  std::ostringstream report;
  report << hive::RenderSystemReport(sys);
  report << hive::RenderRecoveryEpisodes(sys);
  report << RenderSloSummary(result);
  result.report = report.str();
  return result;
}

}  // namespace serve
