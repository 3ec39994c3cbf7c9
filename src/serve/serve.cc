#include "src/serve/serve.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "src/base/log.h"
#include "src/base/rng.h"
#include "src/base/table.h"
#include "src/campaign/coverage.h"
#include "src/campaign/injectors.h"
#include "src/campaign/runner.h"
#include "src/core/cell.h"
#include "src/core/hive_system.h"
#include "src/core/process.h"
#include "src/core/recovery.h"
#include "src/core/report.h"
#include "src/core/scheduler.h"
#include "src/core/slo.h"
#include "src/core/wax.h"
#include "src/flash/fault_injector.h"
#include "src/flash/machine.h"
#include "src/workloads/serve_requests.h"
#include "src/workloads/workload.h"

namespace serve {
namespace {

using campaign::FaultKind;
using campaign::FnvMix;
using campaign::FnvMixCellStates;
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

// Reachable (which implies alive) and not frozen in recovery.
bool CellUsable(HiveSystem& sys, CellId c) {
  return sys.CellReachable(c) && !sys.cell(c).in_recovery();
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

// A wild write from `victim` into the tenant file page cache of the next cell
// over. The firewall denies the store and the writer kernel panics -- damage
// contained to the writer, which recovery then excises and reboots.
void InjectWildWrite(SoakState& state, CellId victim) {
  HiveSystem& sys = *state.sys;
  const CellId target = static_cast<CellId>((victim + 1) % sys.num_cells());
  if (!sys.CellReachable(victim) || !sys.CellReachable(target)) {
    return;
  }
  // The tenant homed on the target cell (tenants are assigned round-robin, so
  // tenant id == cell id is always such a tenant).
  const std::optional<hive::PhysAddr> frame = campaign::CachedFrame(
      sys.cell(target), state.tenants[static_cast<size_t>(target)].data_path, 0);
  if (!frame.has_value()) {
    return;
  }
  std::vector<uint8_t> garbage(64);
  for (uint8_t& byte : garbage) {
    byte = static_cast<uint8_t>(state.rng.Next());
  }
  state.episodes.back().landed = true;
  (void)campaign::WildWrite(sys, victim, target, *frame + 256, garbage);
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
  const campaign::OnLanded landed = [state] { state->episodes.back().landed = true; };
  switch (kind) {
    case FaultKind::kNodeFailure:
      if (sys.CellReachable(victim) && sys.LiveCells().size() >= 3) {
        campaign::FailCellNode(sys, victim);
        landed();
      }
      break;
    case FaultKind::kAddrMapCorruption:
      PlantAddrMapDecoy(state, victim);
      campaign::CorruptPointerWhenFound(
          sys, victim, opts.seed ^ state->episodes.size(),
          flash::PointerCorruptionMode::kRandomOtherCell, now + 400 * kMillisecond,
          campaign::AddrMapNextPointer, landed);
      settle = 450 * kMillisecond;  // Give the corruption time to be walked.
      break;
    case FaultKind::kWildWrite:
      InjectWildWrite(*state, victim);
      break;
    case FaultKind::kFalseAccusation:
      if (campaign::FalseAccusation(sys, victim,
                                    static_cast<CellId>((victim + 1) % sys.num_cells()))) {
        landed();
      }
      settle = 20 * kMillisecond;
      break;
    case FaultKind::kMessageFaults: {
      flash::MessageFaultPlan plan;
      plan.start = now;
      plan.end = now + 400 * kMillisecond;
      plan.drop_pm = 25;
      plan.dup_pm = 15;
      plan.delay_pm = 40;
      plan.corrupt_pm = 10;
      campaign::InstallMessageFaults(sys, opts.seed, plan);
      landed();
      settle = 420 * kMillisecond;  // The window must fully pass.
      break;
    }
    case FaultKind::kRogueCell:
      // Garbage replies only: the heartbeats surface the scribbles.
      if (campaign::TurnRogue(sys, victim, hive::kInvalidCell, campaign::kRogueRpcGarbage,
                              opts.seed, state->episodes.size(), now)) {
        landed();
      }
      break;
    case FaultKind::kRebootStorm:
      // Two kills, rotating to the next cell, 1 ms or 10-49 ms apart.
      campaign::RunRebootStorm(
          sys, victim, /*cycles=*/2, now + 2 * kSecond,
          [state](uint32_t, CellId rejoined) {
            const CellId next =
                static_cast<CellId>((rejoined + 1) % state->sys->num_cells());
            const Time gap = state->rng.OneIn(3)
                                 ? 1 * kMillisecond
                                 : static_cast<Time>(10 + state->rng.Below(40)) * kMillisecond;
            return std::pair<CellId, Time>(next, gap);
          },
          landed);
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
  hash = FnvMixCellStates(hash, sys);
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
  // Every cell homes at least one tenant; the result reports the count that ran.
  result.options.tenants = std::max(options.tenants, options.num_cells);

  ServeOptions opts = result.options;
  if (opts.bug == "no_shed") {
    opts.admit_runq_watermark = 0;
    opts.admit_heap_watermark_bytes = 0;
  }

  flash::Machine machine(campaign::CampaignConfig(opts.num_cells), opts.seed);
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
  // Heartbeats surface silent, garbling and dead peers; the borrow/return
  // probe keeps mutating RPCs in flight through message-fault windows.
  machine.events().ScheduleAt(20 * kMillisecond, [&sys, until = opts.duration_ns +
                                                                opts.drain_ns] {
    campaign::DriveHeartbeats(sys, until);
  });
  machine.events().ScheduleAt(25 * kMillisecond, [&sys, until = opts.duration_ns] {
    campaign::ProbeIntercellRpc(sys, 25 * kMillisecond, until);
  });
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
  result.wax_incarnations = sys.wax().incarnation();
  result.wax_scans = sys.wax().scans();

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
