#include "src/campaign/injectors.h"

#include <sstream>
#include <vector>

#include "src/base/rng.h"
#include "src/campaign/scenario.h"
#include "src/core/address_space.h"
#include "src/core/cell.h"
#include "src/core/failure_detection.h"
#include "src/core/kernel_heap.h"
#include "src/core/process.h"
#include "src/core/rpc.h"
#include "src/core/scheduler.h"
#include "src/flash/bus_error.h"
#include "src/flash/machine.h"

namespace campaign {
namespace {

using hive::Cell;
using hive::Ctx;
using hive::HiveSystem;
using hive::kMillisecond;

// The rogue keeps flooding every peer with null requests until it is excised
// (or the window closes). Bursts are interleaved across peers so all
// survivors cross the babble threshold nearly together and can corroborate
// each other's kBabbling evidence from their own incoming-rate counters.
void DriveRogueBabble(HiveSystem& sys, CellId rogue, Time until) {
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
    sys.machine().events().ScheduleAfter(
        kMillisecond, [&sys, rogue, until] { DriveRogueBabble(sys, rogue, until); });
  }
}

// The rogue repeatedly accuses the same healthy cell. Voting refuses to kill
// the accused both times, and the second voted-down alert turns the strike
// counter against the rogue itself (paper section 4.3).
void DriveRogueAccusations(HiveSystem& sys, CellId rogue, CellId target, Time until) {
  if (!sys.CellReachable(rogue) || sys.CellConfirmedFailed(rogue)) {
    return;
  }
  (void)FalseAccusation(sys, rogue, target);
  if (sys.machine().Now() + 30 * kMillisecond <= until) {
    sys.machine().events().ScheduleAfter(30 * kMillisecond, [&sys, rogue, target, until] {
      DriveRogueAccusations(sys, rogue, target, until);
    });
  }
}

void StormKill(HiveSystem& sys, uint32_t cycle, CellId victim, uint32_t cycles, Time until,
               NextStormKill next, OnLanded on_landed);

// Polls until the cycle's victim is a live, unconfirmed-failed,
// not-in-recovery member again (or the storm window closes), then schedules
// the next kill cycle.
void WaitForStormRejoin(HiveSystem& sys, uint32_t cycle, CellId victim, uint32_t cycles,
                        Time until, NextStormKill next, OnLanded on_landed) {
  if (sys.machine().Now() >= until) {
    return;
  }
  if (!sys.CellReachable(victim) || sys.CellConfirmedFailed(victim) ||
      sys.cell(victim).in_recovery()) {
    sys.machine().events().ScheduleAfter(
        2 * kMillisecond, [&sys, cycle, victim, cycles, until, next = std::move(next),
                           on_landed = std::move(on_landed)]() mutable {
          WaitForStormRejoin(sys, cycle, victim, cycles, until, std::move(next),
                             std::move(on_landed));
        });
    return;
  }
  const std::pair<CellId, Time> kill = next(cycle, victim);
  sys.machine().events().ScheduleAfter(
      kill.second, [&sys, cycle, next_victim = kill.first, cycles, until,
                    next = std::move(next), on_landed = std::move(on_landed)]() mutable {
        StormKill(sys, cycle + 1, next_victim, cycles, until, std::move(next),
                  std::move(on_landed));
      });
}

void StormKill(HiveSystem& sys, uint32_t cycle, CellId victim, uint32_t cycles, Time until,
               NextStormKill next, OnLanded on_landed) {
  if (cycle >= cycles || sys.machine().Now() >= until) {
    return;
  }
  // Hold the kill while the victim is unreachable or mid-recovery, and keep
  // at least two survivors after the kill so a recovery master exists.
  if (!sys.CellReachable(victim) || sys.cell(victim).in_recovery() ||
      sys.LiveCells().size() < 3) {
    sys.machine().events().ScheduleAfter(
        2 * kMillisecond, [&sys, cycle, victim, cycles, until, next = std::move(next),
                           on_landed = std::move(on_landed)]() mutable {
          StormKill(sys, cycle, victim, cycles, until, std::move(next), std::move(on_landed));
        });
    return;
  }
  FailCellNode(sys, victim);
  on_landed();
  WaitForStormRejoin(sys, cycle, victim, cycles, until, std::move(next), std::move(on_landed));
}

}  // namespace

void FailCellNode(HiveSystem& sys, CellId victim) {
  sys.machine().FailNode(sys.cell(victim).first_node());
}

std::optional<hive::PhysAddr> AddrMapNextPointer(Cell& cell, hive::Process& proc) {
  Ctx ctx = cell.MakeCtx();
  auto regions = proc.address_space().ListRegions(ctx);
  if (regions.size() < 2) {
    return std::nullopt;
  }
  return regions[0].entry_addr + hive::AddrMapEntryLayout::kNext;
}

void CorruptPointerWhenFound(HiveSystem& sys, CellId victim, uint64_t injector_seed,
                             flash::PointerCorruptionMode mode, Time give_up,
                             PointerLocator locate, OnLanded on_landed) {
  // Reachable = kernel up AND hardware alive; a node-failure victim stays
  // alive() until agreement confirms, but its memory is already gone.
  if (!sys.CellReachable(victim)) {
    return;  // Already dead (earlier fault); corrupting it adds nothing.
  }
  Cell& cell = sys.cell(victim);
  for (const auto& [pid, proc] : cell.sched().live_processes()) {
    const std::optional<hive::PhysAddr> addr = locate(cell, *proc);
    if (!addr.has_value()) {
      continue;
    }
    flash::FaultInjector injector(&sys.machine(), injector_seed);
    Cell& other = sys.cell(static_cast<CellId>((victim + 1) % sys.num_cells()));
    injector.CorruptPointer(*addr, mode, cell.mem_base(), cell.mem_size(), other.mem_base(),
                            other.mem_size());
    on_landed();
    return;
  }
  if (sys.machine().Now() < give_up) {
    sys.machine().events().ScheduleAfter(
        10 * kMillisecond, [&sys, victim, injector_seed, mode, give_up,
                            locate = std::move(locate),
                            on_landed = std::move(on_landed)]() mutable {
          CorruptPointerWhenFound(sys, victim, injector_seed, mode, give_up, std::move(locate),
                                  std::move(on_landed));
        });
  }
}

std::optional<hive::PhysAddr> CachedFrame(Cell& cell, const std::string& path,
                                          uint64_t page) {
  Ctx ctx = cell.MakeCtx();
  auto handle = cell.fs().Open(ctx, path);
  if (!handle.ok()) {
    return std::nullopt;
  }
  auto pfdat = cell.fs().GetPage(ctx, *handle, page, /*want_write=*/false,
                                 hive::FileSystem::AccessPath::kSyscall);
  if (!pfdat.ok()) {
    return std::nullopt;
  }
  return (*pfdat)->frame;
}

bool WildWrite(HiveSystem& sys, CellId writer, CellId target, hive::PhysAddr addr,
               std::span<const uint8_t> bytes) {
  Cell& cell = sys.cell(writer);
  const int writer_cpu = sys.machine().FirstCpuOfNode(cell.first_node());
  // The firewall denies the write with a trap, a legal outcome: the writer's
  // kernel took it outside any careful section, so section 4.1 panics it.
  if (flash::CaptureTrap([&] { sys.machine().mem().Write(writer_cpu, addr, bytes); })) {
    std::ostringstream reason;
    reason << "wild write into cell " << target << " denied by firewall";
    cell.Panic(reason.str());
    return false;
  }
  return true;
}

bool FalseAccusation(HiveSystem& sys, CellId accuser, CellId accused) {
  if (!sys.CellReachable(accuser) || !sys.CellReachable(accused)) {
    return false;
  }
  Ctx ctx = sys.cell(accuser).MakeCtx();
  sys.HandleAlert(ctx, accuser, accused, hive::HintReason::kRpcTimeout);
  return true;
}

void InstallMessageFaults(HiveSystem& sys, uint64_t seed, flash::MessageFaultPlan plan) {
  flash::Machine& machine = sys.machine();
  if (machine.message_faults() == nullptr) {
    machine.EnableMessageFaults(seed ^ 0x6D7367666Cull);
  }
  plan.delay_max_ns = 30 * hive::kMicrosecond;
  machine.message_faults()->AddPlan(plan);
}

bool TurnRogue(HiveSystem& sys, CellId victim, CellId target, uint32_t axes, uint64_t seed,
               uint64_t salt, Time drive_until) {
  if (!sys.CellReachable(victim)) {
    return false;
  }
  Cell& cell = sys.cell(victim);
  hive::RogueBehavior behavior;
  behavior.active = true;
  behavior.clock_freeze = (axes & kRogueClockFreeze) != 0;
  behavior.clock_drift = (axes & kRogueClockDrift) != 0;
  behavior.rpc_silent = (axes & kRogueRpcSilence) != 0;
  behavior.rpc_garbage = (axes & kRogueRpcGarbage) != 0;
  behavior.vote_contrarian = (axes & kRogueVoteContrarian) != 0;
  behavior.garbage_seed = seed ^ (0x90609ull << 32) ^ salt;
  cell.SetRogueBehavior(behavior);

  // Heap axes: a cell's own bug scribbling its own memory (raw path) --
  // damage to others can only flow through checked reads of that memory.
  const uint32_t heap_axes =
      kRogueHeapScribble | kRogueHeapBadPtr | kRogueHeapCycle | kRogueHeapTorn;
  if ((axes & heap_axes) != 0) {
    flash::FaultInjector injector(&sys.machine(), seed ^ (0xBADull << 32) ^ salt);
    const std::vector<hive::PhysAddr>& nodes = cell.chain_node_addrs();
    if ((axes & kRogueHeapScribble) != 0 && nodes.size() > 1) {
      // Scribble the second node's type tag: the walk passes the head, then
      // the careful reference protocol's tag check must refuse the node.
      injector.CorruptTypeTag(nodes[1] - hive::KernelHeap::kHeaderSize + 4, 0xDEADBEEFu);
    }
    if ((axes & kRogueHeapBadPtr) != 0 && !nodes.empty()) {
      // Bend the head's next pointer into another cell's range: the chase
      // must refuse to follow a pointer outside the suspect's memory.
      injector.WriteWord(nodes[0] + 8, sys.cell(target).mem_base() + 64);
    }
    if ((axes & kRogueHeapCycle) != 0 && !nodes.empty()) {
      injector.WriteWord(nodes.back() + 8, cell.chain_head_addr());
    }
    if ((axes & kRogueHeapTorn) != 0 && cell.seq_block_addr() != 0) {
      // A writer died mid-update: odd sequence word plus a half-written
      // payload. Generation-retry readers must give up, never spin forever.
      injector.WriteWord(cell.seq_block_addr(), 3);
      injector.WriteWord(cell.seq_block_addr() + 8, injector.rng().Next());
    }
  }

  if ((axes & kRogueRpcBabble) != 0) {
    DriveRogueBabble(sys, victim, drive_until);
  }
  if ((axes & kRogueVoteAccuse) != 0) {
    DriveRogueAccusations(sys, victim, target, drive_until);
  }
  return true;
}

void RunRebootStorm(HiveSystem& sys, CellId first, uint32_t cycles, Time until,
                    NextStormKill next, OnLanded on_landed) {
  StormKill(sys, /*cycle=*/0, first, cycles, until, std::move(next), std::move(on_landed));
}

void DriveHeartbeats(HiveSystem& sys, Time until) {
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
        cell.detector().RaiseHintWithEvidence(ctx, peer,
                                              hive::HintReason::kInvariantMismatch,
                                              evidence);
      }
    }
  }
  if (sys.machine().Now() + 20 * kMillisecond <= until) {
    sys.machine().events().ScheduleAfter(20 * kMillisecond,
                                         [&sys, until] { DriveHeartbeats(sys, until); });
  }
}

void ProbeIntercellRpc(HiveSystem& sys, Time period, Time until) {
  for (CellId c = 0; c < sys.num_cells(); ++c) {
    const CellId peer = static_cast<CellId>((c + 1) % sys.num_cells());
    if (peer == c || !sys.CellReachable(c) || !sys.CellReachable(peer) ||
        sys.cell(c).in_recovery() || sys.cell(peer).in_recovery()) {
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
  if (sys.machine().Now() + period <= until) {
    sys.machine().events().ScheduleAfter(
        period, [&sys, period, until] { ProbeIntercellRpc(sys, period, until); });
  }
}

}  // namespace campaign
