#include "src/core/rpc.h"

#include <algorithm>

#include "src/base/sim_profile.h"
#include "src/core/cell.h"
#include "src/core/hive_system.h"
#include "src/flash/fault_injector.h"

namespace hive {
namespace {

// A delayed line takes a non-minimal route: at least one detour hop. The flat
// machine model (section 7.2) has no per-hop cost, so a detour costs this.
constexpr Time kDetourHopNs = 500;

// Fate of one message hop under the active fault model (if any). A corrupted
// line is detected by the per-line checksum at the receiver, so for the
// synchronous client it is indistinguishable from a drop except in the stats.
struct HopFate {
  bool lost = false;
  bool corrupt = false;
  bool duplicate = false;
  Time extra_delay = 0;
};

HopFate SampleHop(flash::MessageFaultModel* model, Time now, int src_node, int dst_node) {
  // One SIPS line between two nodes: the simulator's only model of the hop,
  // so SIPS delivery work is attributed here, to its own profile row (nested
  // under the caller's kCarefulRpc scope, which pauses while the hop is
  // sampled) instead of being folded into careful_rpc/other. ops(kSips)
  // counts hops.
  base::SimProfileScope profile_scope(base::SimSubsystem::kSips);
  HopFate fate;
  if (model == nullptr) {
    return fate;
  }
  const flash::MessageFaultDecision decision = model->Sample(now, src_node, dst_node);
  switch (decision.kind) {
    case flash::MessageFaultKind::kNone:
      break;
    case flash::MessageFaultKind::kDrop:
      fate.lost = true;
      break;
    case flash::MessageFaultKind::kCorrupt:
      fate.lost = true;
      fate.corrupt = true;
      break;
    case flash::MessageFaultKind::kDuplicate:
      fate.duplicate = true;
      break;
    case flash::MessageFaultKind::kDelay:
      fate.extra_delay = std::max<Time>(decision.delay_ns, kDetourHopNs);
      break;
  }
  return fate;
}

}  // namespace

RpcLayer::RpcLayer(Cell* cell, HiveSystem* system, const KernelCosts& costs)
    : cell_(cell),
      system_(system),
      costs_(costs),
      peers_(static_cast<size_t>(system->num_cells())) {}

base::Status RpcLayer::Serve(Ctx& server_ctx, MsgType type, const RpcArgs& args,
                             RpcReply* reply) {
  const RpcHandler& handler = handlers_[static_cast<size_t>(type)];
  if (handler == nullptr) {
    return base::NotFound();
  }
  if (Traits(type).queued) {
    // Queued service: the interrupt-level stub launches the operation on a
    // server process; context switch + synchronization dominate (section 6).
    server_ctx.Charge(costs_.rpc_queue_service_ns);
    ++stats_.queued_calls;
  }
  return handler(server_ctx, args, reply);
}

base::Status RpcLayer::ServeSequenced(Ctx& server_ctx, CellId client, uint64_t seq,
                                      MsgType type, const RpcArgs& args, RpcReply* reply,
                                      uint64_t client_epoch) {
  Peer& from = peer(client);
  if (client_epoch != 0) {
    if (client_epoch > from.epoch) {
      // The client rebooted since we last heard from it: its sequence space
      // restarted, so pre-crash replay entries must not answer its new calls.
      ClearReplay(from);
      from.epoch = client_epoch;
    } else if (client_epoch < from.epoch) {
      // A pre-crash straggler from an earlier incarnation (e.g. a duplicate
      // the substrate held across the reboot): serving it could mutate state
      // on behalf of a kernel that no longer exists.
      return base::Unavailable();
    }
  }
  if (from.replay.empty()) {
    from.replay.resize(kReplayCacheEntries);
  }
  ReplaySlot& slot = from.replay[seq % kReplayCacheEntries];
  const bool seen = slot.seq == seq;
  if (seen && duplicate_suppression_) {
    // Retransmission or substrate duplicate of a request already served:
    // return the cached reply without re-running the handler.
    ++stats_.duplicates_suppressed;
    cell_->Trace(TraceEvent::kRpcDuplicateSuppressed, static_cast<uint64_t>(client));
    *reply = slot.reply;
    return slot.status;
  }
  if (seen && Traits(type).at_most_once) {
    // Suppression is disabled (campaign fixture): this re-execution of a
    // non-idempotent handler is exactly the bug the replay cache prevents.
    ++stats_.at_most_once_violations;
  }
  base::Status status = base::OkStatus();
  if (!cell_->RunKernel("during RPC service",
                        [&] { status = Serve(server_ctx, type, args, reply); })) {
    // The serving kernel panicked: nothing is cached or counted, and the
    // client, finding this cell unreachable, times out.
    return base::Unavailable();
  }
  if (status.ok() && Traits(type).at_most_once) {
    ++stats_.executed_mutations;
  }
  if (seq > slot.seq) {
    // The slot's older entry is evicted. A sequence number already evicted
    // (one the ring has since passed) stays out, as it would in a cache of
    // the highest numbers served.
    slot = ReplaySlot{seq, status, *reply};
  }
  return status;
}

void RpcLayer::ClearReplay(Peer& client) {
  for (ReplaySlot& slot : client.replay) {
    slot.seq = 0;
  }
}

base::Status RpcLayer::TimeoutPath(Ctx& ctx, CellId target, bool exhausted) {
  // The client spins 50 us for a reply that never comes, then context
  // switches away.
  ctx.Charge(costs_.rpc_client_spin_poll_ns + costs_.rpc_context_switch_ns);
  ++stats_.timeouts;
  cell_->Trace(TraceEvent::kRpcTimeout, static_cast<uint64_t>(target));

  PeerHealth& health = peer(target).health;
  bool raise = false;
  if (!health.hint_outstanding) {
    // At most one hint per agreement window: the flag stays set until the
    // suspect is cleared by agreement (probation expiry) or forgotten on
    // reintegration, so retries and repeated calls do not hint-storm the
    // voting protocol.
    health.hint_outstanding = true;
    raise = true;
  }
  if (exhausted) {
    ++health.consecutive_exhaustions;
    if (!health.quarantined && health.consecutive_exhaustions >= kQuarantineThreshold) {
      Quarantine(health, target, ctx.VirtualNow() + kQuarantineProbationNs);
    }
  }
  if (raise) {
    // RaiseHint may run agreement and recovery synchronously, which can
    // reset the peer's record (OnSuspectCleared / ForgetPeer); `health` must
    // not be touched after this point.
    cell_->detector().RaiseHint(ctx, target, HintReason::kRpcTimeout);
  }
  return base::Timeout();
}

void RpcLayer::Quarantine(PeerHealth& health, CellId peer, Time until) {
  if (!health.quarantined) {
    health.quarantined = true;
    health.quarantine_until = until;
    ++stats_.quarantines_entered;
    cell_->Trace(TraceEvent::kPeerQuarantined, static_cast<uint64_t>(peer));
  }
  health.quarantine_until = std::max(health.quarantine_until, until);
}

void RpcLayer::Unquarantine(PeerHealth& health, CellId peer) {
  health.quarantined = false;
  health.hint_outstanding = false;
  health.consecutive_exhaustions = 0;
  cell_->Trace(TraceEvent::kPeerUnquarantined, static_cast<uint64_t>(peer));
}

void RpcLayer::ForgetPeer(CellId peer_id) {
  Peer& forgotten = peer(peer_id);
  forgotten.health = PeerHealth{};
  forgotten.next_seq = 0;
  forgotten.epoch = 0;
  ClearReplay(forgotten);
}

void RpcLayer::OnSuspectCleared(CellId suspect) {
  PeerHealth& health = peer(suspect).health;
  health.consecutive_exhaustions = 0;
  if (!health.hint_outstanding && !health.quarantined) {
    return;  // This cell never suspected the peer; nothing to reset.
  }
  // The peer is healthy by majority vote. Convert the suspicion into a
  // bounded probation: fail fast until it expires, then automatically
  // un-quarantine and allow a fresh hint. This rate-limits hint storms
  // (which would accumulate voting strikes against a healthy accuser) and
  // bounds how long a quarantine can outlive the agreement that cleared it.
  Quarantine(health, suspect, cell_->machine().Now() + kQuarantineProbationNs);
}

bool RpcLayer::quarantined(CellId peer_id) const {
  return peers_[static_cast<size_t>(peer_id)].health.quarantined;
}

void RpcLayer::QuarantinePeer(Ctx& ctx, CellId peer_id) {
  PeerHealth& health = peer(peer_id).health;
  // Suppress the redundant rpc-timeout hint: the caller (babble throttle)
  // raises its own, more specific hint.
  health.hint_outstanding = true;
  Quarantine(health, peer_id, ctx.VirtualNow() + kQuarantineProbationNs);
}

base::Status RpcLayer::Call(Ctx& ctx, CellId target, MsgType type, const RpcArgs& args,
                            RpcReply* reply, const CallOptions& options) {
  base::SimProfileScope profile_scope(base::SimSubsystem::kCarefulRpc);
  ++stats_.calls;

  // Client stub marshals the request.
  ctx.Charge(costs_.rpc_client_stub_ns);
  if (options.fat_stub) {
    ctx.Charge(costs_.rpc_fat_stub_extra_ns);
  }
  if (options.bulk_bytes > 0) {
    // Argument/result data beyond the 128-byte line: allocate shared-memory
    // buffers and copy through them.
    ctx.Charge(costs_.rpc_arg_alloc_ns + costs_.rpc_arg_copy_ns);
  }

  if (target == cell_->id()) {
    // Intracell shortcut: dispatch directly (no SIPS, no transport).
    return Serve(ctx, type, args, reply);
  }
  const flash::LatencyParams& lat = cell_->machine().config().latency;
  return Transport(ctx, target, type, args, reply,
                   Wire{.hop_ns = lat.ipi_ns + lat.sips_payload_ns,
                        .server_entry_ns = costs_.rpc_dispatch_ns + costs_.rpc_server_stub_ns,
                        .screened = true});
}

base::Status RpcLayer::CallFault(Ctx& ctx, CellId target, MsgType type, const RpcArgs& args,
                                 RpcReply* reply) {
  base::SimProfileScope profile_scope(base::SimSubsystem::kCarefulRpc);
  ++stats_.calls;

  // Table 5.2 RPC components, charged on the client side (the client spins
  // for the whole exchange).
  ctx.Charge(costs_.fault_rpc_stub_ns);
  ctx.Charge(costs_.fault_rpc_hw_ns);
  ctx.Charge(costs_.fault_rpc_copy_ns);
  ctx.Charge(costs_.fault_rpc_alloc_ns);
  if (ctx.fault_bd != nullptr) {
    ctx.fault_bd->rpc_stub += costs_.fault_rpc_stub_ns;
    ctx.fault_bd->rpc_hw += costs_.fault_rpc_hw_ns;
    ctx.fault_bd->rpc_copy += costs_.fault_rpc_copy_ns;
    ctx.fault_bd->rpc_alloc += costs_.fault_rpc_alloc_ns;
  }
  // fault_rpc_hw_ns already covers the hops and the server's dispatch.
  return Transport(ctx, target, type, args, reply,
                   Wire{.hop_ns = 0, .server_entry_ns = 0, .screened = false});
}

base::Status RpcLayer::Transport(Ctx& ctx, CellId target, MsgType type, const RpcArgs& args,
                                 RpcReply* reply, const Wire& wire) {
  // Quarantine fail-fast. Agreement probes (kPing) bypass the gate so the
  // voting protocol always measures the real path.
  if (type != MsgType::kPing) {
    PeerHealth& health = peer(target).health;
    if (health.quarantined) {
      if (ctx.VirtualNow() >= health.quarantine_until) {
        Unquarantine(health, target);
      } else {
        ++stats_.quarantine_fail_fast;
        return base::Unavailable();
      }
    }
  }

  Cell& tcell = system_->cell(target);
  if (!system_->CellReachable(target)) {
    // The message vanishes and no retry can help: the node is gone. The
    // timeout raises a failure hint (at most one per agreement window).
    return TimeoutPath(ctx, target, /*exhausted=*/false);
  }
  if (tcell.in_recovery()) {
    // Requests to a cell that already joined the recovery barrier are held on
    // the client side (section 4.3); the caller retries after recovery.
    return base::Unavailable();
  }

  flash::MessageFaultModel* model = cell_->machine().message_faults();
  const int cpus_per_node = cell_->machine().config().cpus_per_node;
  const int src_node = ctx.cpu >= 0 ? ctx.cpu / cpus_per_node : cell_->first_node();
  // One sequence number per logical call; every retransmission reuses it so
  // the server's replay cache can tell a retry from a new call.
  const uint64_t seq = ++peer(target).next_seq;

  for (int attempt = 0; attempt < kMaxRpcAttempts; ++attempt) {
    if (attempt > 0) {
      ++stats_.retries;
      cell_->Trace(TraceEvent::kRpcRetry, static_cast<uint64_t>(target));
      // Capped exponential backoff with deterministic jitter from the
      // scenario RNG (retries only happen under an active fault model).
      Time backoff = std::min<Time>(kRpcBackoffBaseNs << (attempt - 1), kRpcBackoffCapNs);
      if (model != nullptr) {
        backoff += static_cast<Time>(
            model->rng().Below(static_cast<uint64_t>(kRpcBackoffJitterNs)));
      }
      ctx.Charge(backoff);
    }

    // Service on the target: round-robin over its processors.
    const auto& tcpus = tcell.cpus();
    const int server_cpu = tcpus[static_cast<size_t>(next_server_cpu_++) % tcpus.size()];
    const int dst_node = server_cpu / cpus_per_node;

    const HopFate request = SampleHop(model, ctx.VirtualNow(), src_node, dst_node);
    if (request.lost) {
      if (request.corrupt) {
        ++stats_.corrupt_lost;
      }
      // The request never arrived; spin out the reply window, then retry.
      ctx.Charge(costs_.rpc_client_spin_poll_ns + costs_.rpc_context_switch_ns);
      continue;
    }

    // Request message delivery (plus any detour the fault model imposed).
    ctx.Charge(wire.hop_ns + request.extra_delay);

    if (wire.screened && tcell.rogue().rpc_silent) {
      // Rogue silence: the request is delivered, but the Byzantine kernel
      // drops it on the floor -- no handler runs and no reply is sent. Every
      // attempt spins out, so the call exhausts its retries and the timeout
      // path escalates exactly as for a lossy link.
      ctx.Charge(costs_.rpc_client_spin_poll_ns + costs_.rpc_context_switch_ns);
      continue;
    }

    Ctx server_ctx;
    server_ctx.cell = &tcell;
    server_ctx.cpu = server_cpu;
    server_ctx.start = ctx.VirtualNow();
    server_ctx.fault_bd = ctx.fault_bd;

    server_ctx.Charge(wire.server_entry_ns);
    base::Status status = base::Unavailable();
    if (!wire.screened || tcell.detector().RecordIncomingRequest(server_ctx, cell_->id())) {
      status = tcell.rpc().ServeSequenced(server_ctx, cell_->id(), seq, type, args, reply,
                                          cell_->incarnation());
    }
    // Otherwise the babble throttle rejected the request at the dispatch
    // boundary -- O(1) for the victim, a full round trip for the babbler.

    if (tcell.rogue().rpc_garbage && status.ok() &&
        (type == MsgType::kNull || type == MsgType::kBorrowFrames)) {
      // Rogue garbage: the reply payload is scribbled but claims success.
      // Scoped to the probe/borrow control plane; clients of kBorrowFrames
      // validate the returned frame addresses against the lender's range
      // and convert nonsense into a careful-check hint.
      for (uint64_t& word : reply->w) {
        word = tcell.NextRogueGarbage();
      }
    }

    Time extra_occupancy = 0;
    if (request.duplicate && tcell.alive()) {
      // The duplicated request line arrives right behind the original; the
      // server pays the entry cost again and the replay cache absorbs it
      // (or, with suppression disabled, re-executes -- the at-most-once
      // violation the campaign fixture exists to demonstrate). The client
      // already has its reply and does not wait for this.
      Ctx dup_ctx;
      dup_ctx.cell = &tcell;
      dup_ctx.cpu = server_cpu;
      dup_ctx.start = server_ctx.VirtualNow();
      dup_ctx.Charge(wire.server_entry_ns);
      RpcReply scratch;
      // The duplicate's status is deliberately dropped: the client already
      // answered from the original; only the occupancy cost matters here.
      (void)tcell.rpc().ServeSequenced(dup_ctx, cell_->id(), seq, type, args, &scratch,
                                       cell_->incarnation());
      extra_occupancy = dup_ctx.elapsed;
    }

    if (!system_->CellReachable(target)) {
      return TimeoutPath(ctx, target, /*exhausted=*/false);
    }

    // Server occupancy: the serving CPU is busy for the service duration.
    flash::Cpu& scpu = cell_->machine().cpu(server_cpu);
    scpu.free_at = std::max(scpu.free_at, server_ctx.start) + server_ctx.elapsed +
                   extra_occupancy;

    // The client waits for the full service, then the reply message.
    ctx.Charge(server_ctx.elapsed);

    const HopFate reply_hop = SampleHop(model, ctx.VirtualNow(), dst_node, src_node);
    if (reply_hop.lost) {
      if (reply_hop.corrupt) {
        ++stats_.corrupt_lost;
      }
      // The reply vanished AFTER the handler ran: retransmit the same
      // sequence number; the server's replay cache makes this safe.
      ctx.Charge(costs_.rpc_client_spin_poll_ns + costs_.rpc_context_switch_ns);
      continue;
    }
    // A duplicated reply is trivially ignored by the spinning client.
    ctx.Charge(wire.hop_ns + reply_hop.extra_delay);

    peer(target).health.consecutive_exhaustions = 0;
    if (status.ok() && Traits(type).at_most_once) {
      ++stats_.acked_mutations;
    }
    return status;
  }

  // Every attempt lost a hop: the peer may be unreachable in a way the
  // node-death check cannot see, or the path is too lossy to use.
  return TimeoutPath(ctx, target, /*exhausted=*/true);
}

}  // namespace hive
