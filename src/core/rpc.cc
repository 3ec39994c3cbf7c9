#include "src/core/rpc.h"

#include <algorithm>

#include "src/base/sim_profile.h"
#include "src/core/cell.h"
#include "src/core/hive_system.h"
#include "src/flash/fault_injector.h"

namespace hive {
namespace {

// Fate of one message hop under the active fault model (if any). A corrupted
// line is detected by the per-line checksum at the receiver, so for the
// synchronous client it is indistinguishable from a drop except in the stats.
struct HopFate {
  bool lost = false;
  bool corrupt = false;
  bool duplicate = false;
  Time extra_delay = 0;
};

HopFate SampleHop(flash::MessageFaultModel* model, const flash::Interconnect& mesh,
                  Time now, int src_node, int dst_node) {
  // One SIPS line crossing the mesh. The transport layer models the wire
  // inline rather than round-tripping through flash::Sips, so this is where
  // SIPS delivery work is attributable: its own profile row (nested under the
  // caller's kCarefulRpc scope, which pauses while the hop is sampled)
  // instead of being folded into careful_rpc/other. ops(kSips) counts hops.
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
      // A delayed line took a non-minimal route: at least one detour hop.
      fate.extra_delay = std::max<Time>(decision.delay_ns,
                                        mesh.DetourExtraNs(src_node, dst_node, 1));
      break;
  }
  return fate;
}

}  // namespace

RpcLayer::RpcLayer(Cell* cell, HiveSystem* system, const KernelCosts& costs)
    : cell_(cell), system_(system), costs_(costs) {}

void RpcLayer::RegisterInterrupt(MsgType type, RpcHandler handler) {
  handlers_[static_cast<uint32_t>(type)] =
      Registration{std::move(handler), /*queued=*/false, /*at_most_once=*/false};
}

void RpcLayer::RegisterQueued(MsgType type, RpcHandler handler) {
  handlers_[static_cast<uint32_t>(type)] =
      Registration{std::move(handler), /*queued=*/true, /*at_most_once=*/false};
}

void RpcLayer::RegisterInterruptAtMostOnce(MsgType type, RpcHandler handler) {
  handlers_[static_cast<uint32_t>(type)] =
      Registration{std::move(handler), /*queued=*/false, /*at_most_once=*/true};
}

void RpcLayer::RegisterQueuedAtMostOnce(MsgType type, RpcHandler handler) {
  handlers_[static_cast<uint32_t>(type)] =
      Registration{std::move(handler), /*queued=*/true, /*at_most_once=*/true};
}

bool RpcLayer::IsAtMostOnce(MsgType type) const {
  auto it = handlers_.find(static_cast<uint32_t>(type));
  return it != handlers_.end() && it->second.at_most_once;
}

base::Status RpcLayer::Serve(Ctx& server_ctx, MsgType type, const RpcArgs& args,
                             RpcReply* reply) {
  auto it = handlers_.find(static_cast<uint32_t>(type));
  if (it == handlers_.end()) {
    return base::NotFound();
  }
  if (it->second.queued) {
    // Queued service: the interrupt-level stub launches the operation on a
    // server process; context switch + synchronization dominate (section 6).
    server_ctx.Charge(costs_.rpc_queue_service_ns);
    ++stats_.queued_calls;
  }
  return it->second.handler(server_ctx, args, reply);
}

base::Status RpcLayer::ServeSequenced(Ctx& server_ctx, CellId client, uint64_t seq,
                                      MsgType type, const RpcArgs& args, RpcReply* reply,
                                      uint64_t client_epoch) {
  if (client_epoch != 0) {
    uint64_t& known = peer_epoch_[static_cast<int>(client)];
    if (client_epoch > known) {
      // The client rebooted since we last heard from it: its sequence space
      // restarted, so pre-crash replay entries must not answer its new calls.
      replay_.erase(static_cast<int>(client));
      known = client_epoch;
    } else if (client_epoch < known) {
      // A pre-crash straggler from an earlier incarnation (e.g. a duplicate
      // the substrate held across the reboot): serving it could mutate state
      // on behalf of a kernel that no longer exists.
      return base::Unavailable();
    }
  }
  auto& cache = replay_[static_cast<int>(client)];
  auto hit = cache.find(seq);
  const bool seen = hit != cache.end();
  if (seen && duplicate_suppression_) {
    // Retransmission or substrate duplicate of a request already served:
    // return the cached reply without re-running the handler.
    ++stats_.duplicates_suppressed;
    cell_->Trace(TraceEvent::kRpcDuplicateSuppressed, static_cast<uint64_t>(client));
    *reply = hit->second.reply;
    return hit->second.status;
  }
  if (seen && IsAtMostOnce(type)) {
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
  if (status.ok() && IsAtMostOnce(type)) {
    ++stats_.executed_mutations;
  }
  if (!seen) {
    cache.emplace(seq, ReplayEntry{status, *reply});
    if (cache.size() > kReplayCacheEntries) {
      cache.erase(cache.begin());  // Oldest sequence number.
    }
  }
  return status;
}

base::Status RpcLayer::TimeoutPath(Ctx& ctx, CellId target, bool exhausted) {
  // The client spins 50 us for a reply that never comes, then context
  // switches away.
  ctx.Charge(costs_.rpc_client_spin_poll_ns + costs_.rpc_context_switch_ns);
  ++stats_.timeouts;
  cell_->Trace(TraceEvent::kRpcTimeout, static_cast<uint64_t>(target));

  PeerHealth& health = health_[static_cast<int>(target)];
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
      health.quarantined = true;
      health.quarantine_until = ctx.VirtualNow() + kQuarantineProbationNs;
      ++stats_.quarantines_entered;
      cell_->Trace(TraceEvent::kPeerQuarantined, static_cast<uint64_t>(target));
    }
  }
  if (raise) {
    // RaiseHint may run agreement and recovery synchronously, which can
    // mutate health_ (OnSuspectCleared / ForgetPeer); `health` must not be
    // touched after this point.
    cell_->detector().RaiseHint(ctx, target, HintReason::kRpcTimeout);
  }
  return base::Timeout();
}

void RpcLayer::Unquarantine(PeerHealth& health, CellId peer) {
  health.quarantined = false;
  health.hint_outstanding = false;
  health.consecutive_exhaustions = 0;
  cell_->Trace(TraceEvent::kPeerUnquarantined, static_cast<uint64_t>(peer));
}

void RpcLayer::ForgetPeer(CellId peer) {
  health_.erase(static_cast<int>(peer));
  next_seq_.erase(static_cast<int>(peer));
  replay_.erase(static_cast<int>(peer));
  peer_epoch_.erase(static_cast<int>(peer));
}

void RpcLayer::OnSuspectCleared(CellId suspect) {
  auto it = health_.find(static_cast<int>(suspect));
  if (it == health_.end()) {
    return;
  }
  PeerHealth& health = it->second;
  health.consecutive_exhaustions = 0;
  if (!health.hint_outstanding && !health.quarantined) {
    return;  // This cell never suspected the peer; nothing to reset.
  }
  // The peer is healthy by majority vote. Convert the suspicion into a
  // bounded probation: fail fast until it expires, then automatically
  // un-quarantine and allow a fresh hint. This rate-limits hint storms
  // (which would accumulate voting strikes against a healthy accuser) and
  // bounds how long a quarantine can outlive the agreement that cleared it.
  const Time now = cell_->machine().Now();
  if (!health.quarantined) {
    health.quarantined = true;
    ++stats_.quarantines_entered;
    cell_->Trace(TraceEvent::kPeerQuarantined, static_cast<uint64_t>(suspect));
  }
  health.quarantine_until = std::max(health.quarantine_until, now + kQuarantineProbationNs);
}

bool RpcLayer::quarantined(CellId peer) const {
  auto it = health_.find(static_cast<int>(peer));
  return it != health_.end() && it->second.quarantined;
}

void RpcLayer::QuarantinePeer(Ctx& ctx, CellId peer) {
  PeerHealth& health = health_[static_cast<int>(peer)];
  // Suppress the redundant rpc-timeout hint: the caller (babble throttle)
  // raises its own, more specific hint.
  health.hint_outstanding = true;
  health.quarantine_until =
      std::max(health.quarantine_until, ctx.VirtualNow() + kQuarantineProbationNs);
  if (!health.quarantined) {
    health.quarantined = true;
    ++stats_.quarantines_entered;
    cell_->Trace(TraceEvent::kPeerQuarantined, static_cast<uint64_t>(peer));
  }
}

base::Status RpcLayer::Call(Ctx& ctx, CellId target, MsgType type, const RpcArgs& args,
                            RpcReply* reply, const CallOptions& options) {
  base::SimProfileScope profile_scope(base::SimSubsystem::kCarefulRpc);
  ++stats_.calls;
  const flash::LatencyParams& lat = cell_->machine().config().latency;
  const Time sips_hop = lat.ipi_ns + lat.sips_payload_ns;

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

  // Quarantine fail-fast. Agreement probes (kPing) bypass the gate so the
  // voting protocol always measures the real path.
  if (type != MsgType::kPing) {
    auto hit = health_.find(static_cast<int>(target));
    if (hit != health_.end() && hit->second.quarantined) {
      if (ctx.VirtualNow() >= hit->second.quarantine_until) {
        Unquarantine(hit->second, target);
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

  flash::MessageFaultModel* model = cell_->machine().sips().fault_model();
  const flash::Interconnect& mesh = cell_->machine().interconnect();
  const int cpus_per_node = cell_->machine().config().cpus_per_node;
  const int src_node = ctx.cpu >= 0 ? ctx.cpu / cpus_per_node : cell_->first_node();
  // One sequence number per logical call; every retransmission reuses it so
  // the server's replay cache can tell a retry from a new call.
  const uint64_t seq = ++next_seq_[static_cast<int>(target)];

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

    const HopFate request = SampleHop(model, mesh, ctx.VirtualNow(), src_node, dst_node);
    if (request.lost) {
      if (request.corrupt) {
        ++stats_.corrupt_lost;
      }
      // The request never arrived; spin out the reply window, then retry.
      ctx.Charge(costs_.rpc_client_spin_poll_ns + costs_.rpc_context_switch_ns);
      continue;
    }

    // Request message delivery (plus any detour the fault model imposed).
    ctx.Charge(sips_hop + request.extra_delay);

    if (tcell.rogue().rpc_silent) {
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

    server_ctx.Charge(costs_.rpc_dispatch_ns + costs_.rpc_server_stub_ns);
    base::Status status = base::OkStatus();
    if (!tcell.detector().RecordIncomingRequest(server_ctx, cell_->id())) {
      // Babble throttle: the server rejects the request at the dispatch
      // boundary -- O(1) for the victim, a full round trip for the babbler.
      status = base::Unavailable();
    } else {
      status = tcell.rpc().ServeSequenced(server_ctx, cell_->id(), seq, type, args, reply,
                                          cell_->incarnation());
    }

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
      // server pays the interrupt + stub again and the replay cache absorbs
      // it (or, with suppression disabled, re-executes -- the at-most-once
      // violation the campaign fixture exists to demonstrate). The client
      // already has its reply and does not wait for this.
      Ctx dup_ctx;
      dup_ctx.cell = &tcell;
      dup_ctx.cpu = server_cpu;
      dup_ctx.start = server_ctx.VirtualNow();
      dup_ctx.Charge(costs_.rpc_dispatch_ns + costs_.rpc_server_stub_ns);
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

    const HopFate reply_hop = SampleHop(model, mesh, ctx.VirtualNow(), dst_node, src_node);
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
    ctx.Charge(sips_hop + reply_hop.extra_delay);

    auto health_it = health_.find(static_cast<int>(target));
    if (health_it != health_.end()) {
      health_it->second.consecutive_exhaustions = 0;
    }
    if (status.ok() && tcell.rpc().IsAtMostOnce(type)) {
      ++stats_.acked_mutations;
    }
    return status;
  }

  // Every attempt lost a hop: the peer may be unreachable in a way the
  // node-death check cannot see, or the path is too lossy to use.
  return TimeoutPath(ctx, target, /*exhausted=*/true);
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

  {
    auto hit = health_.find(static_cast<int>(target));
    if (hit != health_.end() && hit->second.quarantined) {
      if (ctx.VirtualNow() >= hit->second.quarantine_until) {
        Unquarantine(hit->second, target);
      } else {
        ++stats_.quarantine_fail_fast;
        return base::Unavailable();
      }
    }
  }

  Cell& tcell = system_->cell(target);
  if (!system_->CellReachable(target)) {
    return TimeoutPath(ctx, target, /*exhausted=*/false);
  }
  if (tcell.in_recovery()) {
    return base::Unavailable();
  }

  flash::MessageFaultModel* model = cell_->machine().sips().fault_model();
  const flash::Interconnect& mesh = cell_->machine().interconnect();
  const int cpus_per_node = cell_->machine().config().cpus_per_node;
  const int src_node = ctx.cpu >= 0 ? ctx.cpu / cpus_per_node : cell_->first_node();
  const uint64_t seq = ++next_seq_[static_cast<int>(target)];

  for (int attempt = 0; attempt < kMaxRpcAttempts; ++attempt) {
    if (attempt > 0) {
      ++stats_.retries;
      cell_->Trace(TraceEvent::kRpcRetry, static_cast<uint64_t>(target));
      Time backoff = std::min<Time>(kRpcBackoffBaseNs << (attempt - 1), kRpcBackoffCapNs);
      if (model != nullptr) {
        backoff += static_cast<Time>(
            model->rng().Below(static_cast<uint64_t>(kRpcBackoffJitterNs)));
      }
      ctx.Charge(backoff);
    }

    const auto& tcpus = tcell.cpus();
    const int server_cpu = tcpus[static_cast<size_t>(next_server_cpu_++) % tcpus.size()];
    const int dst_node = server_cpu / cpus_per_node;

    const HopFate request = SampleHop(model, mesh, ctx.VirtualNow(), src_node, dst_node);
    if (request.lost) {
      if (request.corrupt) {
        ++stats_.corrupt_lost;
      }
      ctx.Charge(costs_.rpc_client_spin_poll_ns + costs_.rpc_context_switch_ns);
      continue;
    }
    ctx.Charge(request.extra_delay);

    Ctx server_ctx;
    server_ctx.cell = &tcell;
    server_ctx.cpu = server_cpu;
    server_ctx.start = ctx.VirtualNow();
    server_ctx.fault_bd = ctx.fault_bd;

    const base::Status status = tcell.rpc().ServeSequenced(server_ctx, cell_->id(), seq, type,
                                                           args, reply, cell_->incarnation());

    Time extra_occupancy = 0;
    if (request.duplicate && tcell.alive()) {
      Ctx dup_ctx;
      dup_ctx.cell = &tcell;
      dup_ctx.cpu = server_cpu;
      dup_ctx.start = server_ctx.VirtualNow();
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

    flash::Cpu& scpu = cell_->machine().cpu(server_cpu);
    scpu.free_at = std::max(scpu.free_at, server_ctx.start) + server_ctx.elapsed +
                   extra_occupancy;
    ctx.Charge(server_ctx.elapsed);

    const HopFate reply_hop = SampleHop(model, mesh, ctx.VirtualNow(), dst_node, src_node);
    if (reply_hop.lost) {
      if (reply_hop.corrupt) {
        ++stats_.corrupt_lost;
      }
      ctx.Charge(costs_.rpc_client_spin_poll_ns + costs_.rpc_context_switch_ns);
      continue;
    }
    ctx.Charge(reply_hop.extra_delay);

    auto health_it = health_.find(static_cast<int>(target));
    if (health_it != health_.end()) {
      health_it->second.consecutive_exhaustions = 0;
    }
    if (status.ok() && tcell.rpc().IsAtMostOnce(type)) {
      ++stats_.acked_mutations;
    }
    return status;
  }

  return TimeoutPath(ctx, target, /*exhausted=*/true);
}

}  // namespace hive
