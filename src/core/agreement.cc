#include "src/core/agreement.h"

#include "src/base/log.h"
#include "src/core/careful_ref.h"
#include "src/core/cell.h"
#include "src/core/hive_system.h"
#include "src/core/rpc.h"

namespace hive {
namespace {

// Cost of one oracle consultation (the paper's experiments used an oracle
// whose cost the machine model exposes "unambiguously", section 7.2).
constexpr Time kOracleRoundNs = 50 * kMicrosecond;
// Coordination messages for a voting round (collect + decide broadcasts).
constexpr Time kVoteCoordinationNs = 40 * kMicrosecond;
// A voter that does not deliver its vote within this budget is counted as a
// timeout: a mute live cell cannot stall confirmation indefinitely.
constexpr Time kVoteTimeoutNs = 200 * kMicrosecond;
// Bounded work for evidence corroboration walks.
constexpr int kProbeChainMaxHops = 16;
constexpr int kProbeSeqMaxRetries = 3;

// kVoteCast arg1 encoding (see trace.h).
constexpr uint64_t kVoteAgainst = 0;
constexpr uint64_t kVoteFor = 1;
constexpr uint64_t kVoteTimedOut = 2;

uint64_t StrikeKey(CellId accuser, CellId suspect) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(accuser)) << 32) |
         static_cast<uint32_t>(suspect);
}

}  // namespace

bool Agreement::ProbeSuspect(Ctx& ctx, CellId prober, CellId suspect) {
  Cell& prober_cell = system_->cell(prober);
  Cell& suspect_cell = system_->cell(suspect);

  // Probe 1: careful read of the suspect's clock word. A bus error or a bad
  // tag is a strong failure signal.
  Ctx probe_ctx;
  probe_ctx.cell = &prober_cell;
  probe_ctx.cpu = prober_cell.FirstCpu();
  probe_ctx.start = ctx.VirtualNow();
  {
    CarefulRef careful(&probe_ctx, &prober_cell.machine().mem(), prober_cell.costs(),
                       suspect, suspect_cell.mem_base(), suspect_cell.mem_size());
    auto read =
        careful.ReadTagged<uint64_t>(suspect_cell.clock_word_addr(), kTagClockWord);
    if (!read.ok()) {
      ctx.Charge(probe_ctx.elapsed);
      return true;  // Unreachable or corrupt: vote failed.
    }
  }

  // Probe 2: ping RPC; a live kernel answers at interrupt level.
  RpcArgs args;
  RpcReply reply;
  base::Status status =
      prober_cell.rpc().Call(probe_ctx, suspect, MsgType::kPing, args, &reply);
  ctx.Charge(probe_ctx.elapsed);
  return !status.ok();
}

AgreementResult Agreement::RunRound(Ctx& ctx, CellId accuser, CellId suspect,
                                    HintReason reason) {
  (void)reason;
  AgreementResult result;
  const Time round_start = ctx.elapsed;

  // Evidence the accuser attached to this hint (invalid if none): voters
  // corroborate it independently rather than trusting the accusation.
  const HintEvidence& evidence =
      system_->cell(accuser).detector().EvidenceAgainst(suspect);

  if (mode_ == AgreementMode::kOracle) {
    ctx.Charge(kOracleRoundNs);
    Cell& cell = system_->cell(suspect);
    bool failed = !cell.alive() || cell.rogue_active();
    for (int node = cell.first_node(); node < cell.first_node() + cell.num_nodes();
         ++node) {
      failed = failed || system_->machine().NodeDead(node);
    }
    result.confirmed = failed;
    if (failed) {
      result.failed.push_back(suspect);
    }
  } else {
    // Voting: every live cell other than the suspect probes independently.
    ctx.Charge(kVoteCoordinationNs);
    int votes_for = 0;
    int votes_against = 0;
    for (CellId prober : system_->LiveCells()) {
      if (prober == suspect) {
        continue;
      }
      Cell& prober_cell = system_->cell(prober);
      if (prober_cell.rogue().rpc_silent) {
        // A mute live voter never delivers its vote: after the per-vote
        // timeout the round proceeds without it instead of stalling.
        ctx.Charge(kVoteTimeoutNs);
        ++vote_timeouts_;
        prober_cell.Trace(TraceEvent::kVoteCast, static_cast<uint64_t>(suspect),
                          kVoteTimedOut);
        continue;
      }
      bool thinks_failed = evidence.valid
                               ? CorroborateEvidence(ctx, prober, suspect, evidence)
                               : ProbeSuspect(ctx, prober, suspect);
      if (prober_cell.rogue().vote_contrarian) {
        // Byzantine voter: reports the opposite of its own observation.
        thinks_failed = !thinks_failed;
      }
      if (thinks_failed) {
        ++votes_for;
      } else {
        ++votes_against;
      }
      prober_cell.Trace(TraceEvent::kVoteCast, static_cast<uint64_t>(suspect),
                        thinks_failed ? kVoteFor : kVoteAgainst);
    }
    result.votes_for = votes_for;
    result.votes_against = votes_against;
    result.confirmed = votes_for > votes_against;
    if (result.confirmed) {
      result.failed.push_back(suspect);
    }
  }

  if (!result.confirmed) {
    // The accuser cried wolf. Twice for the same suspect and the other cells
    // conclude the *accuser* is corrupt (paper section 4.3).
    ++false_alerts_;
    const uint64_t key = StrikeKey(accuser, suspect);
    if (++strikes_[key] >= 2) {
      strikes_.erase(key);
      result.confirmed = true;
      result.failed.push_back(accuser);
      LOG(kInfo) << "cell " << accuser << " voted down twice accusing " << suspect
                 << ": declared corrupt";
    }
  }

  // The accuser's evidence is single-use: clear it so a later hint without
  // evidence cannot ride on a stale observation.
  system_->cell(accuser).detector().ClearEvidence(suspect);

  result.round_cost_ns = ctx.elapsed - round_start;
  if (result.round_cost_ns > max_round_cost_ns_) {
    max_round_cost_ns_ = result.round_cost_ns;
  }
  return result;
}

bool Agreement::CorroborateEvidence(Ctx& ctx, CellId prober, CellId suspect,
                                    const HintEvidence& evidence) {
  Cell& prober_cell = system_->cell(prober);
  Cell& suspect_cell = system_->cell(suspect);

  Ctx probe_ctx;
  probe_ctx.cell = &prober_cell;
  probe_ctx.cpu = prober_cell.FirstCpu();
  probe_ctx.start = ctx.VirtualNow();

  bool corroborated = false;
  switch (evidence.reason) {
    case HintReason::kClockStale: {
      // Re-read the suspect's clock word: still pinned at the value the
      // accuser saw (or unreadable) corroborates the freeze.
      CarefulRef careful(&probe_ctx, &prober_cell.machine().mem(), prober_cell.costs(),
                         suspect, suspect_cell.mem_base(), suspect_cell.mem_size());
      auto read =
          careful.ReadTagged<uint64_t>(suspect_cell.clock_word_addr(), kTagClockWord);
      corroborated = !read.ok() || *read == evidence.clock_value;
      break;
    }
    case HintReason::kClockDrift: {
      // The accuser claims the clock advanced `< 3/4` of the expected rate
      // over `ticks_observed` ticks starting from `clock_value`. A healthy
      // suspect has advanced well past that window by now; a drifting one is
      // still behind the 3/4 line.
      CarefulRef careful(&probe_ctx, &prober_cell.machine().mem(), prober_cell.costs(),
                         suspect, suspect_cell.mem_base(), suspect_cell.mem_size());
      auto read =
          careful.ReadTagged<uint64_t>(suspect_cell.clock_word_addr(), kTagClockWord);
      if (!read.ok()) {
        corroborated = true;
      } else {
        const uint64_t advance = *read - evidence.clock_value;
        corroborated =
            advance * 4 < static_cast<uint64_t>(evidence.ticks_observed) * 3;
      }
      break;
    }
    case HintReason::kCarefulCheckFailed: {
      CarefulRef careful(&probe_ctx, &prober_cell.machine().mem(), prober_cell.costs(),
                         suspect, suspect_cell.mem_base(), suspect_cell.mem_size());
      switch (evidence.structure) {
        case EvidenceStructure::kClockWord: {
          auto read = careful.ReadTagged<uint64_t>(suspect_cell.clock_word_addr(),
                                                   kTagClockWord);
          corroborated = !read.ok();
          break;
        }
        case EvidenceStructure::kChain: {
          // Re-walk the suspect's published chain with a bounded chase; the
          // prober uses its own knowledge of the head address, never one
          // supplied by the (possibly lying) accuser.
          const PhysAddr head = suspect_cell.chain_head_addr();
          if (head == 0) {
            break;
          }
          auto walk = careful.ChaseChain(head, kTagChainNode, kProbeChainMaxHops);
          prober_cell.detector().NoteTraversal(careful.last_chain_hops());
          corroborated = !walk.ok();
          break;
        }
        case EvidenceStructure::kSeqBlock: {
          const PhysAddr block = suspect_cell.seq_block_addr();
          if (block == 0) {
            break;
          }
          auto snap = careful.ReadSeqlocked(block, kTagSeqBlock, kProbeSeqMaxRetries);
          corroborated = !snap.ok() || snap->word1 != ~snap->word0;
          break;
        }
        case EvidenceStructure::kRpcReply:  // Raised as kInvariantMismatch.
        case EvidenceStructure::kNone:
          break;
      }
      break;
    }
    case HintReason::kBabbling:
      // The babbler floods everyone: the prober checks its own incoming-rate
      // counter for the suspect instead of any remote state.
      corroborated = prober_cell.detector().IncomingCount(suspect) >=
                     FailureDetector::kBabbleThreshold / 2;
      break;
    case HintReason::kInvariantMismatch:
      if (evidence.structure == EvidenceStructure::kRpcReply) {
        // The accuser saw garbage payload words in a reply. A rogue garbles
        // its replies to everyone, so the prober's own null RPC (whose reply
        // must be all-zero) reproduces the observation.
        RpcArgs args;
        RpcReply reply;
        base::Status status =
            prober_cell.rpc().Call(probe_ctx, suspect, MsgType::kNull, args, &reply);
        corroborated = !status.ok();
        for (uint64_t word : reply.w) {
          corroborated = corroborated || word != 0;
        }
        break;
      }
      [[fallthrough]];
    case HintReason::kRpcTimeout:
    case HintReason::kBusError:
      // No structural evidence to re-run: fall back to the classic probe.
      ctx.Charge(probe_ctx.elapsed);
      return ProbeSuspect(ctx, prober, suspect);
  }
  ctx.Charge(probe_ctx.elapsed);
  return corroborated;
}

}  // namespace hive
