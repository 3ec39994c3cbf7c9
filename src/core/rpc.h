// Intercell remote procedure calls built on the SIPS hardware primitive
// (paper section 6). Two service classes:
//
//  - Interrupt-level: the request is serviced entirely in the receiving
//    node's message interrupt handler. Null RPC: 7.2 us end to end. The
//    client processor spins for the reply (up to 50 us) before context
//    switching, which almost never happens.
//  - Queued: an initial interrupt-level RPC launches the operation on a
//    server process, and a completion RPC returns the result. Null queued
//    RPC: 34 us, dominated by context switch + synchronization.
//
// The paper assumes the SIPS primitive is reliable. This layer does not:
// it is a reliable at-most-once transport over a possibly-faulty substrate
// (see flash::MessageFaultModel). The transport contract:
//
//  - Every call carries a per-peer monotonic sequence number. Lost or
//    corrupted hops (corruption is detected by the per-line checksum and
//    degrades into loss) are retried up to kMaxRpcAttempts times with
//    capped exponential backoff plus deterministic jitter drawn from the
//    scenario RNG.
//  - The server keeps a bounded per-client replay cache keyed by sequence
//    number: a retransmitted or duplicated request whose sequence number
//    was already served returns the cached reply without re-executing the
//    handler, so every handler -- and in particular every non-idempotent
//    one (kForkRemote, kCreate, kUnlink, kBorrowFrames, kGrantFirewall,
//    ...) -- executes at most once per call. Non-idempotent handlers are
//    registered through RegisterInterruptAtMostOnce/RegisterQueuedAtMostOnce
//    so the campaign oracles (and hive_lint rule R6) can audit the set.
//  - Repeated retry exhaustion against one peer escalates: the first
//    exhaustion raises a failure-detector hint (at most one hint per
//    agreement window, not one per retry), and kQuarantineThreshold
//    consecutive exhaustions put the peer in quarantine. Calls to a
//    quarantined peer fail fast with kUnavailable (the synchronous
//    equivalent of draining/aborting the in-flight queue) until agreement
//    clears the suspect and the probation window expires, after which the
//    peer is automatically un-quarantined. Agreement probes (kPing) bypass
//    quarantine so the voting protocol always measures the real path.
//
// Anything beyond the 128-byte line is passed by reference through shared
// memory (and read with the careful reference protocol where trust demands
// it).
//
// Simulation note: calls execute synchronously in the caller's event, with
// latencies charged to the client context and occupancy charged to the
// serving CPU. Failure semantics are preserved: calls to dead or panicked
// cells charge the spin + context-switch cost and return kTimeout (without
// burning retries -- a vanished node never answers), which feeds the failure
// detector a hint.

#ifndef HIVE_SRC_CORE_RPC_H_
#define HIVE_SRC_CORE_RPC_H_

#include <array>
#include <cstring>
#include <functional>
#include <map>
#include <unordered_map>

#include "src/base/status.h"
#include "src/core/context.h"
#include "src/core/costs.h"
#include "src/core/types.h"

namespace hive {

class Cell;
class HiveSystem;

enum class MsgType : uint32_t {
  kNull = 0,          // Latency calibration.
  kNullQueued,        // Latency calibration (queued service).
  kPageFault,         // Client fault on a remote file/anon page -> export.
  kUpgradeWrite,      // Client wants write access to an imported page.
  kReleasePage,       // Client released an imported page.
  kOpen,              // Resolve a file on its data home (queued).
  kCreate,            // Create a file on a data home (queued).
  kReadAhead,         // Bulk read pages into data-home cache (queued).
  kWriteBehind,       // Write one partial page through the data home (queued).
  kWriteBehindBulk,   // Write a batch of full pages through the data home.
  kSyncFile,          // Remote close: ask the data home to sync the file.
  kUnlink,            // Remove a file at its data home (queued).
  kBorrowFrames,      // Physical-level sharing: ask memory home for frames.
  kReturnFrame,       // Give a borrowed frame back.
  kGrantFirewall,     // Data home asks memory home to open the firewall.
  kRevokeFirewall,    // ... and to close it.
  kCowBind,           // Bind to an anonymous page found in a remote COW node.
  kForkRemote,        // Create a process on another cell (queued).
  kKillProc,          // Signal/kill a process on another cell.
  kPing,              // Agreement probe.
  kWaxHint,           // Wax pushes a policy hint to a cell.
  kNumTypes,
};

// Arguments/results must fit in one SIPS line together with the header.
constexpr size_t kRpcWords = 12;

// Transport policy knobs.
constexpr int kMaxRpcAttempts = 6;                      // 1 try + 5 retries.
constexpr Time kRpcBackoffBaseNs = 100 * kMicrosecond;  // First retry delay.
constexpr Time kRpcBackoffCapNs = 3200 * kMicrosecond;  // Backoff ceiling.
constexpr Time kRpcBackoffJitterNs = 50 * kMicrosecond; // Max added jitter.
constexpr int kQuarantineThreshold = 2;   // Consecutive exhaustions to quarantine.
constexpr Time kQuarantineProbationNs = 50 * kMillisecond;
constexpr size_t kReplayCacheEntries = 64;  // Per-client replay cache bound.

struct RpcArgs {
  std::array<uint64_t, kRpcWords> w{};
};

struct RpcReply {
  std::array<uint64_t, kRpcWords> w{};
};

struct RpcCallStats {
  uint64_t calls = 0;
  uint64_t timeouts = 0;      // Calls that gave up (dead peer or exhausted retries).
  uint64_t queued_calls = 0;
  uint64_t retries = 0;                 // Re-sent attempts after a lost hop.
  uint64_t duplicates_suppressed = 0;   // Server-side replay-cache hits.
  uint64_t corrupt_lost = 0;            // Hops lost to detected corruption.
  uint64_t quarantines_entered = 0;
  uint64_t quarantine_fail_fast = 0;    // Calls rejected while peer quarantined.
  uint64_t at_most_once_violations = 0; // Non-idempotent handler re-executions
                                        // (possible only with suppression off).
  uint64_t acked_mutations = 0;    // Client: OK replies for at-most-once types.
  uint64_t executed_mutations = 0; // Server: OK executions of at-most-once types.
};

// A handler runs on the serving cell. It charges its work to `server_ctx`.
using RpcHandler = std::function<base::Status(Ctx& server_ctx, const RpcArgs& args,
                                              RpcReply* reply)>;

struct CallOptions {
  bool fat_stub = false;       // Commonly-used request: +2.4 us stub work.
  uint64_t bulk_bytes = 0;     // Arg/result data beyond the 128-byte line.
};

class RpcLayer {
 public:
  RpcLayer(Cell* cell, HiveSystem* system, const KernelCosts& costs);

  // Registration happens at cell boot. Queued handlers may block (e.g. disk).
  void RegisterInterrupt(MsgType type, RpcHandler handler);
  void RegisterQueued(MsgType type, RpcHandler handler);

  // Registration for non-idempotent handlers: marks the type so the replay
  // cache accounting (and the campaign at-most-once oracle) can tell a
  // suppressed duplicate of a mutation from one of an idempotent read.
  // hive_lint rule R6 requires these variants for the known mutation types.
  void RegisterInterruptAtMostOnce(MsgType type, RpcHandler handler);
  void RegisterQueuedAtMostOnce(MsgType type, RpcHandler handler);

  // Synchronous call; returns the handler's status, kTimeout if the target
  // never answers (after retries, when a fault model is active), or
  // kUnavailable while the target is in recovery or quarantined.
  base::Status Call(Ctx& ctx, CellId target, MsgType type, const RpcArgs& args,
                    RpcReply* reply, const CallOptions& options = {});

  // The page-fault RPC uses the cost accounting of paper table 5.2 (fat
  // stubs, hardware message + interrupts, arg/result copy, arg memory
  // alloc/free) instead of the standard profile, and records the breakdown
  // into ctx.fault_bd when attached.
  base::Status CallFault(Ctx& ctx, CellId target, MsgType type, const RpcArgs& args,
                         RpcReply* reply);

  // Serves one incoming request on this cell; used by Call on the target
  // side for intracell shortcuts and by tests that drive the server path
  // directly. Bypasses the replay cache (no sequence number).
  base::Status Serve(Ctx& server_ctx, MsgType type, const RpcArgs& args, RpcReply* reply);

  // Serves one sequenced request from `client`; consults the replay cache.
  // The handler runs as this cell's kernel (Cell::RunKernel): a trap in it
  // panics this cell and returns Unavailable with nothing cached. Public so
  // oracle tests can deliver literal duplicate sequence numbers without a
  // fault model in the transport path.
  //
  // `client_epoch` is the caller's boot incarnation. A rebooted client
  // restarts its sequence numbers at 1, so its fresh calls could collide
  // with pre-crash replay entries; a higher epoch drops the client's cached
  // transport state, and a stale (lower, nonzero) epoch is rejected.
  // 0 means unversioned (direct test drivers) and bypasses the epoch check.
  base::Status ServeSequenced(Ctx& server_ctx, CellId client, uint64_t seq,
                              MsgType type, const RpcArgs& args, RpcReply* reply,
                              uint64_t client_epoch = 0);

  // True if a handler is registered for the message type.
  bool HasHandler(MsgType type) const {
    return handlers_.count(static_cast<uint32_t>(type)) > 0;
  }

  // True if the type was registered through an at-most-once variant.
  bool IsAtMostOnce(MsgType type) const;

  // Campaign fixture hook: with suppression off the replay cache still
  // tracks sequence numbers but re-executes duplicates, counting
  // at_most_once_violations for non-idempotent types.
  void set_duplicate_suppression(bool on) { duplicate_suppression_ = on; }
  bool duplicate_suppression() const { return duplicate_suppression_; }

  // Drops all transport state for a peer (sequence counter, health, replay
  // cache). Called when the peer is reintegrated after a reboot: its fresh
  // kernel restarts sequence numbers, so stale replay entries must not
  // suppress its new calls.
  void ForgetPeer(CellId peer);

  // Agreement vetoed an accusation against `suspect` (it is healthy). Resets
  // the exhaustion streak and converts any outstanding suspicion into a
  // bounded probation: traffic fails fast until the probation expires, then
  // the peer is automatically un-quarantined and may be hinted again. This
  // both rate-limits hint storms (which would otherwise accumulate voting
  // strikes against a healthy accuser) and bounds how long a quarantine can
  // outlive the agreement that cleared it.
  void OnSuspectCleared(CellId suspect);

  // True while calls to `peer` fail fast. Probation expiry is evaluated
  // lazily on the next call, so this reflects the last transport decision.
  bool quarantined(CellId peer) const;

  // Immediate quarantine escalation (failure-detector babble throttle): stop
  // sending to `peer` now instead of waiting for retry exhaustions.
  void QuarantinePeer(Ctx& ctx, CellId peer);

  const RpcCallStats& stats() const { return stats_; }

  // Test-only: oracles_test plants counter states (lost acks, quarantines
  // without hints) that are impossible to reach through the public API
  // without the very bug the oracle exists to catch.
  RpcCallStats& mutable_stats_for_test() { return stats_; }

 private:
  struct Registration {
    RpcHandler handler;
    bool queued = false;
    bool at_most_once = false;
  };
  struct PeerHealth {
    int consecutive_exhaustions = 0;
    bool hint_outstanding = false;  // One hint per agreement window.
    bool quarantined = false;
    Time quarantine_until = 0;
  };
  struct ReplayEntry {
    base::Status status;
    RpcReply reply;
  };

  // Dead-peer / exhausted-retries epilogue: charges the spin + context
  // switch, counts the timeout, traces, and raises at most one hint per
  // agreement window. `exhausted` marks retry exhaustion (vs. a vanished
  // node), which also feeds the quarantine escalation.
  base::Status TimeoutPath(Ctx& ctx, CellId target, bool exhausted);

  void Unquarantine(PeerHealth& health, CellId peer);

  Cell* cell_;
  HiveSystem* system_;
  const KernelCosts& costs_;
  std::unordered_map<uint32_t, Registration> handlers_;
  RpcCallStats stats_;
  int next_server_cpu_ = 0;  // Round-robin over the cell's CPUs for service.
  bool duplicate_suppression_ = true;
  std::unordered_map<int, PeerHealth> health_;        // Keyed by peer cell id.
  std::unordered_map<int, uint64_t> next_seq_;        // Keyed by peer cell id.
  // Last boot incarnation seen per client (server side). A bumped epoch
  // invalidates that client's replay cache; see ServeSequenced.
  std::unordered_map<int, uint64_t> peer_epoch_;
  // Per-client replay cache; ordered by sequence number so eviction drops
  // the oldest entry (sequence numbers are monotonic per client).
  std::unordered_map<int, std::map<uint64_t, ReplayEntry>> replay_;
};

}  // namespace hive

#endif  // HIVE_SRC_CORE_RPC_H_
