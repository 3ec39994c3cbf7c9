// Aggressive failure detection (paper section 4.3). A cell is considered
// potentially failed if:
//   - an RPC sent to it times out;
//   - an attempt to access its memory causes a bus error;
//   - a shared memory location it updates on every clock interrupt fails to
//     increment (clock monitoring detects halted processors and deadlocked
//     kernels);
//   - data or pointers read from its memory fail the consistency checks of
//     the careful reference protocol.
//
// Byzantine extensions (DESIGN.md section 9): the clock monitor also detects
// a clock word that keeps incrementing but at a fraction of the expected
// rate (kClockDrift), and an incoming-request rate throttle detects a peer
// that floods the network with requests (kBabbling). Hints against a peer
// that is *alive but erroneous* carry evidence that agreement voters can
// independently corroborate, so a rogue cell that answers pings cannot turn
// the strike counter against its healthy accuser.
//
// A failed check is a *hint* that triggers the distributed agreement round;
// consensus among the surviving cells is required before a cell is treated
// as failed. A cell that broadcasts the same alert twice and is voted down
// both times is itself considered corrupt by the other cells.

#ifndef HIVE_SRC_CORE_FAILURE_DETECTION_H_
#define HIVE_SRC_CORE_FAILURE_DETECTION_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/context.h"
#include "src/core/types.h"

namespace hive {

class Cell;

enum class HintReason {
  kRpcTimeout,
  kBusError,
  kClockStale,
  kCarefulCheckFailed,
  kInvariantMismatch,  // Firewall/ownership audit found state only a wild write explains.
  kClockDrift,         // Clock word increments, but far below the tick rate.
  kBabbling,           // Incoming-request flood above the babble threshold.
};

// Every enumerator, for exhaustive iteration (reports, round-trip tests).
inline constexpr HintReason kAllHintReasons[] = {
    HintReason::kRpcTimeout,     HintReason::kBusError,
    HintReason::kClockStale,     HintReason::kCarefulCheckFailed,
    HintReason::kInvariantMismatch, HintReason::kClockDrift,
    HintReason::kBabbling,
};
inline constexpr int kNumHintReasons =
    static_cast<int>(sizeof(kAllHintReasons) / sizeof(kAllHintReasons[0]));

const char* HintReasonName(HintReason reason);
// Inverse of HintReasonName; returns false if `name` matches no enumerator.
bool HintReasonFromName(std::string_view name, HintReason* out);

// Which remote structure a piece of hint evidence refers to.
enum class EvidenceStructure {
  kNone,
  kClockWord,  // The suspect's published clock word.
  kChain,      // The suspect's published probe pointer chain.
  kSeqBlock,   // The suspect's published seqlock block.
  kRpcReply,   // Payload words of the suspect's RPC replies (garbage check).
};

// Evidence attached to a hint against a live-but-erroneous suspect. Agreement
// voters re-run the failed check themselves instead of trusting the accuser:
// a Byzantine cell that still answers pings is voted down only when a
// majority independently reproduces the accuser's observation.
struct HintEvidence {
  bool valid = false;
  HintReason reason = HintReason::kRpcTimeout;
  EvidenceStructure structure = EvidenceStructure::kNone;
  uint64_t clock_value = 0;     // kClockStale: frozen value. kClockDrift: window start value.
  int ticks_observed = 0;       // kClockDrift: monitoring ticks in the window.
  PhysAddr structure_addr = 0;  // kChain: head payload. kSeqBlock: block payload.
};

class FailureDetector {
 public:
  // Clock-drift detection window: after this many successful clock reads of
  // the same peer, the observed advance must be at least 3/4 of the elapsed
  // ticks. A divisor-2 drifting clock advances at 1/2 rate and is caught
  // here; a fully frozen clock is caught earlier by the stale check.
  static constexpr int kDriftWindowTicks = 8;

  // Babbling throttle: more than kBabbleThreshold incoming requests from one
  // peer within kBabbleWindowNs marks it a babbler -- further requests are
  // rejected at the dispatch boundary and a kBabbling hint is raised.
  static constexpr Time kBabbleWindowNs = 10'000'000;  // 10 ms.
  static constexpr int kBabbleThreshold = 250;

  explicit FailureDetector(Cell* cell);

  // Clock monitoring: called from the cell's clock handler every tick. Reads
  // the next live cell's clock word with the careful reference protocol and
  // raises a hint if it failed to increment for too many ticks, or if it
  // increments persistently below the expected rate.
  void MonitorPeerClock(Ctx& ctx);

  // Raises a hint against `suspect`; triggers the agreement protocol unless a
  // round is already running or the suspect is already known-failed.
  void RaiseHint(Ctx& ctx, CellId suspect, HintReason reason);

  // Raises a hint with attached evidence for voters to corroborate.
  void RaiseHintWithEvidence(Ctx& ctx, CellId suspect, HintReason reason,
                             const HintEvidence& evidence);

  // Evidence attached to this cell's most recent hint against `suspect`
  // (invalid if the last hint carried none). Cleared when a round completes.
  const HintEvidence& EvidenceAgainst(CellId suspect) const;
  void ClearEvidence(CellId suspect);

  // Incoming-request accounting for the babble throttle. Returns false when
  // the request should be rejected because `from` has been marked a babbler.
  bool RecordIncomingRequest(Ctx& ctx, CellId from);
  bool IsBabbler(CellId peer) const { return peers_[peer].babbler; }
  // Requests seen from `peer` in its current rate window (voter corroboration).
  int IncomingCount(CellId peer) const { return peers_[peer].incoming.count; }

  // Bounded-work accounting for the no-survivor-hang oracle: callers record
  // the hop count of every remote structure traversal they perform.
  void NoteTraversal(int hops) {
    if (hops > max_traversal_hops_) {
      max_traversal_hops_ = hops;
    }
  }
  int max_traversal_hops() const { return max_traversal_hops_; }

  // Which peer this cell currently monitors (ring over live cells).
  CellId MonitoredPeer() const;

  // Bookkeeping when the live set changes.
  void ForgetCell(CellId cell_id);

  uint64_t hints_raised() const { return hints_raised_; }
  uint64_t hints_for(HintReason reason) const {
    return hints_by_reason_[static_cast<int>(reason)];
  }

 private:
  void RaiseHintCommon(Ctx& ctx, CellId suspect, HintReason reason);

  struct DriftWindow {
    int ticks = 0;
    uint64_t start_value = 0;
  };
  struct RateWindow {
    bool open = false;  // Distinguishes "no window yet" from start at t=0.
    Time start = 0;
    int count = 0;
  };

  // What this cell has observed of one peer.
  struct Peer {
    std::optional<uint64_t> last_clock;  // Clock word at the last read.
    int stale_ticks = 0;                 // Reads that found it unchanged.
    DriftWindow drift;
    RateWindow incoming;  // Its requests to this cell (babble throttle).
    bool babbler = false;
    HintEvidence evidence;  // Attached to this cell's last hint against it.
  };

  Cell* cell_;
  // Indexed by cell id; sized at boot, so references stay valid across the
  // agreement and recovery a hint can run.
  std::vector<Peer> peers_;
  uint64_t hints_raised_ = 0;
  std::array<uint64_t, kNumHintReasons> hints_by_reason_{};
  int max_traversal_hops_ = 0;
};

}  // namespace hive

#endif  // HIVE_SRC_CORE_FAILURE_DETECTION_H_
