// Distributed agreement on cell failure (paper section 4.3). When a hint
// alert is broadcast, all cells temporarily suspend user-level processes and
// run an agreement round; only if the surviving cells agree that a cell has
// failed does recovery proceed. This prevents one faulty cell from rebooting
// healthy ones.
//
// Two modes:
//  - kOracle: the machine's ground truth stands in for the protocol, exactly
//    as the paper's experiments did ("simulated by an oracle", section 4.3).
//  - kVoting: a real implementation in the spirit of the group membership
//    algorithms the paper cites ([16]): each live cell independently probes
//    the suspect (careful clock read + ping RPC) and votes; a majority of
//    the non-suspect cells must confirm the failure.

#ifndef HIVE_SRC_CORE_AGREEMENT_H_
#define HIVE_SRC_CORE_AGREEMENT_H_

#include <unordered_map>
#include <vector>

#include "src/core/context.h"
#include "src/core/failure_detection.h"
#include "src/core/types.h"

namespace hive {

class HiveSystem;

enum class AgreementMode { kOracle, kVoting };

struct AgreementResult {
  bool confirmed = false;
  std::vector<CellId> failed;   // Cells confirmed failed this round.
  int votes_for = 0;
  int votes_against = 0;
  Time round_cost_ns = 0;       // Wall time consumed by the round.
};

class Agreement {
 public:
  Agreement(HiveSystem* system, AgreementMode mode) : system_(system), mode_(mode) {}

  // Runs one round for `suspect`, accused by `accuser`. Charges the round
  // cost to ctx. Updates the accuser strike count on a voted-down alert; an
  // accuser voted down twice for the same suspect is itself declared corrupt
  // (returned in `failed`).
  AgreementResult RunRound(Ctx& ctx, CellId accuser, CellId suspect, HintReason reason);

  AgreementMode mode() const { return mode_; }
  void set_mode(AgreementMode mode) { mode_ = mode; }

  uint64_t false_alerts() const { return false_alerts_; }
  uint64_t vote_timeouts() const { return vote_timeouts_; }
  // Most expensive round so far; the no-survivor-hang oracle bounds it.
  Time max_round_cost_ns() const { return max_round_cost_ns_; }

 private:
  // One cell's independent probe of the suspect: true = "I think it failed".
  bool ProbeSuspect(Ctx& ctx, CellId prober, CellId suspect);

  // Evidence-aware probe: the prober re-runs the accuser's failed check
  // itself (re-reads the clock word, re-walks the probe chain, checks its
  // own incoming-request rate) instead of trusting either the accuser or a
  // rogue suspect that still answers pings. True = "evidence corroborated".
  bool CorroborateEvidence(Ctx& ctx, CellId prober, CellId suspect,
                           const HintEvidence& evidence);

  HiveSystem* system_;
  AgreementMode mode_;
  // (accuser, suspect) -> times the alert was voted down.
  std::unordered_map<uint64_t, int> strikes_;
  uint64_t false_alerts_ = 0;
  uint64_t vote_timeouts_ = 0;
  Time max_round_cost_ns_ = 0;
};

}  // namespace hive

#endif  // HIVE_SRC_CORE_AGREEMENT_H_
