// Firewall management policy (paper section 4.2).
//
// Write access to a page is granted to all processors of a client cell as a
// group, when any process on that cell faults the page into a writable
// portion of its address space; it remains granted as long as any process on
// that cell has the page mapped. This lets the client freely reschedule the
// process on its own CPUs without firewall RPCs, while keeping the number of
// remotely-writable pages small for workloads that share few writable pages.
//
// The manager runs on the page's *memory home* (only local processors can
// change local firewall bits). The data home drives it: directly when the
// frame is local, through kGrantFirewall/kRevokeFirewall RPCs when the frame
// was borrowed (paper section 5.4).
//
// Failure-time sweeps are proportional to the *failed cell's* state, not the
// machine's: a per-client reverse index (pages_by_cell_) lets RevokeAllFor
// walk only the pages granted to the failed cell, matching the paper's claim
// that preemptive discard cost scales with failed-cell state (section 4.2).

#ifndef HIVE_SRC_CORE_FIREWALL_MANAGER_H_
#define HIVE_SRC_CORE_FIREWALL_MANAGER_H_

#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/base/status.h"
#include "src/core/context.h"
#include "src/core/types.h"

namespace hive {

class Cell;

class FirewallManager {
 public:
  explicit FirewallManager(Cell* cell);

  // Protects a local page so only this cell's processors may write it (a
  // loaned frame coming back).
  void ProtectLocal(Pfn pfn);
  // Boot: protect every page of [base, base + size) with one fill per node.
  // Must run before any grant (the globally-writable set starts empty).
  void ProtectRange(PhysAddr base, uint64_t size);

  // Grants/revokes write access on a *local* page for all processors of
  // `client_cell`, charging the hardware cost. Grant counts are tracked per
  // (page, cell) so overlapping exports revoke correctly.
  base::Status GrantWrite(Ctx& ctx, Pfn pfn, CellId client_cell);
  base::Status RevokeWrite(Ctx& ctx, Pfn pfn, CellId client_cell);

  // Recovery: revoke every grant made to `failed_cell` and report which local
  // pages were writable by it (candidates for preemptive discard). Cost is
  // O(pages granted to the failed cell), via the per-client reverse index;
  // the returned pages are sorted by pfn (deterministic sweep order).
  std::vector<Pfn> RevokeAllFor(Ctx& ctx, CellId failed_cell);

  // Recovery: after barrier 1 no remote mapping is valid anywhere, so every
  // remaining remote grant is revoked; bindings are re-established by fresh
  // faults (paper section 4.3). Returns grants revoked.
  int RevokeAllRemote(Ctx& ctx);

  // Measurement for the section 4.2 experiment: number of local pages
  // currently writable by at least one remote cell.
  int RemotelyWritablePages() const;

  // Invariant auditing: grant bookkeeping snapshots (see invariant_checker.h).
  bool HasGrant(Pfn pfn, CellId client_cell) const;
  // Union of the CPU masks of every cell granted on `pfn`.
  uint64_t GrantedCpuMask(Pfn pfn) const;
  // Every page with an outstanding grant, ascending: the audit merges its
  // page sweep over this list instead of probing the grant table per page.
  std::vector<Pfn> GrantedPages() const;

  uint64_t grants() const { return grants_; }
  uint64_t revokes() const { return revokes_; }
  // kSingleWriter ablation: grants that had to evict another cell first.
  uint64_t writer_conflicts() const { return writer_conflicts_; }
  // kGlobalBit ablation: granted pages currently writable by EVERY processor.
  // Maintained as a running set at every vector mutation, so report/oracle
  // calls cost O(1) instead of a scan over every grant.
  int GloballyWritablePages() const {
    return static_cast<int>(globally_writable_pfns_.size());
  }

 private:
  int LocalCpuFor(Pfn pfn) const;
  bool IsAllWritable(Pfn pfn) const;

  // Wraps a firewall vector mutation on `pfn`, keeping the globally-writable
  // set in sync. Membership is decided by the vector's post-mutation state,
  // so pages whose power-on vector was open but never granted (closed by
  // ProtectRange at boot) are never counted.
  template <typename Fn>
  void MutateVector(Pfn pfn, Fn&& fn) {
    fn();
    if (IsAllWritable(pfn)) {
      globally_writable_pfns_.insert(pfn);
    } else {
      globally_writable_pfns_.erase(pfn);
    }
  }

  // Reverse-index maintenance for the (page, cell) grant set.
  void IndexGrant(Pfn pfn, CellId client_cell);
  void UnindexGrant(Pfn pfn, CellId client_cell);

  Cell* cell_;
  // Per-page grant counts, sorted by client cell. A page rarely has more
  // than one or two clients, so a flat sorted vector beats a nested hash map
  // (no per-page allocation churn on the fault path) and makes every
  // iteration over a page's clients deterministic by construction.
  using GrantList = std::vector<std::pair<CellId, int>>;
  // pfn -> [(cell, grant count)] sorted by cell. Ordered by pfn, so sweeps
  // over every grant (RevokeAllRemote, the audit's GrantedPages) need no
  // sort; only the pages remote cells currently write are in it.
  std::map<Pfn, GrantList> grants_by_page_;
  // Reverse index: client cell -> local pages it currently has write grants
  // on. Keeps RevokeAllFor proportional to the failed cell's footprint.
  std::unordered_map<CellId, std::unordered_set<Pfn>> pages_by_cell_;
  uint64_t grants_ = 0;
  uint64_t revokes_ = 0;
  uint64_t writer_conflicts_ = 0;
  // Local pages whose firewall vector currently allows every processor.
  std::unordered_set<Pfn> globally_writable_pfns_;
};

}  // namespace hive

#endif  // HIVE_SRC_CORE_FIREWALL_MANAGER_H_
