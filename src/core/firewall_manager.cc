#include "src/core/firewall_manager.h"

#include <algorithm>

#include "src/base/log.h"
#include "src/core/cell.h"
#include "src/core/hive_system.h"

namespace hive {

FirewallManager::FirewallManager(Cell* cell) : cell_(cell) {}

int FirewallManager::LocalCpuFor(Pfn pfn) const {
  // Firewall bits can only be changed by a processor on the page's node; a
  // multi-node cell uses whichever of its CPUs lives there.
  const int node = cell_->machine().firewall().NodeOfPfn(pfn);
  return node * cell_->machine().config().cpus_per_node;
}

bool FirewallManager::IsAllWritable(Pfn pfn) const {
  return cell_->machine().firewall().GetVector(pfn) == flash::Firewall::kAllowAll;
}

void FirewallManager::IndexGrant(Pfn pfn, CellId client_cell) {
  pages_by_cell_[client_cell].insert(pfn);
}

void FirewallManager::UnindexGrant(Pfn pfn, CellId client_cell) {
  auto it = pages_by_cell_.find(client_cell);
  if (it != pages_by_cell_.end()) {
    it->second.erase(pfn);
    if (it->second.empty()) {
      pages_by_cell_.erase(it);
    }
  }
}

void FirewallManager::ProtectLocal(Pfn pfn) {
  MutateVector(pfn, [&] {
    cell_->machine().firewall().SetVector(pfn, cell_->CpuMask(), LocalCpuFor(pfn));
  });
}

void FirewallManager::ProtectRange(PhysAddr base, uint64_t size) {
  CHECK(globally_writable_pfns_.empty()) << "ProtectRange after grants";
  flash::Firewall& firewall = cell_->machine().firewall();
  const uint64_t page_size = cell_->machine().mem().page_size();
  const uint64_t pages_per_node = cell_->machine().config().pages_per_node();
  const uint64_t mask = cell_->CpuMask();
  const Pfn first = base / page_size;
  const Pfn end = (base + size - 1) / page_size + 1;
  for (Pfn pfn = first; pfn < end;) {
    const Pfn node_end =
        std::min<Pfn>(end, (static_cast<Pfn>(firewall.NodeOfPfn(pfn)) + 1) * pages_per_node);
    firewall.SetRange(pfn, node_end - pfn, mask, LocalCpuFor(pfn));
    pfn = node_end;
  }
  // A cell holding every processor leaves its pages writable by all of them,
  // which MutateVector would have recorded page by page.
  if (mask == flash::Firewall::kAllowAll) {
    for (Pfn pfn = first; pfn < end; ++pfn) {
      globally_writable_pfns_.insert(pfn);
    }
  }
}

base::Status FirewallManager::GrantWrite(Ctx& ctx, Pfn pfn, CellId client_cell) {
  if (client_cell < 0 || client_cell >= cell_->system()->num_cells()) {
    return base::InvalidArgument();
  }
  const PhysAddr addr = cell_->machine().mem().AddrOfPfn(pfn);
  if (!cell_->OwnsAddr(addr)) {
    return base::InvalidArgument();  // Only local pages.
  }
  const FirewallPolicy policy = cell_->system()->options().firewall_policy;
  auto& counts = grants_by_page_[pfn];
  if (policy == FirewallPolicy::kSingleWriter) {
    // Only one remote writer per page: evict any other cell's grant first
    // (RPC + revoke sync), the cost the paper's bit vector avoids.
    for (auto it = counts.begin(); it != counts.end();) {
      if (it->first != client_cell) {
        MutateVector(pfn, [&] {
          cell_->machine().firewall().RevokeCpus(
              pfn, cell_->system()->cell(it->first).CpuMask(), LocalCpuFor(pfn));
        });
        ctx.Charge(cell_->machine().config().latency.firewall_revoke_ns);
        ctx.Charge(cell_->costs().NullRpcNs(cell_->machine().config().latency));
        ++writer_conflicts_;
        UnindexGrant(pfn, it->first);
        it = counts.erase(it);
      } else {
        ++it;
      }
    }
  }
  auto cell_it = std::lower_bound(
      counts.begin(), counts.end(), client_cell,
      [](const auto& entry, CellId c) { return entry.first < c; });
  if (cell_it == counts.end() || cell_it->first != client_cell) {
    cell_it = counts.insert(cell_it, {client_cell, 0});
  }
  if (++cell_it->second == 1) {
    const uint64_t mask = policy == FirewallPolicy::kGlobalBit
                              ? ~0ull  // One bit per page: all or nothing.
                              : cell_->system()->cell(client_cell).CpuMask();
    MutateVector(pfn, [&] {
      cell_->machine().firewall().GrantCpus(pfn, mask, LocalCpuFor(pfn));
    });
    ctx.Charge(cell_->machine().config().latency.firewall_grant_ns);
    ++grants_;
    IndexGrant(pfn, client_cell);
  }
  return base::OkStatus();
}

base::Status FirewallManager::RevokeWrite(Ctx& ctx, Pfn pfn, CellId client_cell) {
  auto page_it = grants_by_page_.find(pfn);
  if (page_it == grants_by_page_.end()) {
    return base::NotFound();
  }
  auto cell_it = std::lower_bound(
      page_it->second.begin(), page_it->second.end(), client_cell,
      [](const auto& entry, CellId c) { return entry.first < c; });
  if (cell_it == page_it->second.end() || cell_it->first != client_cell) {
    return base::NotFound();
  }
  if (--cell_it->second == 0) {
    page_it->second.erase(cell_it);
    MutateVector(pfn, [&] {
      cell_->machine().firewall().RevokeCpus(
          pfn, cell_->system()->cell(client_cell).CpuMask(), LocalCpuFor(pfn));
    });
    // Revocation must wait for pending valid writebacks to drain (section 4.2).
    ctx.Charge(cell_->machine().config().latency.firewall_revoke_ns);
    ++revokes_;
    UnindexGrant(pfn, client_cell);
    if (page_it->second.empty()) {
      grants_by_page_.erase(page_it);
    }
  }
  return base::OkStatus();
}

std::vector<Pfn> FirewallManager::RevokeAllFor(Ctx& ctx, CellId failed_cell) {
  std::vector<Pfn> writable_pages;
  auto index_it = pages_by_cell_.find(failed_cell);
  if (index_it == pages_by_cell_.end()) {
    return writable_pages;
  }
  // Take the failed cell's page set out of the index and sweep it in pfn
  // order: O(pages granted to the failed cell), deterministic regardless of
  // hash layout.
  writable_pages.assign(index_it->second.begin(), index_it->second.end());
  std::sort(writable_pages.begin(), writable_pages.end());
  pages_by_cell_.erase(index_it);
  for (const Pfn pfn : writable_pages) {
    auto page_it = grants_by_page_.find(pfn);
    CHECK(page_it != grants_by_page_.end()) << "reverse index names an ungranted page";
    auto cell_it = std::lower_bound(
        page_it->second.begin(), page_it->second.end(), failed_cell,
        [](const auto& entry, CellId c) { return entry.first < c; });
    CHECK(cell_it != page_it->second.end() && cell_it->first == failed_cell)
        << "reverse index disagrees with grant table";
    page_it->second.erase(cell_it);
    MutateVector(pfn, [&] {
      cell_->machine().firewall().RevokeCpus(
          pfn, cell_->system()->cell(failed_cell).CpuMask(), LocalCpuFor(pfn));
    });
    ctx.Charge(cell_->machine().config().latency.firewall_revoke_ns);
    ++revokes_;
    if (page_it->second.empty()) {
      grants_by_page_.erase(page_it);
    }
  }
  return writable_pages;
}

int FirewallManager::RevokeAllRemote(Ctx& ctx) {
  int revoked = 0;
  // The grant table is ordered by pfn and each page's list by cell, so the
  // mutation sequence is (pfn, cell) order regardless of host layout.
  for (const auto& [pfn, cells] : grants_by_page_) {
    for (const auto& [client, count] : cells) {
      (void)count;
      MutateVector(pfn, [&, page = pfn, target = client] {
        cell_->machine().firewall().RevokeCpus(
            page, cell_->system()->cell(target).CpuMask(), LocalCpuFor(page));
      });
      ctx.Charge(cell_->machine().config().latency.firewall_revoke_ns);
      ++revokes_;
      ++revoked;
    }
  }
  grants_by_page_.clear();
  pages_by_cell_.clear();
  return revoked;
}

bool FirewallManager::HasGrant(Pfn pfn, CellId client_cell) const {
  auto page_it = grants_by_page_.find(pfn);
  if (page_it == grants_by_page_.end()) {
    return false;
  }
  auto cell_it = std::lower_bound(
      page_it->second.begin(), page_it->second.end(), client_cell,
      [](const auto& entry, CellId c) { return entry.first < c; });
  return cell_it != page_it->second.end() && cell_it->first == client_cell &&
         cell_it->second > 0;
}

uint64_t FirewallManager::GrantedCpuMask(Pfn pfn) const {
  uint64_t mask = 0;
  auto page_it = grants_by_page_.find(pfn);
  if (page_it != grants_by_page_.end()) {
    for (const auto& [client, count] : page_it->second) {
      if (count > 0) {
        mask |= cell_->system()->cell(client).CpuMask();
      }
    }
  }
  return mask;
}

std::vector<Pfn> FirewallManager::GrantedPages() const {
  std::vector<Pfn> pages;
  pages.reserve(grants_by_page_.size());
  for (const auto& [pfn, cells] : grants_by_page_) {
    (void)cells;
    pages.push_back(pfn);
  }
  return pages;
}

int FirewallManager::RemotelyWritablePages() const {
  return static_cast<int>(grants_by_page_.size());
}

}  // namespace hive
