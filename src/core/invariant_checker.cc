#include "src/core/invariant_checker.h"

#include <algorithm>
#include <bit>
#include <span>
#include <sstream>

#include "src/base/log.h"
#include "src/core/cell.h"
#include "src/core/hive_system.h"

namespace hive {

std::string InvariantMismatch::ToString() const {
  std::ostringstream out;
  out << "cell " << cell << " pfn " << pfn << ": " << detail;
  if (expected != actual) {
    out << " (expected vector 0x" << std::hex << expected << ", actual 0x" << actual
        << std::dec << ")";
  }
  return out.str();
}

InvariantReport InvariantChecker::AuditAll(bool raise_hints) {
  InvariantReport report;
  if (system_->smp_mode() || !system_->machine().firewall().checking_enabled() ||
      system_->options().firewall_policy == FirewallPolicy::kGlobalBit) {
    return report;
  }
  for (CellId id : system_->LiveCells()) {
    InvariantReport one = AuditCell(id, raise_hints);
    report.pages_audited += one.pages_audited;
    report.cells_audited += one.cells_audited;
    report.mismatches.insert(report.mismatches.end(), one.mismatches.begin(),
                             one.mismatches.end());
  }
  return report;
}

InvariantReport InvariantChecker::AuditCell(CellId cell_id, bool raise_hints) {
  InvariantReport report;
  if (system_->smp_mode() || !system_->machine().firewall().checking_enabled() ||
      system_->options().firewall_policy == FirewallPolicy::kGlobalBit) {
    return report;
  }
  Cell& cell = system_->cell(cell_id);
  if (!cell.alive()) {
    return report;
  }
  report.cells_audited = 1;
  AuditFirewallVectors(cell_id, raise_hints, &report);
  AuditExports(cell_id, &report);
  return report;
}

void InvariantChecker::AuditFirewallVectors(CellId cell_id, bool raise_hints,
                                            InvariantReport* report) {
  Cell& cell = system_->cell(cell_id);
  flash::PhysMem& mem = system_->machine().mem();
  const std::span<const uint64_t> vectors = system_->machine().firewall().vectors();
  const Pfn first = mem.PfnOfAddr(cell.mem_base());
  const Pfn end = first + cell.mem_size() / mem.page_size();
  const uint64_t own_mask = cell.CpuMask();
  report->pages_audited += end - first;

  // Compares one page's hardware vector with the one its books expect.
  auto check = [&](Pfn pfn, uint64_t expected) {
    const uint64_t actual = vectors[pfn];
    if (actual == expected) {
      return;
    }
    InvariantMismatch mismatch{cell_id, pfn, expected, actual,
                               "firewall vector disagrees with kernel bookkeeping"};
    const uint64_t unauthorized = actual & ~expected;
    report->mismatches.push_back(mismatch);
    cell.Trace(TraceEvent::kInvariantMismatch, pfn, unauthorized);
    if (raise_hints && unauthorized != 0) {
      // The extra permission bits name the cell that could wild-write this
      // page: surface it through the regular detection path.
      const int cpu = std::countr_zero(unauthorized);
      const CellId suspect = system_->CellOfCpu(cpu);
      if (suspect != kInvalidCell && suspect != cell_id) {
        Ctx ctx = cell.MakeCtx();
        cell.detector().RaiseHint(ctx, suspect, HintReason::kInvariantMismatch);
      }
    }
  };

  // Every page's hardware vector is checked, but only a page with a pfdat or
  // a grant can expect more than the owner's CPUs: an untouched frame's pfdat
  // is unbound and unloaned. Both lists are in pfn order. Between their pages
  // the audit is a tight scan for a vector other than the owner mask; it reads
  // bookkeeping only at theirs.
  std::vector<Pfdat*> local;
  cell.pfdats().ForEach([&](Pfdat* pfdat) {
    if (cell.OwnsAddr(pfdat->frame)) {
      local.push_back(pfdat);
    }
  });
  const std::vector<Pfn> granted = cell.firewall_manager().GrantedPages();
  auto next_pfdat = local.begin();
  auto next_grant = granted.begin();
  auto not_owner_only = [own_mask](uint64_t vector) { return vector != own_mask; };

  Pfn pfn = first;
  while (pfn < end) {
    while (next_pfdat != local.end() && (*next_pfdat)->frame < mem.AddrOfPfn(pfn)) {
      ++next_pfdat;
    }
    while (next_grant != granted.end() && *next_grant < pfn) {
      ++next_grant;
    }
    Pfn booked = end;
    if (next_pfdat != local.end()) {
      booked = std::min(booked, mem.PfnOfAddr((*next_pfdat)->frame));
    }
    if (next_grant != granted.end()) {
      booked = std::min(booked, *next_grant);
    }
    const uint64_t* const stop = vectors.data() + booked;
    for (const uint64_t* v = std::find_if(vectors.data() + pfn, stop, not_owner_only);
         v != stop; v = std::find_if(v + 1, stop, not_owner_only)) {
      check(static_cast<Pfn>(v - vectors.data()), own_mask);
    }
    if (booked == end) {
      break;
    }

    const PhysAddr addr = mem.AddrOfPfn(booked);
    Pfdat* pfdat =
        next_pfdat != local.end() && (*next_pfdat)->frame == addr ? *next_pfdat : nullptr;
    uint64_t expected = own_mask;
    if (pfdat != nullptr) {
      const bool in_loan_set = cell.allocator().IsLoanedFrame(pfdat);
      if (pfdat->loaned_out != in_loan_set) {
        report->mismatches.push_back(
            {cell_id, booked, 0, 0,
             pfdat->loaned_out ? "pfdat marked loaned_out but frame not in allocator loan set"
                               : "frame in allocator loan set but pfdat not marked loaned_out"});
      }
      if (pfdat->loaned_out) {
        if (pfdat->loaned_to < 0 || pfdat->loaned_to >= system_->num_cells() ||
            pfdat->loaned_to == cell_id) {
          report->mismatches.push_back(
              {cell_id, booked, 0, 0, "loaned_out frame has invalid loaned_to cell"});
        } else {
          // A loaned frame belongs to the borrower: only its CPUs may write.
          expected = system_->cell(pfdat->loaned_to).CpuMask();
        }
      }
    }
    if (next_grant != granted.end() && *next_grant == booked) {
      expected |= cell.firewall_manager().GrantedCpuMask(booked);
    }
    check(booked, expected);
    pfn = booked + 1;
  }
}

void InvariantChecker::AuditExports(CellId cell_id, InvariantReport* report) {
  Cell& cell = system_->cell(cell_id);
  flash::PhysMem& mem = system_->machine().mem();
  cell.pfdats().ForEach([&](Pfdat* pfdat) {
    if (pfdat->extended || pfdat->exported_writable == 0) {
      return;
    }
    // Every writable export must be backed by a grant on the frame's memory
    // home (the data home itself when the frame is local, the lender when the
    // page lives in a borrowed frame).
    const CellId home_id = system_->CellOfAddr(pfdat->frame);
    if (home_id == kInvalidCell) {
      return;
    }
    const Pfn pfn = mem.PfnOfAddr(pfdat->frame);
    FirewallManager& home_fwm = system_->cell(home_id).firewall_manager();
    for (CellId client = 0; client < system_->num_cells(); ++client) {
      if ((pfdat->exported_writable & (1ull << client)) == 0 || client == home_id) {
        continue;
      }
      if (!home_fwm.HasGrant(pfn, client)) {
        std::ostringstream detail;
        detail << "exported_writable to cell " << client
               << " without a matching firewall grant on memory home " << home_id;
        report->mismatches.push_back({cell_id, pfn, 0, 0, detail.str()});
      }
    }
  });
}

}  // namespace hive
