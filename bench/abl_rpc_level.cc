// Ablation: interrupt-level vs queued service for the page-fault RPC.
//
// Paper section 6: "the significant difference in latency between
// interrupt-level and queued RPCs had two effects on the structure of Hive.
// First, we reorganized data structures and locking to make it possible to
// service common RPCs at interrupt level" -- the double-barrier recovery
// design exists precisely so the page-fault server path takes no blocking
// locks (section 4.3). This bench quantifies what that restructuring bought:
// it forces every page-fault RPC through the queued path and measures the
// remote fault latency and the pmake slowdown.

#include "bench/bench_util.h"
#include "src/base/histogram.h"
#include "src/core/cell.h"
#include "src/core/filesystem.h"
#include "src/workloads/pmake.h"
#include "src/workloads/workload.h"

namespace {

using hive::kMillisecond;
using hive::kSecond;
using hive::Time;

bench::System BootWith(bool force_queued, uint64_t seed) {
  bench::System system;
  system.machine = std::make_unique<flash::Machine>(bench::PaperConfig(), seed);
  hive::HiveOptions options;
  options.num_cells = 4;
  options.costs.force_queued_fault_rpc = force_queued;
  system.hive = std::make_unique<hive::HiveSystem>(system.machine.get(), options);
  system.hive->Boot();
  return system;
}

// Mean latency of 256 remote page faults from cell 0 on a file cell 1
// serves. Counts failed faults into `failures`.
double RemoteFaultUs(bench::System& system, int* failures) {
  hive::Cell& home = system.cell(1);
  hive::Cell& client = system.cell(0);
  hive::Ctx hctx = home.MakeCtx();
  auto id = home.fs().Create(hctx, "/abl", workloads::PatternData(1, 256 * 4096));
  base::Histogram hist;
  for (uint64_t p = 0; p < 256; ++p) {
    auto warm = home.fs().GetPageLocal(hctx, id->vnode, p, false);
    (*warm)->refcount--;
  }
  hive::Ctx open_ctx = client.MakeCtx();
  auto handle = client.fs().Open(open_ctx, "/abl");
  for (uint64_t p = 0; p < 256; ++p) {
    hive::Ctx ctx = client.MakeCtx();
    auto pfdat = client.fs().GetPage(ctx, *handle, p, false,
                                     hive::FileSystem::AccessPath::kFault);
    if (!pfdat.ok()) {
      std::fprintf(stderr, "remote fault failed\n");
      ++*failures;
      continue;
    }
    client.fs().ReleasePage(ctx, *pfdat);
    hist.Record(ctx.elapsed);
  }
  return hist.mean() / 1000.0;
}

// Makespan of one pmake; counts a pmake that did not finish into `failures`.
Time PmakeMakespan(bench::System& system, uint64_t seed, int* failures) {
  workloads::PmakeParams params;
  params.name_seed = seed;
  workloads::PmakeWorkload pmake(system.hive.get(), params);
  pmake.Setup();
  const Time start = system.machine->Now();
  auto pids = pmake.Start();
  if (!system.hive->RunUntilDone(pids, start + 600 * kSecond)) {
    std::fprintf(stderr, "pmake did not finish\n");
    ++*failures;
  }
  Time finish = 0;
  for (hive::ProcId pid : pids) {
    const hive::CellId c = system.hive->FindProcessCell(pid);
    finish = std::max(finish, system.hive->cell(c).sched().FindProcess(pid)->finished_at);
  }
  return finish - start;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "abl_rpc_level: interrupt-level vs queued page-fault service",
      "section 6: common RPCs were restructured to run at interrupt level; "
      "the queued path adds ~27 us of context switch + synchronization");

  bench::System interrupt_sys = BootWith(false, 8801);
  bench::System queued_sys = BootWith(true, 8802);

  int failures = 0;
  const double int_us = RemoteFaultUs(interrupt_sys, &failures);
  const double q_us = RemoteFaultUs(queued_sys, &failures);
  const Time int_make = PmakeMakespan(interrupt_sys, 8803, &failures);
  const Time q_make = PmakeMakespan(queued_sys, 8804, &failures);

  base::Table table({"Fault RPC service", "Remote fault latency", "pmake makespan",
                     "pmake vs interrupt-level"});
  table.AddRow({"interrupt-level (Hive)", base::Table::F64(int_us, 1) + " us",
                base::Table::F64(static_cast<double>(int_make) / 1e9, 2) + " s", "-"});
  table.AddRow({"queued server process", base::Table::F64(q_us, 1) + " us",
                base::Table::F64(static_cast<double>(q_make) / 1e9, 2) + " s",
                base::Table::F64((static_cast<double>(q_make) / static_cast<double>(int_make) -
                                  1.0) * 100.0, 1) + "%"});
  std::printf("%s", table.Render("Page-fault RPC service level").c_str());
  std::printf(
      "\nServicing faults at interrupt level required the lock-free server path\n"
      "the double-barrier recovery protocol makes safe (section 4.3): a fault\n"
      "that arrives after a cell joined barrier 1 is held on the client side,\n"
      "so the handler never races recovery.\n");
  if (failures > 0) {
    std::fprintf(stderr, "abl_rpc_level: %d fault(s) or pmake run(s) failed\n", failures);
    return 1;
  }
  return 0;
}
