// Quickstart: boot a four-cell Hive on the simulated FLASH machine, run a few
// processes, share memory across cells, inject a node failure, and watch the
// survivors keep working.
//
//   $ ./examples/quickstart

#include <cstdio>
#include <memory>

#include "src/core/cell.h"
#include "src/core/filesystem.h"
#include "src/core/hive_system.h"
#include "src/core/report.h"
#include "src/flash/fault_injector.h"
#include "src/flash/machine.h"
#include "src/workloads/workload.h"

using hive::kMillisecond;
using hive::kSecond;

int main() {
  std::printf("== Hive quickstart ==\n\n");

  // 1. A FLASH-like machine: 4 nodes, one 200 MHz processor and 32 MB each.
  flash::MachineConfig config;
  config.num_nodes = 4;
  config.memory_per_node = 32ull * 1024 * 1024;
  flash::Machine machine(config, /*seed=*/1);

  // 2. Boot Hive with one cell per node. Each cell is an independent kernel;
  //    together they present a single-system image.
  hive::HiveOptions options;
  options.num_cells = 4;
  hive::HiveSystem hive(&machine, options);
  hive.Boot();
  std::printf("booted %d cells; cell 0 owns %llu MB at physical 0x%llx\n",
              hive.num_cells(),
              static_cast<unsigned long long>(hive.cell(0).mem_size() >> 20),
              static_cast<unsigned long long>(hive.cell(0).mem_base()));

  // 3. Create a file on cell 0 and read it from cell 3: the pages are cached
  //    once at their data home and exported across the firewall boundary.
  hive::Ctx ctx0 = hive.cell(0).MakeCtx();
  const auto data = workloads::PatternData(/*seed=*/7, 64 * 1024);
  auto file = hive.cell(0).fs().Create(ctx0, "/shared/data", data);
  if (!file.ok()) {
    return 1;
  }
  hive::Ctx ctx3 = hive.cell(3).MakeCtx();
  auto handle = hive.cell(3).fs().Open(ctx3, "/shared/data");
  std::vector<uint8_t> buf(64 * 1024);
  (void)hive.cell(3).fs().Read(ctx3, *handle, 0, std::span<uint8_t>(buf));
  std::printf("cell 3 read 64 KB homed on cell 0 in %.1f us (contents %s)\n",
              static_cast<double>(ctx3.elapsed) / 1000.0, buf == data ? "ok" : "BAD");

  // 4. Run compute processes on every cell.
  std::vector<hive::ProcId> pids;
  for (hive::CellId c = 0; c < 4; ++c) {
    auto behavior = std::make_unique<workloads::ScriptedBehavior>("worker");
    behavior->Add(workloads::OpCompute(300 * kMillisecond));
    hive::Ctx ctx = hive.cell(c).MakeCtx();
    auto pid = hive.Fork(ctx, c, std::move(behavior));
    pids.push_back(*pid);
    std::printf("forked pid %lld onto cell %d\n", static_cast<long long>(*pid), c);
  }

  // 5. Fail node 2 mid-run: the firewall + preemptive discard confine the
  //    damage; clock monitoring detects the failure and recovery runs.
  flash::FaultInjector injector(&machine, /*seed=*/2);
  injector.ScheduleNodeFailure(2, 100 * kMillisecond);
  std::printf("\ninjecting a hardware failure of node 2 at t=100ms...\n");

  (void)hive.RunUntilDone(pids, 5 * kSecond);
  machine.events().RunUntil(machine.Now() + 500 * kMillisecond);

  const hive::RecoveryStats& stats = hive.recovery().last_stats();
  std::printf("recovery: detected at t=%.1f ms, users resumed at t=%.1f ms\n",
              static_cast<double>(stats.detect_time) / 1e6,
              static_cast<double>(stats.barrier2_time) / 1e6);
  std::printf("pages discarded: %d, processes killed: %d\n\n", stats.pages_discarded,
              stats.processes_killed);

  for (hive::CellId c = 0; c < 4; ++c) {
    hive::Process* proc = hive.cell(c).alive()
                              ? hive.cell(c).sched().FindProcess(pids[static_cast<size_t>(c)])
                              : nullptr;
    std::printf("cell %d: %-9s  worker: %s\n", c,
                hive.cell(c).alive() ? "RUNNING" : "FAILED",
                proc == nullptr                               ? "lost with its cell"
                : proc->state() == hive::ProcState::kExited   ? "finished normally"
                : proc->state() == hive::ProcState::kKilled   ? "killed"
                                                              : "still running");
  }

  std::printf("\nThe fault was contained: only cell 2 and its worker were lost.\n");
  std::printf("%s", hive::RenderSystemReport(hive).c_str());
  return 0;
}
