// Reproduces paper table 7.2: workload timings on a four-processor machine
// for the SMP-OS baseline (IRIX stand-in) and Hive with 1, 2, and 4 cells.
//
//   Workload   IRIX time   1 cell   2 cells   4 cells
//   ocean      6.07 s      1%       1%        -1%
//   raytrace   4.35 s      0%       0%        1%
//   pmake      5.77 s      1%       10%       11%

#include <functional>

#include "bench/bench_util.h"
#include "src/core/cell.h"
#include "src/workloads/ocean.h"
#include "src/workloads/pmake.h"
#include "src/workloads/raytrace.h"

namespace {

using hive::kSecond;
using hive::ProcId;
using hive::Time;

Time Makespan(bench::System& system, const std::vector<ProcId>& pids, Time start) {
  Time finish = start;
  for (ProcId pid : pids) {
    const hive::CellId c = system.hive->FindProcessCell(pid);
    if (c == hive::kInvalidCell || !system.hive->cell(c).alive()) {
      continue;
    }
    hive::Process* proc = system.hive->cell(c).sched().FindProcess(pid);
    if (proc != nullptr) {
      finish = std::max(finish, proc->finished_at);
    }
  }
  return finish - start;
}

// Each Run* returns the workload's makespan and counts a run that did not
// finish or whose outputs failed validation into `failures`.
Time RunPmake(bench::System& system, uint64_t seed, int* failures) {
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
  if (pmake.ValidateOutputs() != 0) {
    std::fprintf(stderr, "pmake outputs corrupt!\n");
    ++*failures;
  }
  return Makespan(system, pids, start);
}

Time RunOcean(bench::System& system, uint64_t seed, int* failures) {
  workloads::OceanParams params;
  params.name_seed = seed;
  workloads::OceanWorkload ocean(system.hive.get(), params);
  ocean.Setup();
  const Time start = system.machine->Now();
  auto pids = ocean.Start();
  if (!system.hive->RunUntilDone(pids, start + 600 * kSecond)) {
    std::fprintf(stderr, "ocean did not finish\n");
    ++*failures;
  }
  return Makespan(system, pids, start);
}

Time RunRaytrace(bench::System& system, uint64_t seed, int* failures) {
  workloads::RaytraceParams params;
  params.name_seed = seed;
  workloads::RaytraceWorkload ray(system.hive.get(), params);
  const Time start = system.machine->Now();
  auto pids = ray.Start();
  if (!system.hive->RunUntilDone(pids, start + 600 * kSecond)) {
    std::fprintf(stderr, "raytrace did not finish\n");
    ++*failures;
  }
  if (ray.ValidateOutputs() != 0) {
    std::fprintf(stderr, "raytrace outputs corrupt!\n");
    ++*failures;
  }
  return Makespan(system, pids, start);
}

std::string Slowdown(Time hive_time, Time base_time) {
  const double pct =
      (static_cast<double>(hive_time) / static_cast<double>(base_time) - 1.0) * 100.0;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.0f%%", pct);
  return buf;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "tab72_workloads: workload timings, SMP baseline vs 1/2/4 cells",
      "ocean 6.07s (1/1/-1%), raytrace 4.35s (0/0/1%), pmake 5.77s (1/10/11%)");

  struct Row {
    const char* name;
    std::function<Time(bench::System&, uint64_t, int*)> run;
    uint64_t seed;
    const char* paper_time;
    const char* paper_slow;
  };
  const Row rows[] = {
      {"ocean", RunOcean, 71, "6.07 s", "1% / 1% / -1%"},
      {"raytrace", RunRaytrace, 72, "4.35 s", "0% / 0% / 1%"},
      {"pmake", RunPmake, 73, "5.77 s", "1% / 10% / 11%"},
  };

  base::Table table({"Workload", "SMP-OS time", "1 cell", "2 cells", "4 cells",
                     "Paper (time; 1/2/4)"});
  int failures = 0;
  for (const Row& row : rows) {
    bench::System smp = bench::Boot(1, 4, /*smp=*/true);
    const Time base_time = row.run(smp, row.seed, &failures);

    std::string cells_result[3];
    const int cell_counts[] = {1, 2, 4};
    for (int i = 0; i < 3; ++i) {
      bench::System system = bench::Boot(cell_counts[i], 4);
      const Time t =
          row.run(system, row.seed + 1000ull * static_cast<uint64_t>(i), &failures);
      cells_result[i] = Slowdown(t, base_time);
    }
    table.AddRow({row.name,
                  base::Table::F64(static_cast<double>(base_time) / 1e9, 2) + " s",
                  cells_result[0], cells_result[1], cells_result[2],
                  std::string(row.paper_time) + "; " + row.paper_slow});
  }
  std::printf("%s",
              table.Render("Table 7.2: workload timings on a four-processor machine")
                  .c_str());
  std::printf(
      "\nNote: slowdowns are relative to the same kernel in shared-everything\n"
      "SMP mode (the IRIX 5.2 stand-in). Parallel applications spend almost\n"
      "all their time at user level, so the cell partition barely affects\n"
      "them; pmake exercises OS services across cells and pays the most.\n");
  if (failures > 0) {
    std::fprintf(stderr, "tab72_workloads: %d workload run(s) failed\n", failures);
    return 1;
  }
  return 0;
}
