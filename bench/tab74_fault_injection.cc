// Reproduces paper table 7.4: fault injection tests on a four-processor
// four-cell Hive.
//
//   Injected fault (workload)              #   latency until last cell
//                                              enters recovery (avg/max ms)
//   node failure during process creation P 20  16 / 21
//   node failure during COW search      R  9   10 / 11
//   node failure at random time         P 20   21 / 45
//   corrupt pointer in address map      P  8   38 / 65
//   corrupt pointer in COW tree         R 12   401 / 760
//
// In all tests the effects of the fault must be contained to the cell where
// it was injected, and no output files may be corrupted. After the injected
// fault and the main workload, a pmake run on the survivors acts as the
// system correctness check, exactly as in the paper.

#include <optional>

#include "bench/bench_util.h"
#include "src/base/histogram.h"
#include "src/campaign/injectors.h"
#include "src/core/cell.h"
#include "src/core/cow_tree.h"
#include "src/core/process.h"
#include "src/flash/fault_injector.h"
#include "src/workloads/pmake.h"
#include "src/workloads/raytrace.h"

namespace {

using hive::CellId;
using hive::kMillisecond;
using hive::kSecond;
using hive::ProcId;
using hive::Time;

// Reduced-compute workload parameters: detection latency does not depend on
// how long the jobs compute, and the paper's random-injection window is
// rescaled to the shorter run.
workloads::PmakeParams InjectionPmake(uint64_t seed) {
  workloads::PmakeParams params;
  params.compute_per_job = 500 * kMillisecond;
  params.name_seed = seed;
  return params;
}

workloads::RaytraceParams InjectionRaytrace(uint64_t seed) {
  workloads::RaytraceParams params;
  params.blocks_per_worker = 8;
  params.compute_per_block = 130 * kMillisecond;
  params.name_seed = seed;
  return params;
}

struct TestResult {
  bool contained = false;
  bool correctness_ok = false;
  Time detection_latency = 0;
};

struct ClassResult {
  int tests = 0;
  int contained = 0;
  int correct = 0;
  base::Histogram latency;
};

// Runs the system correctness check: a fresh pmake forked to the surviving
// cells, with output files compared to reference copies.
bool CorrectnessCheck(bench::System& system, uint64_t seed) {
  if (system.hive->LiveCells().empty()) {
    return false;
  }
  workloads::PmakeParams params = InjectionPmake(seed);
  params.compute_per_job = 100 * kMillisecond;
  params.file_server = system.hive->LiveCells().front();
  workloads::PmakeWorkload check(system.hive.get(), params);
  check.Setup();
  auto pids = check.Start();
  if (!system.hive->RunUntilDone(pids, system.machine->Now() + 600 * kSecond)) {
    return false;
  }
  return check.CompletedJobs() == params.jobs && check.ValidateOutputs() == 0;
}

// Evaluates one injection experiment after it ran.
TestResult Evaluate(bench::System& system, CellId victim, Time inject_time,
                    uint64_t check_seed, int expected_recoveries = 1) {
  TestResult result;
  // The workload may have finished (or died) before detection completed:
  // keep the machine running long enough for monitoring + recovery.
  system.machine->events().RunUntil(system.machine->Now() + 500 * kMillisecond);
  if (system.hive->recovery().recoveries_run() < expected_recoveries) {
    return result;  // Never detected: not contained (the test fails loudly).
  }
  const hive::RecoveryStats& stats = system.hive->recovery().last_stats();

  // Containment: every cell other than the victim survived.
  result.contained = true;
  for (CellId c = 0; c < system.hive->num_cells(); ++c) {
    const bool alive = system.hive->cell(c).alive();
    if (c == victim ? alive : !alive) {
      result.contained = false;
    }
  }
  Time last_entry = stats.detect_time;
  for (Time entry : stats.entered_recovery) {
    last_entry = std::max(last_entry, entry);
  }
  result.detection_latency = last_entry - inject_time;
  result.correctness_ok = CorrectnessCheck(system, check_seed);
  return result;
}

// --- Hardware fail-stop classes. ---

TestResult NodeFailurePmake(uint64_t seed, Time inject_time, CellId victim) {
  bench::System system = bench::Boot(4, 4, false, seed);
  workloads::PmakeWorkload pmake(system.hive.get(), InjectionPmake(seed));
  pmake.Setup();
  auto pids = pmake.Start();
  flash::FaultInjector injector(system.machine.get(), seed);
  injector.ScheduleNodeFailure(victim, inject_time);
  (void)system.hive->RunUntilDone(pids, 600 * kSecond);
  TestResult result = Evaluate(system, victim, inject_time, seed * 13 + 7);
  // Outputs written by jobs that claim success must be uncorrupted.
  if (pmake.ValidateOutputs() > 0) {
    result.correctness_ok = false;
  }
  return result;
}

TestResult NodeFailureRaytrace(uint64_t seed, CellId victim) {
  bench::System system = bench::Boot(4, 4, false, seed);
  workloads::RaytraceWorkload ray(system.hive.get(), InjectionRaytrace(seed));
  auto pids = ray.Start();
  // Fail the parent's cell while workers are performing remote COW searches
  // of the scene (shortly after the scene build + forks).
  base::Rng rng(seed);
  const Time inject_time = 230 * kMillisecond +
                           static_cast<Time>(rng.Below(20)) * kMillisecond;
  flash::FaultInjector injector(system.machine.get(), seed);
  injector.ScheduleNodeFailure(victim, inject_time);
  (void)system.hive->RunUntilDone(pids, 600 * kSecond);
  return Evaluate(system, victim, inject_time, seed * 17 + 3);
}

// --- Software corruption classes. ---

flash::PointerCorruptionMode ModeFor(uint64_t i) {
  switch (i % 4) {
    case 0:
      return flash::PointerCorruptionMode::kRandomSameCell;
    case 1:
      return flash::PointerCorruptionMode::kRandomOtherCell;
    case 2:
      return flash::PointerCorruptionMode::kOffByOneWord;
    default:
      return flash::PointerCorruptionMode::kSelfPointing;
  }
}

TestResult CorruptAddressMap(uint64_t seed, CellId victim) {
  bench::System system = bench::Boot(4, 4, false, seed);
  workloads::PmakeWorkload pmake(system.hive.get(), InjectionPmake(seed));
  pmake.Setup();
  auto pids = pmake.Start();

  // Let the jobs establish their address spaces, then corrupt the next
  // pointer of a map entry of a process on the victim cell. The process's
  // next fault walks into garbage, fails the type-tag check, and the victim
  // kernel panics; the other cells detect the dead kernel by clock
  // monitoring. Attempts retry every 10 ms until some process on the victim
  // cell has built its address map (jobs spend their first tens of ms in
  // metadata calls).
  Time inject_time = 0;
  base::Rng rng(seed * 3 + 1);
  const Time when = 60 * kMillisecond + static_cast<Time>(rng.Below(30)) * kMillisecond;
  hive::HiveSystem& sys = *system.hive;
  system.machine->events().ScheduleAt(when, [&sys, victim, seed, &inject_time] {
    campaign::CorruptPointerWhenFound(sys, victim, seed * 7 + 5, ModeFor(seed), 2 * kSecond,
                                      campaign::AddrMapNextPointer,
                                      [&sys, &inject_time] { inject_time = sys.machine().Now(); });
  });
  (void)system.hive->RunUntilDone(pids, 600 * kSecond);
  if (inject_time == 0) {
    return TestResult{};  // No target process found: count as failure.
  }
  return Evaluate(system, victim, inject_time, seed * 19 + 11);
}

TestResult CorruptCowTree(uint64_t seed) {
  const CellId victim = 0;  // The raytrace parent's cell owns the scene tree.
  bench::System system = bench::Boot(4, 4, false, seed);
  workloads::RaytraceWorkload ray(system.hive.get(), InjectionRaytrace(seed));
  auto pids = ray.Start();

  // After the scene is built and the workers forked, corrupt the parent
  // pointer of a COW node on the victim cell. The local worker's next scene
  // slice fault walks the tree and panics the victim; remote workers'
  // careful references merely fail. Detection is slow because COW searches
  // are infrequent (the paper's 401 ms average).
  Time inject_time = 0;
  base::Rng rng(seed * 5 + 3);
  const Time when = 300 * kMillisecond + static_cast<Time>(rng.Below(60)) * kMillisecond;
  hive::HiveSystem& sys = *system.hive;
  system.machine->events().ScheduleAt(when, [&sys, seed, &inject_time] {
    campaign::CorruptPointerWhenFound(
        sys, victim, seed * 11 + 1, ModeFor(seed), 2 * kSecond,
        [](hive::Cell&, hive::Process& proc) -> std::optional<hive::PhysAddr> {
          // Target the local *worker* (it keeps walking the tree for later
          // scene slices); the parent sits in wait() and would never
          // traverse again.
          if (proc.cow_leaf() == 0 || proc.parent == hive::kInvalidProc) {
            return std::nullopt;
          }
          return proc.cow_leaf() + hive::CowNodeLayout::kParentAddr;
        },
        [&sys, &inject_time] { inject_time = sys.machine().Now(); });
  });
  (void)system.hive->RunUntilDone(pids, 600 * kSecond);
  if (inject_time == 0) {
    return TestResult{};
  }
  return Evaluate(system, victim, inject_time, seed * 23 + 9);
}

void Accumulate(ClassResult* cls, const TestResult& result) {
  ++cls->tests;
  if (result.contained) {
    ++cls->contained;
  }
  if (result.correctness_ok) {
    ++cls->correct;
  }
  if (result.detection_latency > 0) {
    cls->latency.Record(result.detection_latency);
  }
}

std::string LatencyCell(const ClassResult& cls) {
  if (cls.latency.empty()) {
    return "-";
  }
  return base::Table::F64(cls.latency.mean() / 1e6, 0) + " / " +
         base::Table::F64(static_cast<double>(cls.latency.max()) / 1e6, 0);
}

}  // namespace

int main() {
  bench::PrintHeader(
      "tab74_fault_injection: fail-stop and kernel-corruption campaigns",
      "49 hardware + 20 software injections, all contained; detection "
      "latency avg/max per class: 16/21, 10/11, 21/45, 38/65, 401/760 ms");

  ClassResult fork_class, cow_hw_class, random_class, map_class, cowtree_class;

  // Node failure during process creation (pmake): inject while the fork burst
  // is in flight.
  for (uint64_t i = 0; i < 20; ++i) {
    base::Rng rng(9000 + i);
    const Time inject = 2 * kMillisecond + static_cast<Time>(rng.Below(6)) * kMillisecond;
    Accumulate(&fork_class,
               NodeFailurePmake(9000 + i, inject, static_cast<CellId>(1 + i % 3)));
  }

  // Node failure during the copy-on-write search (raytrace).
  for (uint64_t i = 0; i < 9; ++i) {
    Accumulate(&cow_hw_class, NodeFailureRaytrace(9100 + i, /*victim=*/0));
  }

  // Node failure at a random time (pmake).
  for (uint64_t i = 0; i < 20; ++i) {
    base::Rng rng(9200 + i);
    const Time inject = static_cast<Time>(rng.Below(1500)) * kMillisecond;
    Accumulate(&random_class,
               NodeFailurePmake(9200 + i, inject, static_cast<CellId>(i % 4)));
  }

  // Corrupt pointer in a process address map (pmake).
  for (uint64_t i = 0; i < 8; ++i) {
    Accumulate(&map_class, CorruptAddressMap(9300 + i, static_cast<CellId>(1 + i % 3)));
  }

  // Corrupt pointer in a COW tree (raytrace).
  for (uint64_t i = 0; i < 12; ++i) {
    Accumulate(&cowtree_class, CorruptCowTree(9400 + i));
  }

  base::Table table({"Injected fault type and workload", "#", "Contained", "Check OK",
                     "Latency avg/max (ms)", "Paper (ms)"});
  auto row = [&](const char* name, const ClassResult& cls, const char* paper) {
    table.AddRow({name, base::Table::I64(cls.tests),
                  base::Table::I64(cls.contained) + "/" + base::Table::I64(cls.tests),
                  base::Table::I64(cls.correct) + "/" + base::Table::I64(cls.tests),
                  LatencyCell(cls), paper});
  };
  row("node failure during process creation (P)", fork_class, "16 / 21");
  row("node failure during COW search (R)", cow_hw_class, "10 / 11");
  row("node failure at random time (P)", random_class, "21 / 45");
  row("corrupt pointer in process address map (P)", map_class, "38 / 65");
  row("corrupt pointer in COW tree (R)", cowtree_class, "401 / 760");
  std::printf("%s", table.Render("Table 7.4: fault injection results").c_str());

  const int total_tests = fork_class.tests + cow_hw_class.tests + random_class.tests +
                          map_class.tests + cowtree_class.tests;
  const int total_contained = fork_class.contained + cow_hw_class.contained +
                              random_class.contained + map_class.contained +
                              cowtree_class.contained;
  std::printf("\nContained %d of %d injected faults (paper: 69 of 69).\n", total_contained,
              total_tests);
  return total_contained == total_tests ? 0 : 1;
}
