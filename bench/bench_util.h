// Shared infrastructure for the paper-reproduction benchmark binaries. Each
// bench boots the full-size machine model of paper section 7.2 (four 200 MHz
// processors, 32 MB per node, HP 97560 disks) and prints its table with
// paper-reported values alongside the measured ones.

#ifndef HIVE_BENCH_BENCH_UTIL_H_
#define HIVE_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <memory>
#include <string>

#include "src/base/table.h"
#include "src/core/hive_system.h"
#include "src/flash/machine.h"

namespace bench {

inline flash::MachineConfig PaperConfig(int nodes = 4) {
  flash::MachineConfig config;
  config.num_nodes = nodes;
  config.cpus_per_node = 1;
  config.memory_per_node = 32ull * 1024 * 1024;
  return config;
}

struct System {
  std::unique_ptr<flash::Machine> machine;
  std::unique_ptr<hive::HiveSystem> hive;

  hive::Cell& cell(hive::CellId id) { return hive->cell(id); }
};

// Boots a Hive with `num_cells` cells on a `nodes`-node machine. In SMP mode
// (num_cells == 1 && smp) the same kernel acts as the IRIX stand-in baseline.
inline System Boot(int num_cells, int nodes = 4, bool smp = false, uint64_t seed = 42,
                   bool start_wax = true) {
  System system;
  system.machine = std::make_unique<flash::Machine>(PaperConfig(nodes), seed);
  hive::HiveOptions options;
  options.num_cells = num_cells;
  options.smp_mode = smp;
  options.start_wax = start_wax && !smp && num_cells > 1;
  system.hive = std::make_unique<hive::HiveSystem>(system.machine.get(), options);
  system.hive->Boot();
  return system;
}

// Runs the machine 100 us of simulated time forward. A bench that times many
// RPCs from one client calls this before each one: sent back to back at one
// instant, the 250th request in one 10 ms window would mark the client a
// babbler, and the bench would time the throttle's rejections.
inline void PaceCall(System& system) {
  system.machine->events().RunUntil(system.machine->Now() + 100 * hive::kMicrosecond);
}

inline void PrintHeader(const std::string& bench, const std::string& claim) {
  std::printf("\n################################################################\n");
  std::printf("# %s\n", bench.c_str());
  std::printf("# Paper: %s\n", claim.c_str());
  std::printf("################################################################\n");
}

}  // namespace bench

#endif  // HIVE_BENCH_BENCH_UTIL_H_
