// Isolated execution of one campaign scenario.
//
// Each run builds its own Machine + HiveSystem from the scenario seed, so any
// number of scenarios can execute concurrently on different threads: the
// discrete-event simulation is single-threaded and keeps all mutable state
// inside the instance.

#ifndef HIVE_SRC_CAMPAIGN_RUNNER_H_
#define HIVE_SRC_CAMPAIGN_RUNNER_H_

#include <string>
#include <vector>

#include "src/campaign/oracles.h"
#include "src/campaign/scenario.h"
#include "src/flash/config.h"

namespace campaign {

// The machine every scenario and every serve soak runs on: one single-CPU
// node per cell with 16 MiB each. Detection and containment do not depend on
// memory size, and a campaign builds hundreds of these machines.
flash::MachineConfig CampaignConfig(int num_cells);

struct ScenarioResult {
  ScenarioSpec spec;
  // Which faults actually landed (parallel to spec.faults).
  std::vector<bool> injected;
  std::vector<OracleViolation> violations;
  int corrupt_outputs = -1;  // -1 = outputs not validated this run.
  int excisions = 0;         // Cells confirmed failed by agreement this run.
  int pages_salvaged = 0;    // Pages adopted instead of discarded by recovery.
  Time end_time = 0;         // Simulated time when the scenario finished.
  uint64_t events_run = 0;   // Simulator events executed (throughput metric).
  // FNV-1a digest of the run's observable outcome (cell states, panic
  // reasons, injections, recovery count, violations). Two runs of the same
  // scenario -- on any thread, in any batch -- must produce equal
  // fingerprints; campaign_test and the repro flow rely on this.
  uint64_t fingerprint = 0;
  // Coverage feature set (sorted, deduplicated; see coverage.h). Drives
  // corpus admission in the guided campaign driver.
  std::vector<uint64_t> coverage;
  // Order-sensitive digest of the per-cell trace-event kind sequences; triage
  // buckets failures by (oracle, trace_signature).
  uint64_t trace_signature = 0;

  bool violated() const { return !violations.empty(); }
  // One-line outcome summary (used by the CLI's verbose mode).
  std::string Summary() const;
  // Multi-line violation report including the repro line.
  std::string ViolationReport() const;
};

// Runs the scenario to completion and judges it with the oracle library.
ScenarioResult RunScenario(const ScenarioSpec& spec);

}  // namespace campaign

#endif  // HIVE_SRC_CAMPAIGN_RUNNER_H_
