// hive_serve engine: a long-running multi-tenant soak of a Hive machine under
// continuous fault pressure. Tenants submit a steady mix of short requests
// (file reads/writes, page-fault bursts, metadata walks, fork storms) while a
// background fault plan rotates through every campaign fault family --
// node failure, address-map corruption, wild write, false accusation, message
// faults, rogue cell, reboot storm -- one episode at a time, waiting for the
// system to become whole again between episodes.
//
// Per-request SLO accounting threads through the core via SloRecorder:
// submit-to-completion latency histograms (p50/p99/p999), per-cell
// availability windows (downtime + recovery barrier freezes), admission sheds
// (graceful degradation under overload), and per-episode recovery durations.
// The run is one serial event loop, so the summary fingerprint is a function
// of the options alone; serve_test pins the 20 s smoke soak's.

#ifndef HIVE_SRC_SERVE_SERVE_H_
#define HIVE_SRC_SERVE_SERVE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/histogram.h"
#include "src/campaign/scenario.h"
#include "src/core/types.h"

namespace serve {

// BENCH_serve.json schema identifier.
inline constexpr char kServeSchema[] = "hive-serve-v1";

struct ServeOptions {
  uint64_t seed = 1;
  int num_cells = 4;
  int tenants = 8;
  hive::Time duration_ns = 60 * hive::kSecond;  // Submission window.
  hive::Time drain_ns = 5 * hive::kSecond;      // Post-window completion grace.

  // Graceful degradation: per-cell admission watermarks (0 = off).
  size_t admit_runq_watermark = 48;
  uint64_t admit_heap_watermark_bytes = 0;

  // SLO bounds the oracles enforce.
  double availability_floor = 0.70;             // Per cell, over the window.
  hive::Time latency_p999_bound_ns = 400 * hive::kMillisecond;
  hive::Time recovery_bound_ns = 400 * hive::kMillisecond;  // Per episode.

  // Seeded sensitivity bugs proving the oracles can trip:
  //   "no_shed"       -- admission control disabled; overload bursts pile up
  //                      on one cell and the p999 latency bound must trip.
  //   "slow_recovery" -- recovery page scans 1000x slower; the per-episode
  //                      recovery-time bound must trip.
  std::string bug;

  // Smoke mode (CI): fewer tenants and a lighter request mix, same 60 s
  // simulated window and the same fault rotation.
  bool smoke = false;
};

// One background fault episode: inject, then wait until the system is whole
// (every cell live, reintegrated and out of recovery) before the next.
struct FaultEpisode {
  campaign::FaultKind kind = campaign::FaultKind::kNodeFailure;
  hive::CellId victim = 0;
  hive::Time injected_at = 0;
  hive::Time resolved_at = 0;       // 0: still open when the run ended.
  uint64_t completed_during = 0;    // Requests completed while open.
  bool landed = false;
};

// Per-cell slice of the run summary.
struct ServeCellSummary {
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t shed = 0;
  hive::Time down_ns = 0;
  hive::Time suspended_ns = 0;
  double availability = 1.0;
  size_t max_runnable = 0;
};

struct ServeResult {
  ServeOptions options;  // As run: tenants raised to at least num_cells.
  hive::Time end_time = 0;

  // Requests.
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t shed = 0;        // Admission-control rejections.
  uint64_t unroutable = 0;  // No live cell to submit to at pump time.
  uint64_t lost = 0;        // Process died with a fault (killed/cell death).
  uint64_t hung = 0;        // Never finished within the drain window.
  base::Histogram latency;  // Merged across cells, completed requests.

  std::vector<ServeCellSummary> cells;
  double availability_min = 1.0;

  // Fault pressure.
  std::vector<FaultEpisode> episodes;
  uint64_t episodes_landed = 0;
  std::vector<uint64_t> per_family;  // Indexed like campaign::kAllFaultKinds.
  double requests_per_fault = 0.0;   // Completed per landed episode.
  std::vector<hive::Time> recovery_durations;
  int recoveries_run = 0;
  int reintegrations = 0;

  // Wax (paper section 3.2): incarnations started and scans run. Each
  // incarnation has one scan chain, so scans grow with the run's length, not
  // with the recoveries it survived. Reported, not hashed into the
  // fingerprint.
  int wax_incarnations = 0;
  uint64_t wax_scans = 0;

  // SLO verdict.
  std::vector<std::string> violations;
  bool ok() const { return violations.empty(); }

  // Deterministic digest of the summary (a function of the options).
  uint64_t fingerprint = 0;

  // Human-readable tables (system state, recovery episodes, SLO summary).
  std::string report;
};

ServeResult RunSoak(const ServeOptions& options);

}  // namespace serve

#endif  // HIVE_SRC_SERVE_SERVE_H_
