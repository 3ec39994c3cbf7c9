// Request behaviours for the hive_serve soak harness: short scripted
// processes modelling one served request each (file read, file write, page
// fault burst, metadata walk, fork fan-out). The harness forks thousands of
// these across cells as tenants submit; each finishes in simulated
// milliseconds so submit-to-completion latency is a meaningful SLO.
//
// The builders return plain ScriptedBehaviors; the serve pump appends its own
// completion op (recording latency into the SLO histograms) before forking.

#ifndef HIVE_SRC_WORKLOADS_SERVE_REQUESTS_H_
#define HIVE_SRC_WORKLOADS_SERVE_REQUESTS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/workloads/workload.h"

namespace workloads {

// Parameters shared by the request builders for one tenant.
struct ServeRequestParams {
  std::string data_path;     // Tenant data file (RunSoak creates it at start).
  uint64_t file_seed = 0;    // Pattern seed of the data file.
  uint64_t file_size = 0;    // Bytes in the data file.
  uint64_t request_seed = 0; // Per-request determinism (offsets, garbage).
  hive::CellId home = 0;     // Cell metadata traffic is homed on.
};

// Read request: open, read-verify two chunks at seeded offsets, close, then
// a short compute epilogue.
std::unique_ptr<ScriptedBehavior> MakeReadRequest(const ServeRequestParams& params);

// Write request: open, write a chunk at a tenant-private scratch offset
// (beyond the verified pattern prefix), close.
std::unique_ptr<ScriptedBehavior> MakeWriteRequest(const ServeRequestParams& params);

// Page-fault request: map an anonymous region, write-fault it, touch it.
std::unique_ptr<ScriptedBehavior> MakeFaultRequest(const ServeRequestParams& params);

// Metadata request: a burst of stat/lookup style kernel ops against the
// tenant's home cell (remote when served from a failover cell).
std::unique_ptr<ScriptedBehavior> MakeMetadataRequest(const ServeRequestParams& params);

// Fork-burst request: the served process forks `children` local compute
// children in one task group and waits for all of them (fork-storm churn).
std::unique_ptr<ScriptedBehavior> MakeForkBurstRequest(const ServeRequestParams& params,
                                                       int children);

}  // namespace workloads

#endif  // HIVE_SRC_WORKLOADS_SERVE_REQUESTS_H_
