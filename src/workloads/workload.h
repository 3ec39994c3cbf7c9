// Workload infrastructure: scripted process behaviours built from composable
// operations (compute, file I/O, page faults, barriers, forks), plus
// deterministic data patterns so file outputs can be validated against
// reference copies exactly as the paper's fault injection experiments do
// (section 7.4).

#ifndef HIVE_SRC_WORKLOADS_WORKLOAD_H_
#define HIVE_SRC_WORKLOADS_WORKLOAD_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/cell.h"
#include "src/core/hive_system.h"
#include "src/core/process.h"
#include "src/core/vm_fault.h"

namespace workloads {

using hive::Ctx;
using hive::Process;
using hive::StepOutcome;
using hive::Time;

// Deterministic pattern data: byte i of stream `seed` is a fixed function of
// (seed, i), so both producers and validators can generate it independently.
// Stream bytes come in 8-byte blocks: block b is the xorshift64 state after
// b + 1 steps from a seed-derived start, byte k of the block being x >> 8k.
//
// PatternAt returns bytes [offset, offset + size) without generating the
// prefix: xorshift64 is linear over GF(2), so the state of any block is
// reached in popcount(block + 1) bit-matrix products. An I/O chunk thus
// costs its own length plus O(log offset), however many streams are live.
// A long range is cut into four contiguous lanes, each seeded by such a
// jump, and the lanes are stepped side by side.
std::vector<uint8_t> PatternAt(uint64_t seed, uint64_t offset, size_t size);
// The stream's first `size` bytes: PatternAt(seed, 0, size).
std::vector<uint8_t> PatternData(uint64_t seed, size_t size);

// One scripted operation. Returning kContinue advances to the next op;
// kBlocked parks the process (resuming at the NEXT op when woken); kFailed
// aborts the process.
using OpFn = std::function<StepOutcome(Ctx&, Process&)>;

class ScriptedBehavior : public hive::Behavior {
 public:
  explicit ScriptedBehavior(std::string name) : name_(std::move(name)) {}

  void Add(OpFn op) { ops_.push_back(std::move(op)); }

  StepOutcome Step(Ctx& ctx, Process& proc) override;
  std::string name() const override { return name_; }

 private:
  std::string name_;
  std::vector<OpFn> ops_;
  size_t next_ = 0;
};

// Shared mutable state for ops that span multiple Steps.
struct Counter {
  uint64_t value = 0;
};

// --- Op builders. ---

// Charges `total` of pure user-mode compute, `chunk` per Step.
OpFn OpCompute(Time total, Time chunk = 5 * hive::kMillisecond);

// Opens `path`, storing the fd in *fd_out. Fails the process on error.
OpFn OpOpen(std::string path, std::shared_ptr<int> fd_out);

// Reads [offset, offset+len) and (optionally) verifies it matches
// PatternData(seed) at that offset; seed == 0 skips verification.
OpFn OpRead(std::shared_ptr<int> fd, uint64_t offset, uint64_t len, uint64_t verify_seed);

// Writes PatternData(seed) bytes at [offset, offset+len).
OpFn OpWrite(std::shared_ptr<int> fd, uint64_t offset, uint64_t len, uint64_t seed);

OpFn OpClose(std::shared_ptr<int> fd);

// Maps the open file at `va` (writable or not).
OpFn OpMapFile(std::shared_ptr<int> fd, hive::VirtAddr va, uint64_t len, bool writable);

// Maps an anonymous region.
OpFn OpMapAnon(hive::VirtAddr va, uint64_t len, bool writable);

// Faults `pages` pages starting at va (stride = page size), `per_step` pages
// per scheduler step. write selects write faults.
OpFn OpFaultRange(hive::VirtAddr va, uint64_t pages, bool write, uint64_t per_step = 64);

// User-mode access to already-mapped pages: performs one real load/store per
// page (so wild-write protection is exercised) and charges `misses_per_page`
// cache misses of the appropriate class.
// `remote_write_base_ns` models contended (3-hop) remote write misses; 0
// uses the machine's average miss latency.
OpFn OpTouchMapped(hive::VirtAddr va, uint64_t pages, bool write, int misses_per_page,
                   uint64_t per_step = 256, hive::Time remote_write_base_ns = 0);

// Arrives at the barrier (blocks unless last).
OpFn OpBarrier(std::shared_ptr<hive::UserBarrier> barrier);

// Forks a child with the behaviour produced by `factory` onto `target`
// (kInvalidCell: the Wax fork hint or local). Appends the pid to *pids.
using BehaviorFactory = std::function<std::unique_ptr<hive::Behavior>()>;
OpFn OpFork(hive::CellId target, BehaviorFactory factory,
            std::shared_ptr<std::vector<hive::ProcId>> pids, int64_t task_group = -1,
            bool fork_from_self = false);

// Blocks until all pids in *pids have finished.
OpFn OpWaitAll(std::shared_ptr<std::vector<hive::ProcId>> pids);

// Charges a number of "miscellaneous kernel operations" (stat/lookup style):
// local cost per op, plus the remote-open extra when `remote_home` is another
// cell. Models the metadata traffic of compilation workloads.
OpFn OpMetadataOps(int count, hive::CellId remote_home, int per_step = 8);

}  // namespace workloads

#endif  // HIVE_SRC_WORKLOADS_WORKLOAD_H_
