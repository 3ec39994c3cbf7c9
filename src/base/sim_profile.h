// Per-subsystem attribution of simulation wall time (hive_bench schema v2).
//
// The campaign's cost per simulated event is dominated by kernel-model code,
// not the event queue, so the bench harness needs to know *which* subsystem
// burns the host cycles. A SimProfile is activated per thread around a
// scenario run; instrumented kernel paths open a SimProfileScope and the
// profile accrues EXCLUSIVE host-clock time per subsystem: entering a nested
// scope (a page fault issuing an RPC, say) pauses the outer subsystem's
// clock, so the per-subsystem sums add up to the bracketed total instead of
// double-counting.
//
// Two kinds of output with different determinism properties:
//  - op counts: how many times each subsystem scope was entered. These are a
//    pure function of the simulation and must be bit-identical across runs
//    (the attribution test asserts this).
//  - ns: host wall time, measurement-noisy by nature. Only ratios and sums
//    are meaningful.
//
// When no profile is active (every run except benchmarking), a scope is two
// branches on a thread-local pointer.

#ifndef HIVE_SRC_BASE_SIM_PROFILE_H_
#define HIVE_SRC_BASE_SIM_PROFILE_H_

#include <array>
#include <cstdint>
#include <string_view>

namespace base {

enum class SimSubsystem : int {
  kVmFault = 0,   // Page fault path (TLB refill through page bind).
  kScheduler,     // Run-slice dispatch, context switches, clock ticks.
  kFilesystem,    // File operations and page cache service.
  kCarefulRpc,    // Careful reference protocol + RPC stubs/transport.
  kSips,          // SIPS message delivery.
  kRecovery,      // Agreement, recovery rounds, invariant audits.
  kOther,         // Everything outside an instrumented scope.
  kCount,
};

constexpr int kSimSubsystemCount = static_cast<int>(SimSubsystem::kCount);

std::string_view SimSubsystemName(SimSubsystem subsystem);

class SimProfile {
 public:
  SimProfile() = default;

  // Thread-local activation. The caller owns the profile and must deactivate
  // (SetActive(nullptr)) before it goes out of scope.
  static void SetActive(SimProfile* profile);

  // Brackets the measured region: all host time between Begin and End is
  // attributed somewhere (unattributed time lands in kOther), so the
  // per-subsystem ns sum equals the bracketed wall time.
  void Begin();
  void End();

  void Reset();

  uint64_t ns(SimSubsystem subsystem) const {
    return ns_[static_cast<int>(subsystem)];
  }
  uint64_t ops(SimSubsystem subsystem) const {
    return ops_[static_cast<int>(subsystem)];
  }
  uint64_t total_ns() const;
  uint64_t total_ops() const;

  // Accumulates another profile's totals (bench aggregates scenarios).
  void Merge(const SimProfile& other);

 private:
  friend class SimProfileScope;

  // Flushes elapsed host time since last_stamp_ to the current subsystem.
  void FlushTo(SimSubsystem subsystem, uint64_t now);

  std::array<uint64_t, kSimSubsystemCount> ns_ = {};
  std::array<uint64_t, kSimSubsystemCount> ops_ = {};
  SimSubsystem current_ = SimSubsystem::kOther;
  uint64_t last_stamp_ = 0;
  bool running_ = false;
};

// RAII exclusive-time scope. Cheap no-op when no profile is active on this
// thread.
class SimProfileScope {
 public:
  explicit SimProfileScope(SimSubsystem subsystem);
  ~SimProfileScope();

  SimProfileScope(const SimProfileScope&) = delete;
  SimProfileScope& operator=(const SimProfileScope&) = delete;

 private:
  SimProfile* profile_;
  SimSubsystem outer_ = SimSubsystem::kOther;
};

}  // namespace base

#endif  // HIVE_SRC_BASE_SIM_PROFILE_H_
