#include "src/base/sim_profile.h"

#include <chrono>

#include "src/base/log.h"

namespace base {

namespace {

thread_local SimProfile* g_active_profile = nullptr;

uint64_t HostNowNs() {
  // Host-clock read feeds only the benchmark attribution profile (ns
  // totals), never simulation state; deterministic outputs use the op
  // counters.
  // hive-lint: allow(R10): attribution-only host clock; no simulation state reads it.
  const auto now = std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          now.time_since_epoch())
          .count());
}

}  // namespace

std::string_view SimSubsystemName(SimSubsystem subsystem) {
  switch (subsystem) {
    case SimSubsystem::kVmFault:
      return "vm_fault";
    case SimSubsystem::kScheduler:
      return "scheduler";
    case SimSubsystem::kFilesystem:
      return "filesystem";
    case SimSubsystem::kCarefulRpc:
      return "careful_rpc";
    case SimSubsystem::kSips:
      return "sips";
    case SimSubsystem::kRecovery:
      return "recovery";
    case SimSubsystem::kOther:
      return "other";
    case SimSubsystem::kCount:
      break;
  }
  return "invalid";
}

void SimProfile::SetActive(SimProfile* profile) { g_active_profile = profile; }

void SimProfile::Begin() {
  CHECK(!running_);
  running_ = true;
  current_ = SimSubsystem::kOther;
  last_stamp_ = HostNowNs();
}

void SimProfile::End() {
  CHECK(running_);
  FlushTo(current_, HostNowNs());
  running_ = false;
}

void SimProfile::Reset() {
  CHECK(!running_);
  ns_.fill(0);
  ops_.fill(0);
  current_ = SimSubsystem::kOther;
  last_stamp_ = 0;
}

void SimProfile::FlushTo(SimSubsystem subsystem, uint64_t now) {
  if (now > last_stamp_) {
    ns_[static_cast<int>(subsystem)] += now - last_stamp_;
  }
  last_stamp_ = now;
}

uint64_t SimProfile::total_ns() const {
  uint64_t total = 0;
  for (uint64_t v : ns_) {
    total += v;
  }
  return total;
}

uint64_t SimProfile::total_ops() const {
  uint64_t total = 0;
  for (uint64_t v : ops_) {
    total += v;
  }
  return total;
}

void SimProfile::Merge(const SimProfile& other) {
  for (int i = 0; i < kSimSubsystemCount; ++i) {
    ns_[static_cast<size_t>(i)] += other.ns_[static_cast<size_t>(i)];
    ops_[static_cast<size_t>(i)] += other.ops_[static_cast<size_t>(i)];
  }
}

SimProfileScope::SimProfileScope(SimSubsystem subsystem)
    : profile_(g_active_profile) {
  if (profile_ == nullptr || !profile_->running_) {
    profile_ = nullptr;
    return;
  }
  outer_ = profile_->current_;
  profile_->FlushTo(outer_, HostNowNs());
  profile_->current_ = subsystem;
  profile_->ops_[static_cast<int>(subsystem)] += 1;
}

SimProfileScope::~SimProfileScope() {
  if (profile_ == nullptr) {
    return;
  }
  profile_->FlushTo(profile_->current_, HostNowNs());
  profile_->current_ = outer_;
}

}  // namespace base
