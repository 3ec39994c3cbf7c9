#include "src/core/process.h"

#include "src/base/log.h"
#include "src/core/cell.h"
#include "src/core/scheduler.h"

namespace hive {

Process::Process(ProcId pid, Cell* cell, std::unique_ptr<Behavior> behavior)
    : pid_(pid), cell_(cell), behavior_(std::move(behavior)), address_space_(cell) {}

Process::~Process() = default;

void Process::ReleaseToRecord() {
  behavior_.reset();
  std::vector<FileHandle>().swap(files_);
}

int Process::AddFile(const FileHandle& handle) {
  for (size_t fd = 0; fd < files_.size(); ++fd) {
    if (!files_[fd].valid()) {
      files_[fd] = handle;
      return static_cast<int>(fd);
    }
  }
  files_.push_back(handle);
  return static_cast<int>(files_.size() - 1);
}

FileHandle* Process::GetFile(int fd) {
  if (fd < 0 || static_cast<size_t>(fd) >= files_.size() ||
      !files_[static_cast<size_t>(fd)].valid()) {
    return nullptr;
  }
  return &files_[static_cast<size_t>(fd)];
}

void Process::RemoveFile(int fd) {
  if (fd >= 0 && static_cast<size_t>(fd) < files_.size()) {
    files_[static_cast<size_t>(fd)] = FileHandle{};
  }
}

std::vector<FileHandle> Process::OpenFiles() const {
  std::vector<FileHandle> open;
  for (const FileHandle& handle : files_) {
    if (handle.valid()) {
      open.push_back(handle);
    }
  }
  return open;
}

StepOutcome UserBarrier::Arrive(Ctx& ctx, Process& proc) {
  if (static_cast<int>(parked_.size()) + 1 >= parties_) {
    // Last arriver: release everyone.
    for (Process* waiter : parked_) {
      waiter->set_blocked_on(nullptr);
      waiter->cell()->sched().MakeRunnable(waiter);
    }
    parked_.clear();
    ctx.Charge(2000);  // Barrier bookkeeping.
    return StepOutcome::kContinue;
  }
  parked_.push_back(&proc);
  proc.set_blocked_on(this);
  ctx.Charge(2000);
  return StepOutcome::kBlocked;
}

void UserBarrier::RemoveParty(Process* proc) {
  // A killed member shrinks the barrier; if it was parked, drop it, and if
  // the remaining parked set now satisfies the (smaller) barrier, release.
  --parties_;
  for (auto it = parked_.begin(); it != parked_.end(); ++it) {
    if (*it == proc) {
      parked_.erase(it);
      break;
    }
  }
  if (parties_ > 0 && static_cast<int>(parked_.size()) >= parties_) {
    for (Process* waiter : parked_) {
      waiter->set_blocked_on(nullptr);
      waiter->cell()->sched().MakeRunnable(waiter);
    }
    parked_.clear();
  }
}

}  // namespace hive
