#include "src/workloads/workload.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "src/base/log.h"
#include "src/core/filesystem.h"
#include "src/flash/bus_error.h"

namespace workloads {

namespace {

uint64_t SeedState(uint64_t seed) { return seed * 0x9E3779B97F4A7C15ull + 1; }

uint64_t XorShift(uint64_t x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

// A 64x64 matrix over GF(2), stored by column: column j is the image of bit j.
using BitMatrix = std::array<uint64_t, 64>;

uint64_t Apply(const BitMatrix& m, uint64_t x) {
  uint64_t y = 0;
  for (; x != 0; x &= x - 1) {
    y ^= m[static_cast<size_t>(std::countr_zero(x))];
  }
  return y;
}

// XorShift is linear over GF(2): XorShift(x) = M x. Entry k is M^(2^k).
std::array<BitMatrix, 64> BuildJumpTable() {
  std::array<BitMatrix, 64> pow{};
  for (size_t j = 0; j < 64; ++j) {
    pow[0][j] = XorShift(1ull << j);
  }
  for (size_t k = 1; k < 64; ++k) {
    for (size_t j = 0; j < 64; ++j) {
      pow[k][j] = Apply(pow[k - 1], pow[k - 1][j]);
    }
  }
  return pow;
}

// Generator state for block `block` (bytes [8 * block, 8 * block + 8)):
// M^(block + 1) applied to the seeded state.
uint64_t BlockState(uint64_t seed, uint64_t block) {
  static const std::array<BitMatrix, 64> kJump = BuildJumpTable();
  uint64_t x = SeedState(seed);
  uint64_t steps = block + 1;
  for (size_t k = 0; steps != 0; ++k, steps >>= 1) {
    if ((steps & 1) != 0) {
      x = Apply(kJump[k], x);
    }
  }
  return x;
}

// Byte k of a block is x >> 8k, i.e. the state's little-endian bytes: one
// 8-byte store per state on little-endian hosts.
void StoreWord(uint8_t* out, uint64_t x) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, &x, sizeof(x));
  } else {
    for (int k = 0; k < 8; ++k) {
      out[k] = static_cast<uint8_t>(x >> (8 * k));
    }
  }
}

// Two generator states stepped side by side. The GCC/Clang vector extension
// compiles this to SSE2 at the default x86-64 target, with no intrinsics.
using StatePair = uint64_t __attribute__((vector_size(16)));

StatePair XorShift(StatePair x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

// Below this many blocks per lane, the three jumps that seed lanes 1-3 cost
// more than stepping four lanes at once saves; PatternAt steps one lane.
constexpr size_t kMinLaneBlocks = 64;

// Writes the 4 * `lane` blocks from `block`, whose state is `x`, to `out` as
// four contiguous lanes, each seeded by a BlockState jump. Returns the state
// of the block after the last.
uint64_t FillLanes(uint64_t seed, uint64_t block, uint64_t x, uint8_t* out, size_t lane) {
  const size_t stride = 8 * lane;
  StatePair low = {x, BlockState(seed, block + lane)};
  StatePair high = {BlockState(seed, block + 2 * lane), BlockState(seed, block + 3 * lane)};
  for (uint8_t* const end = out + stride; out != end; out += 8) {
    StoreWord(out, low[0]);
    StoreWord(out + stride, low[1]);
    StoreWord(out + 2 * stride, high[0]);
    StoreWord(out + 3 * stride, high[1]);
    low = XorShift(low);
    high = XorShift(high);
  }
  return high[1];
}

}  // namespace

std::vector<uint8_t> PatternAt(uint64_t seed, uint64_t offset, size_t size) {
  std::vector<uint8_t> out(size);
  if (size == 0) {
    return out;
  }
  uint64_t block = offset / 8;
  uint64_t x = BlockState(seed, block);
  size_t done = 0;
  const size_t head = static_cast<size_t>(offset % 8);
  if (head != 0) {
    uint8_t word[8];
    StoreWord(word, x);
    done = std::min(8 - head, size);
    std::memcpy(out.data(), word + head, done);
    x = XorShift(x);
    ++block;
  }
  const size_t lane = (size - done) / 8 / 4;
  if (lane >= kMinLaneBlocks) {
    x = FillLanes(seed, block, x, out.data() + done, lane);
    done += 4 * 8 * lane;
  }
  for (; done + 8 <= size; done += 8) {
    StoreWord(out.data() + done, x);
    x = XorShift(x);
  }
  if (done < size) {
    uint8_t word[8];
    StoreWord(word, x);
    std::memcpy(out.data() + done, word, size - done);
  }
  return out;
}

std::vector<uint8_t> PatternData(uint64_t seed, size_t size) {
  return PatternAt(seed, 0, size);
}

StepOutcome ScriptedBehavior::Step(Ctx& ctx, Process& proc) {
  if (next_ >= ops_.size()) {
    return StepOutcome::kDone;
  }
  const size_t index = next_;
  const StepOutcome outcome = ops_[index](ctx, proc);
  switch (outcome) {
    case StepOutcome::kContinue:
      // An op may keep internal state and demand re-execution by not
      // signalling completion; ops below advance by bumping next_ through
      // the sentinel convention: they return kContinue only when complete.
      next_ = index + 1;
      if (next_ >= ops_.size()) {
        return StepOutcome::kDone;
      }
      return StepOutcome::kContinue;
    case StepOutcome::kBlocked:
      // The same op re-runs on wake; blocking ops keep their own state to
      // know they already arrived/waited.
      return StepOutcome::kBlocked;
    case StepOutcome::kDone:
      // The op wants to repeat next Step (multi-step op in progress).
      return StepOutcome::kContinue;
    case StepOutcome::kFailed:
      return StepOutcome::kFailed;
  }
  return StepOutcome::kFailed;
}

namespace {

// Multi-step ops signal "not finished yet" by returning kDone, which
// ScriptedBehavior::Step translates to "repeat this op" (see above). These
// helpers make the convention readable.
constexpr StepOutcome kOpRepeat = StepOutcome::kDone;
constexpr StepOutcome kOpComplete = StepOutcome::kContinue;

}  // namespace

OpFn OpCompute(Time total, Time chunk) {
  auto remaining = std::make_shared<Time>(total);
  return [remaining, chunk](Ctx& ctx, Process&) -> StepOutcome {
    const Time slice = std::min(*remaining, chunk);
    ctx.Charge(slice);
    *remaining -= slice;
    return *remaining > 0 ? kOpRepeat : kOpComplete;
  };
}

OpFn OpOpen(std::string path, std::shared_ptr<int> fd_out) {
  return [path = std::move(path), fd_out](Ctx& ctx, Process& proc) -> StepOutcome {
    auto handle = ctx.cell->fs().Open(ctx, path);
    if (!handle.ok()) {
      proc.exit_reason = "open failed: " + std::string(handle.status().name());
      return StepOutcome::kFailed;
    }
    *fd_out = proc.AddFile(*handle);
    return kOpComplete;
  };
}

OpFn OpRead(std::shared_ptr<int> fd, uint64_t offset, uint64_t len, uint64_t verify_seed) {
  return [fd, offset, len, verify_seed](Ctx& ctx, Process& proc) -> StepOutcome {
    hive::FileHandle* handle = proc.GetFile(*fd);
    if (handle == nullptr) {
      return StepOutcome::kFailed;
    }
    std::vector<uint8_t> buf(len);
    base::Status status = ctx.cell->fs().Read(ctx, *handle, offset, std::span<uint8_t>(buf));
    if (!status.ok()) {
      proc.exit_reason = "read failed: " + std::string(status.name());
      return StepOutcome::kFailed;
    }
    if (verify_seed != 0 && buf != PatternAt(verify_seed, offset, len)) {
      proc.exit_reason = "read data corrupt";
      return StepOutcome::kFailed;
    }
    return kOpComplete;
  };
}

OpFn OpWrite(std::shared_ptr<int> fd, uint64_t offset, uint64_t len, uint64_t seed) {
  return [fd, offset, len, seed](Ctx& ctx, Process& proc) -> StepOutcome {
    hive::FileHandle* handle = proc.GetFile(*fd);
    if (handle == nullptr) {
      return StepOutcome::kFailed;
    }
    const std::vector<uint8_t> chunk = PatternAt(seed, offset, len);
    base::Status status =
        ctx.cell->fs().Write(ctx, *handle, offset, std::span<const uint8_t>(chunk));
    if (!status.ok()) {
      proc.exit_reason = "write failed: " + std::string(status.name());
      return StepOutcome::kFailed;
    }
    return kOpComplete;
  };
}

OpFn OpClose(std::shared_ptr<int> fd) {
  return [fd](Ctx& ctx, Process& proc) -> StepOutcome {
    hive::FileHandle* handle = proc.GetFile(*fd);
    if (handle != nullptr) {
      ctx.cell->fs().Close(ctx, *handle);
      proc.RemoveFile(*fd);
    }
    return kOpComplete;
  };
}

OpFn OpMapFile(std::shared_ptr<int> fd, hive::VirtAddr va, uint64_t len, bool writable) {
  return [fd, va, len, writable](Ctx& ctx, Process& proc) -> StepOutcome {
    hive::FileHandle* handle = proc.GetFile(*fd);
    if (handle == nullptr) {
      return StepOutcome::kFailed;
    }
    base::Status status = proc.address_space().MapFile(ctx, va, len, *handle, writable);
    return status.ok() ? kOpComplete : StepOutcome::kFailed;
  };
}

OpFn OpMapAnon(hive::VirtAddr va, uint64_t len, bool writable) {
  return [va, len, writable](Ctx& ctx, Process& proc) -> StepOutcome {
    base::Status status = proc.address_space().MapAnon(ctx, va, len, writable);
    return status.ok() ? kOpComplete : StepOutcome::kFailed;
  };
}

OpFn OpFaultRange(hive::VirtAddr va, uint64_t pages, bool write, uint64_t per_step) {
  auto done = std::make_shared<Counter>();
  return [va, pages, write, per_step, done](Ctx& ctx, Process& proc) -> StepOutcome {
    const uint64_t page_size = ctx.cell->machine().mem().page_size();
    const uint64_t end = std::min(pages, done->value + per_step);
    for (; done->value < end; ++done->value) {
      base::Status status = PageFault(ctx, proc, va + done->value * page_size, write);
      if (!status.ok()) {
        proc.exit_reason = "page fault failed: " + std::string(status.name());
        return StepOutcome::kFailed;
      }
      if (!ctx.cell->alive()) {
        return StepOutcome::kFailed;
      }
    }
    return done->value < pages ? kOpRepeat : kOpComplete;
  };
}

OpFn OpTouchMapped(hive::VirtAddr va, uint64_t pages, bool write, int misses_per_page,
                   uint64_t per_step, hive::Time remote_write_base_ns) {
  auto done = std::make_shared<Counter>();
  return [va, pages, write, misses_per_page, per_step, remote_write_base_ns,
          done](Ctx& ctx, Process& proc) -> StepOutcome {
    flash::Machine& machine = ctx.cell->machine();
    const uint64_t page_size = machine.mem().page_size();
    const bool checking = machine.firewall().checking_enabled();
    const uint64_t end = std::min(pages, done->value + per_step);
    for (; done->value < end; ++done->value) {
      const hive::VirtAddr page_va = (va + done->value * page_size) / page_size * page_size;
      hive::Mapping* mapping = proc.address_space().FindMapping(page_va);
      if (mapping == nullptr) {
        // Fault it in first.
        base::Status status = PageFault(ctx, proc, page_va, write);
        if (!status.ok()) {
          proc.exit_reason = "touch fault failed: " + std::string(status.name());
          return StepOutcome::kFailed;
        }
        mapping = proc.address_space().FindMapping(page_va);
        if (mapping == nullptr) {
          return StepOutcome::kFailed;
        }
      }
      const bool remote = mapping->pfdat->extended;
      for (int m = 0; m < misses_per_page; ++m) {
        if (write) {
          ctx.Charge(remote ? machine.cache().RemoteWriteMiss(checking, remote_write_base_ns)
                            : machine.cache().LocalMiss());
        } else {
          ctx.Charge(remote ? machine.cache().RemoteReadMiss() : machine.cache().LocalMiss());
        }
      }
      // One real access per page so the firewall is genuinely exercised.
      auto access = [&] {
        if (write) {
          const uint64_t value = machine.mem().ReadValue<uint64_t>(ctx.cpu,
                                                                   mapping->pfdat->frame);
          machine.mem().WriteValue<uint64_t>(ctx.cpu, mapping->pfdat->frame, value + 1);
        } else {
          (void)machine.mem().ReadValue<uint64_t>(ctx.cpu, mapping->pfdat->frame);
        }
      };
      if (!flash::CaptureTrap(access)) {
        continue;
      }
      // A user-level protection trap, a legal outcome: under write-ownership
      // firewall policies another writer may have evicted our grant. The
      // kernel re-faults for write ownership and retries once; a second trap
      // (or a dead home) kills the process.
      if (write && mapping->pfdat->imported_from != hive::kInvalidCell) {
        mapping->pfdat->import_writable = false;  // Force the upgrade RPC.
        ctx.cell->fs().ReleasePage(ctx, mapping->pfdat);
        proc.address_space().RemoveMapping(page_va);
        base::Status status = PageFault(ctx, proc, page_va, /*write=*/true);
        mapping = proc.address_space().FindMapping(page_va);
        if (status.ok() && mapping != nullptr && !flash::CaptureTrap(access)) {
          continue;
        }
      }
      proc.exit_reason = "bus error on user access";
      return StepOutcome::kFailed;
    }
    return done->value < pages ? kOpRepeat : kOpComplete;
  };
}

OpFn OpBarrier(std::shared_ptr<hive::UserBarrier> barrier) {
  auto arrived = std::make_shared<bool>(false);
  return [barrier, arrived](Ctx& ctx, Process& proc) -> StepOutcome {
    if (*arrived) {
      // Woken after the barrier released us.
      *arrived = false;
      return kOpComplete;
    }
    const StepOutcome outcome = barrier->Arrive(ctx, proc);
    if (outcome == StepOutcome::kBlocked) {
      *arrived = true;
    }
    return outcome;
  };
}

OpFn OpFork(hive::CellId target, BehaviorFactory factory,
            std::shared_ptr<std::vector<hive::ProcId>> pids, int64_t task_group,
            bool fork_from_self) {
  return [target, factory, pids, task_group, fork_from_self](Ctx& ctx,
                                                             Process& proc) -> StepOutcome {
    hive::CellId where = target;
    if (where == hive::kInvalidCell) {
      const hive::WaxHints& hints = ctx.cell->wax_hints();
      where = hints.valid && hints.preferred_fork_target != hive::kInvalidCell
                  ? hints.preferred_fork_target
                  : ctx.cell->id();
    }
    auto pid = ctx.cell->system()->Fork(ctx, where, factory(), task_group,
                                        fork_from_self ? &proc : nullptr);
    if (!pid.ok()) {
      proc.exit_reason = "fork failed: " + std::string(pid.status().name());
      return StepOutcome::kFailed;
    }
    pids->push_back(*pid);
    return kOpComplete;
  };
}

OpFn OpWaitAll(std::shared_ptr<std::vector<hive::ProcId>> pids) {
  auto index = std::make_shared<Counter>();
  return [pids, index](Ctx& ctx, Process& proc) -> StepOutcome {
    ctx.Charge(10 * hive::kMicrosecond);  // wait() syscall.
    while (index->value < pids->size()) {
      const hive::ProcId child = (*pids)[index->value];
      if (ctx.cell->system()->ProcessFinished(child)) {
        ++index->value;
        continue;
      }
      if (ctx.cell->system()->AddExitWaiter(child, proc.pid())) {
        return StepOutcome::kBlocked;  // Re-checked (same op repeats) on wake.
      }
    }
    return kOpComplete;
  };
}

OpFn OpMetadataOps(int count, hive::CellId remote_home, int per_step) {
  auto done = std::make_shared<Counter>();
  return [count, remote_home, per_step, done](Ctx& ctx, Process& proc) -> StepOutcome {
    (void)proc;
    const hive::KernelCosts& costs = ctx.cell->costs();
    const bool remote = remote_home != hive::kInvalidCell && remote_home != ctx.cell->id();
    const uint64_t end = std::min<uint64_t>(static_cast<uint64_t>(count),
                                            done->value + static_cast<uint64_t>(per_step));
    for (; done->value < end; ++done->value) {
      ctx.cell->ChargeSyscallTax(ctx);
      ctx.Charge(costs.open_local_ns);
      if (remote) {
        ctx.Charge(costs.open_remote_extra_ns);
      }
    }
    return done->value < static_cast<uint64_t>(count) ? kOpRepeat : kOpComplete;
  };
}

}  // namespace workloads
