#include "src/core/careful_ref.h"

namespace hive {

CarefulRef::CarefulRef(Ctx* ctx, flash::PhysMem* mem, const KernelCosts& costs,
                       CellId target_cell, PhysAddr range_base, uint64_t range_size)
    : ctx_(ctx),
      mem_(mem),
      costs_(costs),
      target_cell_(target_cell),
      range_base_(range_base),
      range_size_(range_size) {
  // careful_on: capture the stack frame and record the intended cell.
  ctx_->Charge(costs_.careful_on_ns);
}

CarefulRef::~CarefulRef() {
  // careful_off: future bus errors in the reading cell panic the kernel again.
  ctx_->Charge(costs_.careful_off_ns);
}

base::Status CarefulRef::CheckAddr(PhysAddr addr, uint64_t size, uint64_t alignment) const {
  if (alignment != 0 && addr % alignment != 0) {
    return base::BadRemoteData();
  }
  if (size > range_size_ || addr < range_base_ || addr - range_base_ > range_size_ - size) {
    // Not within the memory range belonging to the expected cell.
    return base::BadRemoteData();
  }
  return base::OkStatus();
}

void CarefulRef::ChargeAccessAt(PhysAddr addr, uint64_t bytes) {
  const uint64_t first = addr / 128;
  const uint64_t last = (addr + (bytes == 0 ? 0 : bytes - 1)) / 128;
  bool charged_header = false;
  for (uint64_t line = first; line <= last; ++line) {
    if (line == last_line_) {
      continue;
    }
    if (!charged_header) {
      ctx_->Charge(costs_.careful_check_ns + costs_.careful_copy_ns);
      charged_header = true;
    }
    ctx_->Charge(costs_.remote_miss_ns);
    last_line_ = line;
  }
}

base::Status CarefulRef::CheckTag(PhysAddr payload, uint32_t expected_tag) {
  // The header sits kHeaderSize bytes below the payload: {magic, tag, size}.
  if (payload < KernelHeap::kHeaderSize) {
    return base::BadRemoteData();
  }
  const PhysAddr header = payload - KernelHeap::kHeaderSize;
  RETURN_IF_ERROR(CheckAddr(header, KernelHeap::kHeaderSize, 8));
  ChargeAccessAt(header, KernelHeap::kHeaderSize);
  uint32_t magic = 0;
  uint32_t tag = 0;
  RETURN_IF_ERROR(Access([&] {
    magic = mem_->ReadValue<uint32_t>(ctx_->cpu, header);
    tag = mem_->ReadValue<uint32_t>(ctx_->cpu, header + 4);
  }));
  if (magic != KernelHeap::kHeaderMagic || tag != expected_tag) {
    return base::BadRemoteData();
  }
  return base::OkStatus();
}

base::Result<ChainWalk> CarefulRef::ChaseChain(PhysAddr head, uint32_t expected_tag,
                                               int max_hops, bool detect_cycles) {
  ChainWalk walk;
  last_chain_hops_ = 0;
  std::vector<PhysAddr> visited;
  PhysAddr node = head;
  while (node != 0) {
    if (walk.hops >= max_hops) {
      // Hop bound exhausted: a rogue peer may have grown (or looped) the
      // chain; return a Status instead of chasing it forever.
      return base::ResourceExhausted();
    }
    if (detect_cycles) {
      for (PhysAddr seen : visited) {
        if (seen == node) {
          return base::BadRemoteData();
        }
      }
      visited.push_back(node);
    }
    // Copy the node out word-by-word (RemoteChainNode layout: value, next);
    // the bus only transfers naturally aligned power-of-two sizes.
    RETURN_IF_ERROR_RESULT(CheckTag(node, expected_tag));
    ASSIGN_OR_RETURN(const uint64_t value, Read<uint64_t>(node));
    ASSIGN_OR_RETURN(const uint64_t next, Read<uint64_t>(node + 8));
    ++walk.hops;
    last_chain_hops_ = walk.hops;
    walk.values.push_back(value);
    node = next;
  }
  return walk;
}

base::Result<SeqSnapshot> CarefulRef::ReadSeqlocked(PhysAddr block, uint32_t expected_tag,
                                                    int max_retries) {
  SeqSnapshot snapshot;
  for (int attempt = 0; attempt <= max_retries; ++attempt) {
    if (attempt > 0 && retry_hook_) {
      retry_hook_(attempt);
    }
    // Word-by-word copy-out (RemoteSeqBlock layout: seq, word0, word1).
    RETURN_IF_ERROR_RESULT(CheckTag(block, expected_tag));
    ASSIGN_OR_RETURN(const uint64_t seq_before, Read<uint64_t>(block));
    if (seq_before % 2 != 0) {
      // Writer mid-update: the payload words may be torn; retry.
      snapshot.retries = attempt + 1;
      continue;
    }
    ASSIGN_OR_RETURN(snapshot.word0, Read<uint64_t>(block + 8));
    ASSIGN_OR_RETURN(snapshot.word1, Read<uint64_t>(block + 16));
    // Re-read the sequence word: if it moved, the copy above may mix old and
    // new halves and must be discarded.
    ASSIGN_OR_RETURN(const uint64_t after, Read<uint64_t>(block));
    if (after != seq_before) {
      snapshot.retries = attempt + 1;
      continue;
    }
    snapshot.retries = attempt;
    return snapshot;
  }
  // Persistently torn across every retry: treat as corrupt remote data.
  return base::BadRemoteData();
}

base::Status CarefulRef::ReadBytes(PhysAddr addr, std::span<uint8_t> out) {
  RETURN_IF_ERROR(CheckAddr(addr, out.size(), 1));
  ChargeAccessAt(addr, out.size());
  return Access([&] { mem_->Read(ctx_->cpu, addr, out); });
}

}  // namespace hive
