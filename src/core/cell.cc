#include "src/core/cell.h"

#include "src/base/log.h"
#include "src/base/sim_profile.h"
#include "src/core/hive_system.h"
#include "src/flash/bus_error.h"

namespace hive {
namespace {

// Kernel text + static data + heap region at the bottom of each cell's
// memory ("OS internal data" in paper figure 3.1).
constexpr uint64_t kKernelRegionBytes = 4ull * 1024 * 1024;

}  // namespace

Cell::Cell(HiveSystem* system, CellId id, int first_node, int num_nodes)
    : system_(system), id_(id), first_node_(first_node), num_nodes_(num_nodes) {
  const flash::MachineConfig& config = system->machine().config();
  mem_base_ = static_cast<PhysAddr>(first_node) * config.memory_per_node;
  mem_size_ = static_cast<uint64_t>(num_nodes) * config.memory_per_node;
  for (int node = first_node; node < first_node + num_nodes; ++node) {
    for (int c = 0; c < config.cpus_per_node; ++c) {
      cpus_.push_back(node * config.cpus_per_node + c);
    }
  }
}

Cell::~Cell() = default;

flash::Machine& Cell::machine() const { return system_->machine(); }

const KernelCosts& Cell::costs() const { return system_->costs(); }

uint64_t Cell::CpuMask() const {
  uint64_t mask = 0;
  for (int cpu : cpus_) {
    mask |= 1ull << cpu;
  }
  return mask;
}

Ctx Cell::MakeCtx(int cpu_index) {
  Ctx ctx;
  ctx.cell = this;
  ctx.cpu = cpus_[static_cast<size_t>(cpu_index)];
  ctx.start = machine().Now();
  return ctx;
}

void Cell::ChargeSyscallTax(Ctx& ctx) {
  if (!system_->smp_mode()) {
    ctx.Charge(costs().hive_syscall_tax_ns);
  }
}

uint64_t Cell::ReadOwnClock() const {
  // hive-lint: allow(R1): the cell reads its own clock word in local memory; not an intercell access.
  return machine().mem().ReadValue<uint64_t>(cpus_.front(), clock_word_addr_);
}

void Cell::Boot() {
  state_ = CellState::kBooting;
  ++incarnation_;
  panic_reason_.clear();
  in_recovery_ = false;
  user_suspended_until_ = 0;
  clock_ticks_ = 0;
  rogue_ = RogueBehavior{};
  rogue_garbage_state_ = 0;
  chain_head_addr_ = 0;
  chain_node_addrs_.clear();
  seq_block_addr_ = 0;

  // Kernel heap at the bottom of the cell's first node.
  heap_ = std::make_unique<KernelHeap>(&machine().mem(), FirstCpu(), mem_base_,
                                       kKernelRegionBytes);

  // The clock word other cells monitor (section 4.3).
  auto clock = heap_->Alloc(kTagClockWord, sizeof(uint64_t));
  CHECK(clock.ok());
  clock_word_addr_ = *clock;
  heap_->Write<uint64_t>(clock_word_addr_, 1);

  if (pageout_ != nullptr) {
    pageout_->Stop();
  }
  rpc_ = std::make_unique<RpcLayer>(this, system_, costs());
  pfdat_table_.Clear();
  allocator_ = std::make_unique<PageAllocator>(this);
  cow_ = std::make_unique<CowManager>(this);
  sched_ = std::make_unique<Scheduler>(this);
  fwm_ = std::make_unique<FirewallManager>(this);
  detector_ = std::make_unique<FailureDetector>(this);
  pageout_ = std::make_unique<PageoutDaemon>(this);
  swap_ = std::make_unique<SwapArea>(this);
  if (fs_ == nullptr) {
    fs_ = std::make_unique<FileSystem>(this);
  }
  wax_hints_ = WaxHints{};

  // Wild write defense: protect every local page so only this cell's
  // processors may write it; grants are opened per-page on demand
  // (section 4.2). The SMP baseline runs with checking disabled instead.
  if (!system_->smp_mode()) {
    fwm_->ProtectRange(mem_base_, mem_size_);
  }

  // Register paged memory with the pfdat table: everything above the kernel
  // region, across all of the cell's nodes. Pfdats materialize as frames are
  // first touched.
  const uint64_t page_size = machine().mem().page_size();
  paged_frames_ = mem_size_ > kKernelRegionBytes
                      ? (mem_size_ - kKernelRegionBytes + page_size - 1) / page_size
                      : 0;
  pfdat_table_.SetRegularRange(mem_base_ + kKernelRegionBytes, page_size, paged_frames_);

  RegisterMiscHandlers();
  fs_->RegisterHandlers();

  state_ = CellState::kRunning;
  Trace(TraceEvent::kBoot);
  if (system_->slo_recorder() != nullptr) {
    system_->slo_recorder()->NoteCellUp(id_, machine().Now());
  }
  StartClock();
  pageout_->Start();
}

void Cell::RegisterMiscHandlers() {
  rpc_->RegisterInterrupt(MsgType::kNull,
                          [](Ctx&, const RpcArgs&, RpcReply*) { return base::OkStatus(); });
  rpc_->RegisterQueued(MsgType::kNullQueued,
                       [](Ctx&, const RpcArgs&, RpcReply*) { return base::OkStatus(); });
  rpc_->RegisterInterrupt(MsgType::kPing, [](Ctx& sctx, const RpcArgs&, RpcReply*) {
    sctx.Charge(500);
    return base::OkStatus();
  });

  rpc_->RegisterInterrupt(
      MsgType::kWaxHint, [this](Ctx& sctx, const RpcArgs& args, RpcReply*) -> base::Status {
        sctx.Charge(800);
        // Sanity-check everything received from Wax (section 3.2): bogus
        // hints are dropped, never trusted.
        const CellId borrow = static_cast<CellId>(args.w[0]);
        const CellId fork = static_cast<CellId>(args.w[1]);
        WaxHints hints;
        if (borrow >= 0 && borrow < system_->num_cells() &&
            system_->cell(borrow).alive()) {
          hints.preferred_borrow_target = borrow;
        }
        if (fork >= 0 && fork < system_->num_cells() && system_->cell(fork).alive()) {
          hints.preferred_fork_target = fork;
        }
        hints.valid = true;
        wax_hints_ = hints;
        return base::OkStatus();
      });

  // Frame loans and firewall grants mutate remote-visible state, so they go
  // through the at-most-once path: a retransmitted or duplicated request
  // must not loan a second batch of frames or double-grant a page.
  rpc_->RegisterInterruptAtMostOnce(
      MsgType::kBorrowFrames,
      [this](Ctx& sctx, const RpcArgs& args, RpcReply* reply) -> base::Status {
        const CellId client = static_cast<CellId>(args.w[0]);
        const int count = static_cast<int>(std::min<uint64_t>(args.w[1], kRpcWords - 1));
        if (client < 0 || client >= system_->num_cells() || client == id_) {
          return base::InvalidArgument();
        }
        const std::vector<PhysAddr> frames = allocator_->LoanFrames(sctx, client, count);
        reply->w[0] = frames.size();
        for (size_t i = 0; i < frames.size(); ++i) {
          reply->w[1 + i] = frames[i];
        }
        return frames.empty() ? base::OutOfMemory() : base::OkStatus();
      });

  rpc_->RegisterInterruptAtMostOnce(
      MsgType::kReturnFrame,
      [this](Ctx& sctx, const RpcArgs& args, RpcReply*) -> base::Status {
        const CellId client = static_cast<CellId>(args.w[0]);
        if (client < 0 || client >= system_->num_cells()) {
          return base::InvalidArgument();
        }
        return allocator_->AcceptReturnedFrame(sctx, args.w[1], client);
      });

  rpc_->RegisterInterruptAtMostOnce(
      MsgType::kGrantFirewall,
      [this](Ctx& sctx, const RpcArgs& args, RpcReply*) -> base::Status {
        const PhysAddr frame = args.w[0];
        const CellId client = static_cast<CellId>(args.w[1]);
        if (!OwnsAddr(frame)) {
          return base::InvalidArgument();
        }
        return fwm_->GrantWrite(sctx, machine().mem().PfnOfAddr(frame), client);
      });

  rpc_->RegisterInterrupt(
      MsgType::kRevokeFirewall,
      [this](Ctx& sctx, const RpcArgs& args, RpcReply*) -> base::Status {
        const PhysAddr frame = args.w[0];
        const CellId client = static_cast<CellId>(args.w[1]);
        if (!OwnsAddr(frame)) {
          return base::InvalidArgument();
        }
        return fwm_->RevokeWrite(sctx, machine().mem().PfnOfAddr(frame), client);
      });

  rpc_->RegisterInterrupt(
      MsgType::kCowBind,
      [this](Ctx& sctx, const RpcArgs& args, RpcReply* reply) -> base::Status {
        const uint64_t node_id = args.w[0];
        const uint64_t offset = args.w[1];
        const CellId client = static_cast<CellId>(args.w[2]);
        const bool writable = args.w[3] != 0;
        if (client < 0 || client >= system_->num_cells() || client == id_) {
          return base::InvalidArgument();
        }
        sctx.Charge(costs().fault_home_vm_misc_ns + costs().fault_export_ns);
        if (sctx.fault_bd != nullptr) {
          sctx.fault_bd->home_vm_misc += costs().fault_home_vm_misc_ns;
          sctx.fault_bd->home_export += costs().fault_export_ns;
        }
        LogicalPageId lpid;
        lpid.kind = LogicalPageId::Kind::kAnon;
        lpid.data_home = id_;
        lpid.object = node_id;
        lpid.page_offset = offset;
        Pfdat* pfdat = pfdat_table_.FindByLpid(lpid);
        if (pfdat == nullptr && swap_->Contains(lpid)) {
          // Swapped out at the owner: a remote bind swaps it back in (the
          // interrupt-level fault falls back to queued service for the I/O).
          sctx.Charge(costs().rpc_queue_service_ns);
          auto swapped = swap_->SwapIn(sctx, lpid);
          RETURN_IF_ERROR(swapped.status());
          pfdat = *swapped;
          pfdat->refcount--;
        }
        if (pfdat == nullptr) {
          return base::NotFound();
        }
        pfdat->exported_to |= 1ull << client;
        if (writable && (pfdat->exported_writable & (1ull << client)) == 0) {
          pfdat->exported_writable |= 1ull << client;
          if (OwnsAddr(pfdat->frame)) {
            RETURN_IF_ERROR(
                fwm_->GrantWrite(sctx, machine().mem().PfnOfAddr(pfdat->frame), client));
          }
        }
        reply->w[0] = pfdat->frame;
        return base::OkStatus();
      });

  rpc_->RegisterInterrupt(
      MsgType::kKillProc,
      [this](Ctx& sctx, const RpcArgs& args, RpcReply*) -> base::Status {
        Process* proc = sched_->FindProcess(static_cast<ProcId>(args.w[0]));
        if (proc == nullptr) {
          return base::NotFound();
        }
        sched_->KillProcess(sctx, proc, "killed by remote signal");
        return base::OkStatus();
      });
}

void Cell::StartClock() {
  clock_event_ = machine().events().ScheduleAfter(costs().clock_tick_period_ns,
                                                  [this] { ClockTick(); });
}

void Cell::ClockTick() {
  base::SimProfileScope profile_scope(base::SimSubsystem::kScheduler);
  if (state_ != CellState::kRunning) {
    return;
  }
  // The hardware may have failed this cell's node since the last tick.
  for (int node = first_node_; node < first_node_ + num_nodes_; ++node) {
    if (machine().NodeDead(node)) {
      MarkDead();
      return;
    }
  }

  Ctx ctx = MakeCtx(0);
  ++clock_ticks_;
  // Rogue clock axes: a frozen clock word never advances (caught by the
  // peer's stale check); a drifting one advances at a fraction of the tick
  // rate (caught by the peer's drift window).
  const bool skip_increment =
      rogue_.active && (rogue_.clock_freeze ||
                        (rogue_.clock_drift &&
                         clock_ticks_ % static_cast<uint64_t>(rogue_.clock_drift_divisor) != 0));
  if (!skip_increment) {
    try {
      const uint64_t value = heap_->Read<uint64_t>(clock_word_addr_);
      heap_->Write<uint64_t>(clock_word_addr_, value + 1);
      // hive-lint: allow(R3): bus error outside a careful section panics this kernel (paper 4.1) -- the required conversion IS the panic.
    } catch (const flash::BusError& e) {
      Panic(std::string("bus error updating own clock: ") + e.what());
      return;
    }
  }

  if (!system_->smp_mode() && system_->num_cells() > 1) {
    detector_->MonitorPeerClock(ctx);
  }
  if (state_ == CellState::kRunning) {
    StartClock();
  }
}

void Cell::SetRogueBehavior(const RogueBehavior& behavior) {
  rogue_ = behavior;
  // SplitMix64-style state for the garbage stream; never zero so the first
  // scribble is already non-trivial.
  rogue_garbage_state_ = behavior.garbage_seed | 1;
}

uint64_t Cell::NextRogueGarbage() {
  // SplitMix64: deterministic per-cell scribble stream.
  uint64_t z = (rogue_garbage_state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void Cell::PublishProbeStructures() {
  if (chain_head_addr_ != 0 || state_ != CellState::kRunning) {
    return;
  }
  // A short chain of tagged {value, next} nodes; survivors walk it with
  // CarefulRef::ChaseChain. Values are a deterministic function of the cell
  // id so a consistent walk is recognizable.
  constexpr int kChainLen = 4;
  for (int i = 0; i < kChainLen; ++i) {
    auto node = heap_->Alloc(kTagChainNode, 2 * sizeof(uint64_t));
    CHECK(node.ok());
    chain_node_addrs_.push_back(*node);
  }
  for (int i = 0; i < kChainLen; ++i) {
    const PhysAddr addr = chain_node_addrs_[static_cast<size_t>(i)];
    heap_->Write<uint64_t>(addr, (static_cast<uint64_t>(id_) << 8) | static_cast<uint64_t>(i));
    const PhysAddr next =
        i + 1 < kChainLen ? chain_node_addrs_[static_cast<size_t>(i + 1)] : 0;
    heap_->Write<uint64_t>(addr + 8, next);
  }
  chain_head_addr_ = chain_node_addrs_.front();

  // A seqlock block {seq, word0, word1} with word1 == ~word0 as the
  // consistency invariant; survivors read it with CarefulRef::ReadSeqlocked.
  auto block = heap_->Alloc(kTagSeqBlock, 3 * sizeof(uint64_t));
  CHECK(block.ok());
  seq_block_addr_ = *block;
  const uint64_t word0 = 0x5EED000000000000ull | static_cast<uint64_t>(id_);
  heap_->Write<uint64_t>(seq_block_addr_, 2);  // Even: no update in progress.
  heap_->Write<uint64_t>(seq_block_addr_ + 8, word0);
  heap_->Write<uint64_t>(seq_block_addr_ + 16, ~word0);
}

void Cell::SuspendUsersUntil(Time t) {
  user_suspended_until_ = std::max(user_suspended_until_, t);
}

bool Cell::AdmitRequest() {
  const HiveOptions& options = system_->options();
  const size_t runq = sched_->runnable();
  const uint64_t heap_used = heap_->bytes_in_use();
  const bool runq_over =
      options.admit_runq_watermark != 0 && runq >= options.admit_runq_watermark;
  const bool heap_over = options.admit_heap_watermark_bytes != 0 &&
                         heap_used >= options.admit_heap_watermark_bytes;
  if (!runq_over && !heap_over) {
    return true;
  }
  Trace(TraceEvent::kAdmissionShed, runq, heap_used);
  if (system_->slo_recorder() != nullptr) {
    system_->slo_recorder()->NoteShed(id_);
  }
  return false;
}

void Cell::Panic(const std::string& reason) {
  if (state_ == CellState::kPanicked || state_ == CellState::kDead) {
    return;
  }
  LOG(kInfo) << "cell " << id_ << " PANIC: " << reason << " (t=" << machine().Now() << ")";
  Trace(TraceEvent::kPanic);
  state_ = CellState::kPanicked;
  panic_reason_ = reason;
  if (system_->slo_recorder() != nullptr) {
    system_->slo_recorder()->NoteCellDown(id_, machine().Now());
  }
  // Memory cutoff (table 8.1): prevent the spread of potentially corrupt
  // data, then halt.
  for (int node = first_node_; node < first_node_ + num_nodes_; ++node) {
    machine().CutOffNode(node);
  }
  for (int cpu : cpus_) {
    machine().cpu(cpu).halted = true;
  }
  machine().events().Cancel(clock_event_);
  clock_event_ = flash::kInvalidEventId;
  pageout_->Stop();
}

void Cell::MarkDead() {
  if (state_ == CellState::kDead) {
    return;
  }
  Trace(TraceEvent::kMarkedDead);
  state_ = CellState::kDead;
  if (system_->slo_recorder() != nullptr) {
    system_->slo_recorder()->NoteCellDown(id_, machine().Now());
  }
  for (int node = first_node_; node < first_node_ + num_nodes_; ++node) {
    if (!machine().NodeDead(node)) {
      machine().CutOffNode(node);
    }
  }
  for (int cpu : cpus_) {
    machine().cpu(cpu).halted = true;
  }
  machine().events().Cancel(clock_event_);
  clock_event_ = flash::kInvalidEventId;
  if (pageout_ != nullptr) {
    pageout_->Stop();
  }
}

void Cell::Reboot() {
  Trace(TraceEvent::kReboot);
  state_ = CellState::kRebooting;
  for (int cpu : cpus_) {
    machine().cpu(cpu).halted = false;
    machine().cpu(cpu).free_at = machine().Now();
  }
  if (fs_ != nullptr) {
    fs_->OnReboot();
  }
  Boot();
}

}  // namespace hive
