// Google-benchmark microbenchmarks for the substrate data structures: the
// event queue, physical memory access path (with and without firewall
// checking), kernel heap, pfdat hash, and careful reference protocol. These
// measure the *simulator's* wall-clock cost, which bounds how large an
// experiment the repo can run; the simulated latencies are covered by the
// paper-table benches.

#include <benchmark/benchmark.h>

#include "src/base/rng.h"
#include "src/core/careful_ref.h"
#include "src/core/kernel_heap.h"
#include "src/core/pfdat.h"
#include "src/flash/event_queue.h"
#include "src/flash/machine.h"

namespace {

flash::MachineConfig Config() {
  flash::MachineConfig config;
  config.num_nodes = 4;
  config.memory_per_node = 16ull * 1024 * 1024;
  return config;
}

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    flash::EventQueue queue;
    for (int i = 0; i < 1024; ++i) {
      queue.ScheduleAt(i * 10, [] {});
    }
    benchmark::DoNotOptimize(queue.Run());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_PhysMemCheckedWrite(benchmark::State& state) {
  flash::PhysMem mem(Config());
  uint64_t value = 0;
  for (auto _ : state) {
    mem.WriteValue<uint64_t>(0, 4096, ++value);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PhysMemCheckedWrite);

void BM_PhysMemWriteNoFirewall(benchmark::State& state) {
  flash::PhysMem mem(Config());
  mem.firewall().set_checking_enabled(false);
  uint64_t value = 0;
  for (auto _ : state) {
    mem.WriteValue<uint64_t>(0, 4096, ++value);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PhysMemWriteNoFirewall);

void BM_KernelHeapAllocFree(benchmark::State& state) {
  flash::PhysMem mem(Config());
  hive::KernelHeap heap(&mem, 0, 0, 8 << 20);
  for (auto _ : state) {
    auto addr = heap.Alloc(hive::kTagGeneric, 64);
    heap.Free(*addr);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelHeapAllocFree);

void BM_PfdatHashLookup(benchmark::State& state) {
  hive::PfdatTable table;
  const int n = static_cast<int>(state.range(0));
  std::vector<hive::LogicalPageId> ids;
  table.SetRegularRange(0, 4096, static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    hive::Pfdat* pfdat = table.Regular(static_cast<size_t>(i));
    pfdat->lpid.kind = hive::LogicalPageId::Kind::kFile;
    pfdat->lpid.data_home = 0;
    pfdat->lpid.object = static_cast<uint64_t>(i % 64);
    pfdat->lpid.page_offset = static_cast<uint64_t>(i);
    table.InsertHash(pfdat);
    ids.push_back(pfdat->lpid);
  }
  base::Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.FindByLpid(ids[rng.Below(ids.size())]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PfdatHashLookup)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_CarefulRefRead(benchmark::State& state) {
  flash::PhysMem mem(Config());
  const flash::PhysAddr base = Config().memory_per_node;
  hive::KernelHeap heap(&mem, 1, base, 1 << 20);
  auto addr = heap.Alloc(hive::kTagClockWord, 8);
  hive::KernelCosts costs;
  for (auto _ : state) {
    hive::Ctx ctx;
    ctx.cpu = 0;
    hive::CarefulRef careful(&ctx, &mem, costs, 1, base, Config().memory_per_node);
    benchmark::DoNotOptimize(careful.ReadTagged<uint64_t>(*addr, hive::kTagClockWord));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CarefulRefRead);

void BM_Xoshiro(benchmark::State& state) {
  base::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Next());
  }
}
BENCHMARK(BM_Xoshiro);

}  // namespace

BENCHMARK_MAIN();
