// Reproduces the careful reference protocol measurement of paper section 4.1:
// the clock monitoring algorithm's careful_on .. careful_off read of a remote
// cell's clock value averages 1.16 us (232 cycles), of which 0.7 us is the
// cache miss to the line holding the clock; an RPC for the same data costs a
// minimum of 7.2 us and interrupts a remote processor.

#include "bench/bench_util.h"
#include "src/base/histogram.h"
#include "src/core/careful_ref.h"
#include "src/core/cell.h"

int main() {
  bench::PrintHeader("sec41_careful_ref: careful reference protocol",
                     "careful remote clock read 1.16 us (0.7 us miss) vs "
                     ">= 7.2 us for the RPC alternative");

  bench::System system = bench::Boot(4);
  hive::Cell& reader = system.cell(0);
  hive::Cell& target = system.cell(1);

  constexpr int kIters = 4096;
  base::Histogram careful_hist;
  for (int i = 0; i < kIters; ++i) {
    hive::Ctx ctx = reader.MakeCtx();
    {
      hive::CarefulRef careful(&ctx, &system.machine->mem(), reader.costs(), target.id(),
                               target.mem_base(), target.mem_size());
      auto value = careful.ReadTagged<uint64_t>(target.clock_word_addr(),
                                                hive::kTagClockWord);
      if (!value.ok()) {
        std::fprintf(stderr, "careful read failed\n");
        return 1;
      }
    }
    careful_hist.Record(ctx.elapsed);
  }

  base::Histogram rpc_hist;
  for (int i = 0; i < kIters; ++i) {
    bench::PaceCall(system);
    hive::Ctx ctx = reader.MakeCtx();
    hive::RpcArgs args;
    hive::RpcReply reply;
    const base::Status status =
        reader.rpc().Call(ctx, target.id(), hive::MsgType::kPing, args, &reply);
    if (!status.ok()) {
      std::fprintf(stderr, "ping failed: %s\n", std::string(status.name()).c_str());
      return 1;
    }
    rpc_hist.Record(ctx.elapsed);
  }

  base::Table table({"Path", "Paper", "Measured"});
  table.AddRow({"careful_on..careful_off clock read", "1.16 us",
                base::Table::Us(careful_hist.mean(), 2)});
  table.AddRow({"  of which remote cache miss", "0.70 us",
                base::Table::Us(static_cast<double>(reader.costs().remote_miss_ns), 2)});
  table.AddRow({"RPC fetching the same value", ">= 7.2 us",
                base::Table::Us(rpc_hist.mean(), 2)});
  table.AddRow({"careful / RPC advantage", "6.2x",
                base::Table::F64(rpc_hist.mean() / careful_hist.mean(), 1) + "x"});
  std::printf("%s", table.Render("Section 4.1: careful reference protocol cost").c_str());
  return 0;
}
