// Reproduces the RPC latency measurements of paper section 6:
//   - minimum end-to-end null interrupt-level RPC: 7.2 us (2 us SIPS)
//   - commonly-used interrupt-level request (fat stubs): ~9.6 us
//   - minimum end-to-end null queued RPC: 34 us

#include "bench/bench_util.h"
#include "src/base/histogram.h"
#include "src/core/cell.h"

namespace {

using hive::Ctx;
using hive::MsgType;
using hive::RpcArgs;
using hive::RpcReply;

// Mean latency of `iterations` paced calls from cell 0, round-robin over
// cells 1-3. Counts failed calls into `failures`.
double MeasureUs(bench::System& system, MsgType type, bool fat, int iterations,
                 int* failures) {
  base::Histogram hist;
  hive::Cell& client = system.cell(0);
  for (int i = 0; i < iterations; ++i) {
    bench::PaceCall(system);
    Ctx ctx = client.MakeCtx();
    RpcArgs args;
    RpcReply reply;
    hive::CallOptions options;
    options.fat_stub = fat;
    const hive::CellId target = 1 + (i % 3);
    base::Status status = client.rpc().Call(ctx, target, type, args, &reply, options);
    if (!status.ok()) {
      std::fprintf(stderr, "rpc failed: %s\n", std::string(status.name()).c_str());
      ++*failures;
      continue;
    }
    hist.Record(ctx.elapsed);
  }
  return hist.mean() / 1000.0;
}

}  // namespace

int main() {
  bench::PrintHeader("sec6_rpc: intercell RPC latency",
                     "null RPC 7.2 us; common interrupt-level RPC 9.6 us; "
                     "null queued RPC 34 us; SIPS delivers one 128-byte line "
                     "in about a remote miss");

  bench::System system = bench::Boot(4);
  constexpr int kIters = 1024;

  int failures = 0;
  const double null_us = MeasureUs(system, MsgType::kNull, false, kIters, &failures);
  const double fat_us = MeasureUs(system, MsgType::kNull, true, kIters, &failures);
  const double queued_us = MeasureUs(system, MsgType::kNullQueued, false, kIters, &failures);
  const double sips_us =
      static_cast<double>(system.machine->config().latency.ipi_ns +
                          system.machine->config().latency.sips_payload_ns) /
      1000.0;

  base::Table table({"Operation", "Paper", "Measured"});
  table.AddRow({"SIPS one-way message", "1.0 us", base::Table::F64(sips_us, 2) + " us"});
  table.AddRow({"Null interrupt-level RPC", "7.2 us", base::Table::F64(null_us, 2) + " us"});
  table.AddRow({"Common interrupt-level RPC (fat stubs)", "9.6 us",
                base::Table::F64(fat_us, 2) + " us"});
  table.AddRow({"Null queued RPC", "34.0 us", base::Table::F64(queued_us, 2) + " us"});
  std::printf("%s", table.Render("Section 6: RPC performance").c_str());
  if (failures > 0) {
    std::fprintf(stderr, "sec6_rpc: %d call(s) failed\n", failures);
    return 1;
  }
  return 0;
}
