// hive_bench: wall-clock throughput harness for the simulator hot paths.
//
// The fault-campaign engine drives thousands of isolated simulator runs per
// nightly sweep, so simulator throughput (scenarios/sec, events/sec) is the
// perf trajectory every PR is judged against. This harness times:
//
//   1. event-queue microbenchmarks (schedule+run, schedule+cancel churn),
//   2. single-scenario simulation with per-subsystem attribution (which
//      kernel-model subsystem burns the host cycles per simulated event),
//   3. multi-worker campaign throughput (the nightly-sweep shape),
//
// and emits machine-readable BENCH_sim.json (schema "hive-bench-v3") plus a
// human-readable table. Per-subsystem `ops` counts are deterministic (a pure
// function of the simulation); `ns` figures are host wall time and only
// meaningful as ratios. CI validates the JSON shape (`--smoke`); performance
// is gated by paired before/after runs of perfbench/, not by absolute
// numbers from this tool.
//
// Exit codes: 0 = ok, 1 = I/O failure writing the JSON, 2 = usage error (a
// value flag given twice with different values too).

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/base/sim_profile.h"
#include "src/campaign/campaign.h"
#include "src/campaign/runner.h"
#include "src/campaign/scenario.h"
#include "src/flash/event_queue.h"
#include "tools/flags.h"

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  uint64_t seed = 1;
  int workers = 4;
  // Campaign-stage scenario count: about a second of sweep on 4 workers, so
  // the stage times throughput, not thread start-up and cold page pools.
  uint64_t scenarios = 4096;
  // Single-scenario stage count: about a second, so each subsystem's share
  // repeats run to run (eight scenarios lasted about 10 ms, and their
  // per-op times moved by up to 3x).
  uint64_t serial_scenarios = 1024;
  double eq_seconds = 0.5;       // Wall-time budget per event-queue stage.
  bool smoke = false;
  std::string out = "BENCH_sim.json";
};

void Usage() {
  std::fprintf(stderr,
               "usage: hive_bench [--seed=N] [--workers=N] [--scenarios=N]\n"
               "                  [--out=PATH] [--smoke]\n"
               "\n"
               "  --seed=N        campaign master seed for the scenario stages (default 1)\n"
               "  --workers=N     worker threads for the campaign stage (default 4)\n"
               "  --scenarios=N   scenarios in the campaign stage (default 4096)\n"
               "  --out=PATH      where to write the JSON report (default BENCH_sim.json);\n"
               "                  opened before the first stage\n"
               "  --smoke         tiny sizes for CI schema validation (seconds, not minutes)\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  cli::GivenFlags given;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    uint64_t value = 0;
    if (std::strncmp(arg, "--seed=", 7) == 0 && cli::ParseU64(arg + 7, &value)) {
      args->seed = value;
      given.Note("--seed", std::to_string(value));
    } else if (std::strncmp(arg, "--workers=", 10) == 0 && cli::ParseU64(arg + 10, &value) &&
               value >= 1 && value <= 256) {
      args->workers = static_cast<int>(value);
      given.Note("--workers", std::to_string(value));
    } else if (std::strncmp(arg, "--scenarios=", 12) == 0 && cli::ParseU64(arg + 12, &value) &&
               value >= 1) {
      args->scenarios = value;
      given.Note("--scenarios", std::to_string(value));
    } else if (std::strncmp(arg, "--out=", 6) == 0 && arg[6] != '\0') {
      args->out = arg + 6;
      given.Note("--out", args->out);
    } else if (std::strcmp(arg, "--smoke") == 0) {
      args->smoke = true;
    } else {
      std::fprintf(stderr, "hive_bench: bad argument '%s'\n", arg);
      return false;
    }
  }
  if (!given.conflict.empty()) {
    std::fprintf(stderr, "hive_bench: flag given twice with different values: %s\n",
                 given.conflict.c_str());
    return false;
  }
  if (args->smoke) {
    args->scenarios = 4;
    args->serial_scenarios = 2;
    args->eq_seconds = 0.02;
  }
  return true;
}

struct StageResult {
  uint64_t items = 0;      // Events fired / scenarios completed.
  double wall_seconds = 0;

  double PerSec() const { return wall_seconds > 0 ? items / wall_seconds : 0; }
  double NsPerItem() const { return items > 0 ? wall_seconds * 1e9 / items : 0; }
};

// Best-of-N repetitions: microbenchmark numbers on a shared machine are
// throttled by scheduler noise, so the least-disturbed repetition is the
// estimator closest to the code's actual cost.
template <typename Stage>
StageResult BestOf(int reps, Stage&& stage) {
  StageResult best;
  for (int i = 0; i < reps; ++i) {
    const StageResult attempt = stage();
    if (attempt.PerSec() > best.PerSec()) {
      best = attempt;
    }
  }
  return best;
}

// --- Stage 1a: schedule+run throughput. ---
// Batches of events with captures shaped like the simulator's real callbacks
// (a couple of pointers plus an index), drained in timestamp order.
StageResult BenchEventQueueScheduleRun(double budget_seconds) {
  constexpr int kBatch = 4096;
  StageResult result;
  uint64_t sink = 0;
  // One long-lived queue, filled and drained per round: steady-state
  // throughput of the schedule/sift/dispatch cycle, the shape of a scenario
  // run (one queue, millions of events), not of queue construction.
  flash::EventQueue queue;
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < budget_seconds) {
    uint64_t* sink_ptr = &sink;
    const flash::EventQueue* queue_ptr = &queue;
    const flash::Time base = queue.Now();
    for (int i = 0; i < kBatch; ++i) {
      // Timestamps interleave (i % 16 spreads arrival order) so the heap does
      // real sifting instead of append-only work.
      queue.ScheduleAt(base + (i % 16) * 1000 + i, [sink_ptr, queue_ptr, i] {
        *sink_ptr += static_cast<uint64_t>(i) + queue_ptr->pending();
      });
    }
    result.items += queue.Run();
  }
  result.wall_seconds = SecondsSince(start);
  if (sink == 0xdead) {
    std::printf("impossible\n");  // Keep the side effect observable.
  }
  return result;
}

// --- Stage 1b: schedule+cancel churn. ---
// Two schedules and one cancellation per iteration, with periodic drains: the
// shape of timer-heavy kernel paths (clock ticks, RPC timeouts) where most
// scheduled events never fire.
StageResult BenchEventQueueCancelChurn(double budget_seconds) {
  constexpr int kBatch = 2048;
  StageResult result;
  uint64_t sink = 0;
  flash::EventQueue queue;  // Long-lived: steady-state churn, as above.
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < budget_seconds) {
    uint64_t* sink_ptr = &sink;
    const flash::Time base = queue.Now();
    for (int i = 0; i < kBatch; ++i) {
      queue.ScheduleAt(base + i + 1,
                       [sink_ptr, i] { *sink_ptr += static_cast<uint64_t>(i); });
      const flash::EventId doomed = queue.ScheduleAt(
          base + i + 2, [sink_ptr, i] { *sink_ptr -= static_cast<uint64_t>(i); });
      queue.Cancel(doomed);
    }
    result.items += queue.Run();
    // Count cancelled schedules too: the stage measures schedule+cancel ops.
    result.items += kBatch;
  }
  result.wall_seconds = SecondsSince(start);
  if (sink == 0xdead) {
    std::printf("impossible\n");
  }
  return result;
}

// --- Stage 2: scenario simulation (with per-subsystem attribution). ---
struct ScenarioStage {
  StageResult scenarios;
  uint64_t sim_events = 0;
  base::SimProfile profile;  // Merged across the stage's scenarios.

  double EventsPerSec() const {
    return scenarios.wall_seconds > 0 ? sim_events / scenarios.wall_seconds : 0;
  }
  double NsPerEvent() const {
    return sim_events > 0 ? scenarios.wall_seconds * 1e9 / sim_events : 0;
  }
};

ScenarioStage BenchSerialScenarios(uint64_t seed, uint64_t count) {
  ScenarioStage stage;
  const Clock::time_point start = Clock::now();
  for (uint64_t index = 0; index < count; ++index) {
    const campaign::ScenarioSpec spec = campaign::GenerateScenario(seed, index);
    // One profile activation per scenario: attribution covers exactly the
    // simulation (not spec generation), and the per-scenario reset path is
    // the one sim_profile_test pins.
    base::SimProfile profile;
    base::SimProfile::SetActive(&profile);
    profile.Begin();
    const campaign::ScenarioResult result = campaign::RunScenario(spec);
    profile.End();
    base::SimProfile::SetActive(nullptr);
    stage.profile.Merge(profile);
    stage.sim_events += result.events_run;
    ++stage.scenarios.items;
  }
  stage.scenarios.wall_seconds = SecondsSince(start);
  return stage;
}

// --- Stage 3: multi-worker campaign throughput. ---
ScenarioStage BenchCampaign(uint64_t seed, uint64_t scenarios, int workers) {
  ScenarioStage stage;
  campaign::CampaignOptions options;
  options.master_seed = seed;
  options.num_scenarios = scenarios;
  options.workers = workers;
  options.minimize = false;
  uint64_t sim_events = 0;
  options.on_result = [&sim_events](const campaign::ScenarioResult& result) {
    sim_events += result.events_run;  // On the driver thread, in execution order.
  };
  const Clock::time_point start = Clock::now();
  const campaign::CampaignReport report = campaign::RunCampaign(options);
  stage.scenarios.wall_seconds = SecondsSince(start);
  stage.scenarios.items = report.scenarios_run;
  stage.sim_events = sim_events;
  return stage;
}

// Peak RSS in bytes from /proc/self/status (0 when unavailable).
uint64_t PeakRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
    }
  }
  return 0;
}

void WriteScenarioStage(std::FILE* out, const ScenarioStage& stage,
                        bool with_subsystems) {
  std::fprintf(out,
               "    \"scenarios\": %" PRIu64 ", \"wall_seconds\": %.6f, "
               "\"scenarios_per_sec\": %.3f,\n",
               stage.scenarios.items, stage.scenarios.wall_seconds,
               stage.scenarios.PerSec());
  std::fprintf(out,
               "    \"sim_events\": %" PRIu64 ", \"events_per_sec\": %.0f, "
               "\"ns_per_event\": %.2f%s\n",
               stage.sim_events, stage.EventsPerSec(), stage.NsPerEvent(),
               with_subsystems ? "," : "");
  if (!with_subsystems) {
    return;
  }
  // Per-subsystem attribution: exclusive host ns, scope-entry ops, and the
  // share of the stage's attributed wall time. `ops` is deterministic; `ns`
  // is measurement.
  const uint64_t total_ns = stage.profile.total_ns();
  std::fprintf(out, "    \"subsystems\": {\n");
  for (int s = 0; s < base::kSimSubsystemCount; ++s) {
    const auto subsystem = static_cast<base::SimSubsystem>(s);
    const uint64_t ns = stage.profile.ns(subsystem);
    const uint64_t ops = stage.profile.ops(subsystem);
    std::fprintf(out,
                 "      \"%.*s\": {\"ns\": %" PRIu64 ", \"ops\": %" PRIu64
                 ", \"ns_per_op\": %.2f, \"share\": %.4f}%s\n",
                 static_cast<int>(base::SimSubsystemName(subsystem).size()),
                 base::SimSubsystemName(subsystem).data(), ns, ops,
                 ops > 0 ? static_cast<double>(ns) / static_cast<double>(ops) : 0.0,
                 total_ns > 0 ? static_cast<double>(ns) / static_cast<double>(total_ns)
                              : 0.0,
                 s + 1 < base::kSimSubsystemCount ? "," : "");
  }
  std::fprintf(out, "    }\n");
}

// Writes the report into `out`, opened before the first stage, and closes it.
bool WriteJson(std::FILE* out, const Args& args, const StageResult& eq_run,
               const StageResult& eq_churn, const ScenarioStage& serial,
               const ScenarioStage& campaign_stage, uint64_t peak_rss) {
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"schema\": \"hive-bench-v3\",\n");
  std::fprintf(out, "  \"mode\": \"%s\",\n", args.smoke ? "smoke" : "full");
  std::fprintf(out, "  \"seed\": %" PRIu64 ",\n", args.seed);
  std::fprintf(out, "  \"workers\": %d,\n", args.workers);
  std::fprintf(out, "  \"event_queue\": {\n");
  std::fprintf(out,
               "    \"schedule_run\": {\"events\": %" PRIu64
               ", \"wall_seconds\": %.6f, \"events_per_sec\": %.0f, "
               "\"ns_per_event\": %.2f},\n",
               eq_run.items, eq_run.wall_seconds, eq_run.PerSec(), eq_run.NsPerItem());
  std::fprintf(out,
               "    \"cancel_churn\": {\"ops\": %" PRIu64
               ", \"wall_seconds\": %.6f, \"ops_per_sec\": %.0f, "
               "\"ns_per_op\": %.2f}\n",
               eq_churn.items, eq_churn.wall_seconds, eq_churn.PerSec(),
               eq_churn.NsPerItem());
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"single_scenario\": {\n");
  WriteScenarioStage(out, serial, /*with_subsystems=*/true);
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"campaign\": {\n");
  WriteScenarioStage(out, campaign_stage, /*with_subsystems=*/false);
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"peak_rss_bytes\": %" PRIu64 "\n", peak_rss);
  std::fprintf(out, "}\n");
  const bool ok = std::fclose(out) == 0;
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }

  // Open the report first: an unwritable path must not cost every stage.
  std::FILE* json = std::fopen(args.out.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "hive_bench: cannot write %s\n", args.out.c_str());
    return 1;
  }

  std::printf("hive_bench: seed=%" PRIu64 " workers=%d scenarios=%" PRIu64 "%s\n",
              args.seed, args.workers, args.scenarios,
              args.smoke ? " (smoke)" : "");

  const StageResult eq_run =
      BestOf(3, [&] { return BenchEventQueueScheduleRun(args.eq_seconds); });
  const StageResult eq_churn =
      BestOf(3, [&] { return BenchEventQueueCancelChurn(args.eq_seconds); });
  const ScenarioStage serial = BenchSerialScenarios(args.seed, args.serial_scenarios);
  const ScenarioStage campaign_stage =
      BenchCampaign(args.seed, args.scenarios, args.workers);
  const uint64_t peak_rss = PeakRssBytes();

  std::printf("\n%-24s %14s %14s %12s\n", "stage", "items", "items/sec", "ns/item");
  std::printf("%-24s %14" PRIu64 " %14.0f %12.2f\n", "eq/schedule_run",
              eq_run.items, eq_run.PerSec(), eq_run.NsPerItem());
  std::printf("%-24s %14" PRIu64 " %14.0f %12.2f\n", "eq/cancel_churn",
              eq_churn.items, eq_churn.PerSec(), eq_churn.NsPerItem());
  std::printf("%-24s %14" PRIu64 " %14.3f %12s\n", "scenario/serial",
              serial.scenarios.items, serial.scenarios.PerSec(), "-");
  std::printf("%-24s %14" PRIu64 " %14.0f %12.2f\n", "scenario/serial-events",
              serial.sim_events, serial.EventsPerSec(), serial.NsPerEvent());
  std::printf("%-24s %14" PRIu64 " %14.3f %12s\n", "campaign/parallel",
              campaign_stage.scenarios.items, campaign_stage.scenarios.PerSec(), "-");
  std::printf("%-24s %14" PRIu64 " %14.0f %12.2f\n", "campaign/parallel-events",
              campaign_stage.sim_events, campaign_stage.EventsPerSec(),
              campaign_stage.NsPerEvent());
  std::printf("%-24s %14" PRIu64 " %14s %12s\n", "peak_rss_bytes", peak_rss, "-", "-");

  const uint64_t total_ns = serial.profile.total_ns();
  std::printf("\n%-24s %14s %14s %8s\n", "subsystem (serial)", "ops", "ns/op", "share");
  for (int s = 0; s < base::kSimSubsystemCount; ++s) {
    const auto subsystem = static_cast<base::SimSubsystem>(s);
    const uint64_t ns = serial.profile.ns(subsystem);
    const uint64_t ops = serial.profile.ops(subsystem);
    std::printf("%-24.*s %14" PRIu64 " %14.2f %7.1f%%\n",
                static_cast<int>(base::SimSubsystemName(subsystem).size()),
                base::SimSubsystemName(subsystem).data(), ops,
                ops > 0 ? static_cast<double>(ns) / static_cast<double>(ops) : 0.0,
                total_ns > 0 ? 100.0 * static_cast<double>(ns) /
                                   static_cast<double>(total_ns)
                             : 0.0);
  }

  if (!WriteJson(json, args, eq_run, eq_churn, serial, campaign_stage, peak_rss)) {
    std::fprintf(stderr, "hive_bench: cannot write %s\n", args.out.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", args.out.c_str());
  return 0;
}
