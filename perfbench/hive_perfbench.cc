// hive_perfbench: the repository benchmark.
//
//   hive_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1 [--smoke]
//
// Workloads (all closed loop with one simulation thread: the next scenario or
// soak starts when the previous one returns; each soak runs in a forked child,
// see RunSoakIsolated):
//   campaign_mix  GenerateScenario(seed, i) for i = 0, 1, ..., one RunScenario
//                 each: a fresh machine is built, booted and set up per
//                 scenario, so set-up dominates and the event loop is the
//                 minority.
//   serve_soak    RunSoak at 4 cells / 8 tenants over a 600 s simulated window
//                 (well past the ~240 s where host cost per simulated second
//                 starts to climb). One boot per soak: nearly all host time is
//                 the event loop and the kernel subsystems.
//   serve_wide    RunSoak at 8 cells / 32 tenants over 60 s: the same layers
//                 with deeper run queues, more sheds and more cross-cell RPC.
//
// Every layer is timed from outside, around calls into the public functions of
// src/flash, src/core, src/workloads, src/campaign and src/serve. --trace=0 runs
// the workload untraced for --seconds and reports the end-to-end metrics.
// --trace=1 runs the same untraced pass, then replays exactly the same
// operations with base::SimProfile active around each RunScenario/RunSoak
// call, runs the campaign phase probe and the event-queue microbenchmarks, and
// reports the per-layer metrics. Every metric is printed as a
// "metric <name> <value> <unit>" line; the last line of standard output is one
// JSON object holding the metrics listed in BENCHMARK.json for the mode.
//
// Output checks: repeated soaks of one seed and re-run scenarios must give
// equal fingerprints, the traced replay must reproduce every fingerprint and
// simulated value of the untraced pass, and the phase probe must reproduce
// RunScenario's event count exactly. A failed check prints correct=false and
// exits 1. Lines starting with "det " are deterministic for a given seed and
// mode; the self-test compares them byte for byte across runs.
//
// Exit codes: 0 = ok, 1 = an output check failed, 2 = usage error.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "src/base/sim_profile.h"
#include "src/campaign/coverage.h"
#include "src/campaign/oracles.h"
#include "src/campaign/runner.h"
#include "src/campaign/scenario.h"
#include "src/core/cell.h"
#include "src/core/costs.h"
#include "src/core/hive_system.h"
#include "src/core/rpc.h"
#include "src/flash/event_queue.h"
#include "src/flash/machine.h"
#include "src/serve/serve.h"
#include "src/workloads/ocean.h"
#include "src/workloads/pmake.h"
#include "src/workloads/raytrace.h"
#include "src/workloads/workload.h"

namespace {

using Clock = std::chrono::steady_clock;
using hive::Time;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Arguments.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
};

void Usage() {
  std::fprintf(stderr,
               "usage: hive_perfbench --workload=campaign_mix|serve_soak|serve_wide\n"
               "                      --seed=N --seconds=S --trace=0|1 [--smoke]\n");
}

bool ParseU64(const char* text, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') {
    return false;
  }
  *out = value;
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    uint64_t value = 0;
    if (std::strncmp(arg, "--workload=", 11) == 0) {
      args->workload = arg + 11;
      have_workload = true;
    } else if (std::strncmp(arg, "--seed=", 7) == 0 && ParseU64(arg + 7, &value)) {
      args->seed = value;
    } else if (std::strncmp(arg, "--seconds=", 10) == 0 && ParseU64(arg + 10, &value) &&
               value >= 1 && value <= 600) {
      args->seconds = static_cast<double>(value);
    } else if (std::strncmp(arg, "--trace=", 8) == 0 && ParseU64(arg + 8, &value) &&
               value <= 1) {
      args->trace = value == 1;
    } else if (std::strcmp(arg, "--smoke") == 0) {
      args->smoke = true;
    } else {
      std::fprintf(stderr, "hive_perfbench: bad argument '%s'\n", arg);
      return false;
    }
  }
  if (!have_workload || (args->workload != "campaign_mix" && args->workload != "serve_soak" &&
                         args->workload != "serve_wide")) {
    std::fprintf(stderr, "hive_perfbench: --workload must name a known workload\n");
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Metrics and the result line.
// ---------------------------------------------------------------------------

// The end-to-end metrics BENCHMARK.json gates: the ones every workload has.
// The result line carries exactly these with --trace=0, and exactly
// PerLayerNames() with --trace=1.
constexpr const char* kEndToEnd[] = {"setup_s", "sim_s_per_host_s", "peak_rss_mb"};

constexpr int kSubsystems = base::kSimSubsystemCount;

// Phases of one scenario as the probe drives them, with the per-layer metric
// each reports (mean host us per scenario).
enum Phase : int {
  kBuild,
  kBoot,
  kSetup,
  kSimulate,
  kValidate,
  kOracles,
  kCoverage,
  kTeardown,
  kPhaseCount,
};
constexpr const char* kPhaseNames[kPhaseCount] = {
    "build", "boot", "setup", "simulate", "validate", "oracles", "coverage", "teardown"};
constexpr const char* kPhaseMetrics[kPhaseCount] = {
    "flash.machine_build_us", "core.boot_us",         "workloads.setup_us",
    "flash.run_us",           "workloads.validate_us", "campaign.oracles_us",
    "campaign.coverage_us",   "core.teardown_us"};

std::vector<std::string> PerLayerNames() {
  std::vector<std::string> names = {"campaign.generate_us"};
  for (const char* phase : kPhaseMetrics) {
    names.emplace_back(phase);
  }
  for (const char* name :
       {"flash.events", "flash.ns_per_event", "flash.eq_schedule_run_ns", "flash.eq_cancel_ns",
        "campaign.phase_coverage"}) {
    names.emplace_back(name);
  }
  for (int s = 0; s < kSubsystems; ++s) {
    const std::string sub(base::SimSubsystemName(static_cast<base::SimSubsystem>(s)));
    // `other` is time outside every instrumented scope: it has no op count.
    if (static_cast<base::SimSubsystem>(s) != base::SimSubsystem::kOther) {
      names.push_back("core." + sub + ".ops");
      names.push_back("core." + sub + ".ns_per_op");
    }
    names.push_back("core." + sub + ".share");
  }
  for (const char* name :
       {"serve.completed", "serve.shed", "serve.lost", "serve.hung", "serve.episodes_landed",
        "serve.recoveries", "serve.max_runnable", "campaign.violations", "campaign.crashes",
        "campaign.faults_injected", "campaign.excisions", "trace_overhead"}) {
    names.emplace_back(name);
  }
  return names;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
    std::printf("metric %s %.17g %s\n", name.c_str(), value, unit.c_str());
  }

  // Deterministic outcome line (a function of seed and mode alone).
  void Det(const std::string& line) { std::printf("det %s\n", line.c_str()); }

  // Records a failed output check; the run then reports correct=false.
  void Fail(const std::string& what) {
    ++failed_;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }

  uint64_t failed() const { return failed_; }

  // Prints the result line with exactly the metrics named in `names`, in that
  // order. A missing name is a harness bug and fails the run.
  void PrintResult(const std::vector<std::string>& names, uint64_t attempted) {
    std::string json;
    for (const std::string& name : names) {
      const Metric* found = nullptr;
      for (const Metric& metric : metrics_) {
        if (metric.name == name) {
          found = &metric;
        }
      }
      if (found == nullptr) {
        Fail("metric " + name + " was not measured");
        continue;
      }
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", found->value);
      json += (json.empty() ? "" : ", ") + std::string("\"") + name + "\": {\"value\": " + value +
              ", \"unit\": \"" + found->unit + "\"}";
    }
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"metrics\": {%s}}\n",
                failed_ == 0 ? "true" : "false", std::max<uint64_t>(attempted, 1), failed_,
                json.c_str());
  }

 private:
  std::vector<Metric> metrics_;
  uint64_t failed_ = 0;
};

std::string Hex(uint64_t value) {
  char text[24];
  std::snprintf(text, sizeof(text), "0x%016" PRIx64, value);
  return text;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

// Nearest-rank percentile of `values` (p in [0, 100]).
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size());
  size_t index = static_cast<size_t>(rank);
  if (static_cast<double>(index) < rank) {
    ++index;
  }
  return values[std::clamp<size_t>(index, 1, values.size()) - 1];
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::strtoull(line.c_str() + 6, nullptr, 10)) / 1024.0;
    }
  }
  return 0;
}

// Activates `profile` on this thread for the object's lifetime, so an
// exception escaping the measured call still closes and deactivates it.
class ProfileWindow {
 public:
  explicit ProfileWindow(base::SimProfile* profile) : profile_(profile) {
    base::SimProfile::SetActive(profile_);
    profile_->Begin();
  }
  ~ProfileWindow() {
    profile_->End();
    base::SimProfile::SetActive(nullptr);
  }
  ProfileWindow(const ProfileWindow&) = delete;
  ProfileWindow& operator=(const ProfileWindow&) = delete;

 private:
  base::SimProfile* profile_;
};

// Host ns and scope entries per kernel subsystem, summed over traced calls
// (plain data, so a soak child can send it back).
struct SubsystemTotals {
  std::array<uint64_t, kSubsystems> ns = {};
  std::array<uint64_t, kSubsystems> ops = {};

  void Add(const base::SimProfile& profile) {
    for (int s = 0; s < kSubsystems; ++s) {
      ns[static_cast<size_t>(s)] += profile.ns(static_cast<base::SimSubsystem>(s));
      ops[static_cast<size_t>(s)] += profile.ops(static_cast<base::SimSubsystem>(s));
    }
  }
  void Add(const SubsystemTotals& other) {
    for (size_t s = 0; s < ns.size(); ++s) {
      ns[s] += other.ns[s];
      ops[s] += other.ops[s];
    }
  }
};

// Per-subsystem metrics of the traced pass.
void AddSubsystemMetrics(Report& report, const SubsystemTotals& totals) {
  double total = 0;
  for (uint64_t ns : totals.ns) {
    total += static_cast<double>(ns);
  }
  for (int s = 0; s < kSubsystems; ++s) {
    const auto subsystem = static_cast<base::SimSubsystem>(s);
    const std::string prefix = "core." + std::string(base::SimSubsystemName(subsystem));
    const double ns = static_cast<double>(totals.ns[static_cast<size_t>(s)]);
    const double ops = static_cast<double>(totals.ops[static_cast<size_t>(s)]);
    if (subsystem != base::SimSubsystem::kOther) {
      report.Add(prefix + ".ops", ops, "count");
      report.Add(prefix + ".ns_per_op", ops > 0 ? ns / ops : 0, "ns");
    }
    report.Add(prefix + ".share", total > 0 ? ns / total : 0, "ratio");
  }
}

// ---------------------------------------------------------------------------
// Event-queue microbenchmarks (the flash layer's inner loop, in isolation).
// ---------------------------------------------------------------------------

// Median ns per event of schedule+run rounds: batches with interleaved
// timestamps so the heap sifts, captures shaped like simulator callbacks.
double EqScheduleRunNs(int rounds) {
  constexpr int kBatch = 4096;
  std::vector<double> per_event;
  uint64_t sink = 0;
  flash::EventQueue queue;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point start = Clock::now();
    uint64_t events = 0;
    for (int round = 0; round < rounds; ++round) {
      uint64_t* sink_ptr = &sink;
      const flash::Time base = queue.Now();
      for (int i = 0; i < kBatch; ++i) {
        queue.ScheduleAt(base + (i % 16) * 1000 + i,
                         [sink_ptr, i] { *sink_ptr += static_cast<uint64_t>(i); });
      }
      events += queue.Run();
    }
    per_event.push_back(SecondsSince(start) * 1e9 / static_cast<double>(events));
  }
  return Median(per_event);
}

// Median ns per operation of schedule+cancel churn: two schedules and one
// cancellation per iteration, the shape of timer-heavy kernel paths.
double EqCancelNs(int rounds) {
  constexpr int kBatch = 2048;
  std::vector<double> per_op;
  uint64_t sink = 0;
  flash::EventQueue queue;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point start = Clock::now();
    uint64_t ops = 0;
    for (int round = 0; round < rounds; ++round) {
      uint64_t* sink_ptr = &sink;
      const flash::Time base = queue.Now();
      for (int i = 0; i < kBatch; ++i) {
        queue.ScheduleAt(base + i + 1, [sink_ptr, i] { *sink_ptr += static_cast<uint64_t>(i); });
        const flash::EventId doomed =
            queue.ScheduleAt(base + i + 2, [sink_ptr] { *sink_ptr = 0; });
        queue.Cancel(doomed);
      }
      ops += queue.Run() + kBatch;
    }
    per_op.push_back(SecondsSince(start) * 1e9 / static_cast<double>(ops));
  }
  return Median(per_op);
}

// ---------------------------------------------------------------------------
// Machine bring-up through public calls, mirroring RunScenario and RunSoak.
// ---------------------------------------------------------------------------

// RunScenario and RunSoak snap slice dispatch to a tenth of the clock tick
// when the machine offers that knob; the probe must make the same call or its
// event sequence diverges from theirs.
template <typename M>
void AlignLikeRunners(M& machine) {
  if constexpr (requires { machine.EnableParallelSim(1, Time{}); }) {
    machine.EnableParallelSim(1, hive::KernelCosts{}.clock_tick_period_ns / 10);
  }
}

// One single-CPU node per cell with 16 MiB each: the geometry both the
// campaign runner and the serve engine use.
flash::MachineConfig SmallCellConfig(int num_cells) {
  flash::MachineConfig config;
  config.num_nodes = num_cells;
  config.cpus_per_node = 1;
  config.memory_per_node = 16ull * 1024 * 1024;
  return config;
}

// Host time per phase, split by subsystem, summed over bring-ups.
struct PhaseTotals {
  std::array<base::SimProfile, kPhaseCount> profiles;
  uint64_t scenarios = 0;

  double PhaseNs(int phase) const { return static_cast<double>(profiles[phase].total_ns()); }
  double MeanUs(int phase) const {
    return scenarios > 0 ? PhaseNs(phase) / 1e3 / static_cast<double>(scenarios) : 0;
  }
  double TotalNs() const {
    double total = 0;
    for (int p = 0; p < kPhaseCount; ++p) {
      total += PhaseNs(p);
    }
    return total;
  }
};

template <typename Body>
void TimePhase(PhaseTotals& totals, int phase, Body&& body) {
  base::SimProfile profile;
  {
    ProfileWindow window(&profile);
    body();
  }
  totals.profiles[phase].Merge(profile);
}

// The campaign runner's workload sizes (src/campaign/runner.cc): the probe
// must build exactly the workloads RunScenario builds.
workloads::PmakeParams CampaignPmake(const campaign::ScenarioSpec& spec) {
  workloads::PmakeParams params;
  params.jobs = 4 * spec.workload_scale;
  params.parallelism = 4;
  params.source_bytes = 8 * 1024;
  params.output_bytes = 16 * 1024;
  params.shared_text_pages = 20;
  params.private_file_pages = 40;
  params.anon_pages = 20;
  params.scratch_pages = 2;
  params.metadata_ops = 5;
  params.compute_per_job = 150 * hive::kMillisecond;
  params.name_seed = spec.seed;
  return params;
}

workloads::RaytraceParams CampaignRaytrace(const campaign::ScenarioSpec& spec) {
  workloads::RaytraceParams params;
  params.scene_pages = 48;
  params.blocks_per_worker = 2 * spec.workload_scale;
  params.compute_per_block = 60 * hive::kMillisecond;
  params.result_bytes = 16 * 1024;
  params.name_seed = spec.seed + 1;
  return params;
}

workloads::OceanParams CampaignOcean(const campaign::ScenarioSpec& spec) {
  workloads::OceanParams params;
  params.grid_pages = 96;
  params.timesteps = 4 * spec.workload_scale;
  params.compute_per_step = 40 * hive::kMillisecond;
  params.touches_per_step = 8;
  params.halo_pages = 2;
  params.name_seed = spec.seed + 2;
  return params;
}

// The campaign runner's canaries: one file per cell, read across cells
// before any fault could fire.
campaign::CanaryState SetUpCanaries(const campaign::ScenarioSpec& spec, hive::HiveSystem& sys) {
  campaign::CanaryState canaries;
  canaries.cells.resize(static_cast<size_t>(spec.num_cells));
  for (hive::CellId c = 0; c < spec.num_cells; ++c) {
    campaign::CanaryState::PerCell& canary = canaries.cells[static_cast<size_t>(c)];
    canary.path = "/campaign/canary-" + std::to_string(c);
    canary.pattern_seed = spec.seed ^ (0xC0FFEEull + static_cast<uint64_t>(c));
    canary.size = 8192;
    hive::Cell& owner = sys.cell(c);
    hive::Ctx octx = owner.MakeCtx();
    auto created = owner.fs().Create(octx, canary.path,
                                     workloads::PatternData(canary.pattern_seed, canary.size));
    if (!created.ok()) {
      continue;
    }
    if (spec.num_cells > 1) {
      canary.cross_reader = (c + 1) % spec.num_cells;
      hive::Cell& reader = sys.cell(canary.cross_reader);
      hive::Ctx rctx = reader.MakeCtx();
      auto handle = reader.fs().Open(rctx, canary.path);
      if (!handle.ok()) {
        continue;
      }
      canary.cross_handle = *handle;
      std::vector<uint8_t> warm(canary.size);
      (void)reader.fs().Read(rctx, canary.cross_handle, 0, std::span<uint8_t>(warm));
    } else {
      canary.cross_reader = c;
      canary.cross_handle = *owner.fs().Open(octx, canary.path);
    }
    canary.valid = true;
  }
  return canaries;
}

// What the probe saw of one fault-free scenario; compared with
// RunScenario(copy) to prove the probe drove the same simulation.
struct ProbeOutcome {
  uint64_t events = 0;
  Time end_time = 0;
  uint64_t trace_signature = 0;
  std::vector<uint64_t> coverage;
  size_t violations = 0;
};

// Drives the public calls RunScenario makes for a spec with no faults (and so
// no fault drivers), timing each phase. `through` stops after that phase
// (then tears down); the set-up measurement stops after kSetup.
ProbeOutcome ProbeScenario(const campaign::ScenarioSpec& spec, PhaseTotals& totals,
                           int through = kCoverage) {
  ProbeOutcome out;
  std::unique_ptr<flash::Machine> machine;
  std::unique_ptr<hive::HiveSystem> sys;
  campaign::CanaryState canaries;
  std::unique_ptr<workloads::PmakeWorkload> pmake;
  std::unique_ptr<workloads::RaytraceWorkload> raytrace;
  std::unique_ptr<workloads::OceanWorkload> ocean;
  std::vector<hive::ProcId> pids;
  int corrupt = -1;
  std::vector<campaign::OracleViolation> violations;

  TimePhase(totals, kBuild, [&] {
    machine = std::make_unique<flash::Machine>(SmallCellConfig(spec.num_cells), spec.seed);
    AlignLikeRunners(*machine);
  });
  TimePhase(totals, kBoot, [&] {
    hive::HiveOptions options;
    options.num_cells = spec.num_cells;
    options.agreement_mode = spec.agreement_mode;
    options.auto_reintegrate = spec.auto_reintegrate;
    options.salvage_pages = spec.salvage;
    options.salvage_verify = !spec.bug_salvage_unchecked;
    options.live_rejoin = spec.reboot_storm_only;
    sys = std::make_unique<hive::HiveSystem>(machine.get(), options);
    sys->Boot();
    if (spec.disable_firewall) {
      machine->firewall().set_checking_enabled(false);
    }
    if (spec.bug_no_dedup) {
      if (spec.num_cells > campaign::kBugNoDedupCell) {
        sys->cell(campaign::kBugNoDedupCell).rpc().set_duplicate_suppression(false);
      }
    } else if (spec.disable_rpc_dedup) {
      for (hive::CellId c = 0; c < spec.num_cells; ++c) {
        sys->cell(c).rpc().set_duplicate_suppression(false);
      }
    }
  });
  TimePhase(totals, kSetup, [&] {
    canaries = SetUpCanaries(spec, *sys);
    const bool want_pmake = spec.workload == campaign::WorkloadKind::kPmake ||
                            spec.workload == campaign::WorkloadKind::kMixed;
    const bool want_raytrace = spec.workload == campaign::WorkloadKind::kRaytrace ||
                               spec.workload == campaign::WorkloadKind::kMixed;
    if (want_pmake) {
      pmake = std::make_unique<workloads::PmakeWorkload>(sys.get(), CampaignPmake(spec));
      pmake->Setup();
      const auto started = pmake->Start();
      pids.insert(pids.end(), started.begin(), started.end());
    }
    if (want_raytrace) {
      raytrace = std::make_unique<workloads::RaytraceWorkload>(sys.get(), CampaignRaytrace(spec));
      const auto started = raytrace->Start();
      pids.insert(pids.end(), started.begin(), started.end());
    }
    if (spec.workload == campaign::WorkloadKind::kOcean) {
      ocean = std::make_unique<workloads::OceanWorkload>(sys.get(), CampaignOcean(spec));
      ocean->Setup();
      const auto started = ocean->Start();
      pids.insert(pids.end(), started.begin(), started.end());
    }
  });
  if (through > kSetup) {
    TimePhase(totals, kSimulate, [&] {
      if (!pids.empty()) {
        (void)sys->RunUntilDone(pids, 60 * hive::kSecond);
      }
      machine->RunUntil(machine->Now() + spec.settle_ns);
      out.end_time = machine->Now();
      out.events = machine->events().total_run();
    });
    TimePhase(totals, kValidate, [&] {
      if (pmake != nullptr && sys->cell(CampaignPmake(spec).file_server).alive()) {
        corrupt = pmake->ValidateOutputs();
      }
      if (raytrace != nullptr) {
        const int tiles = raytrace->ValidateOutputs();
        corrupt = corrupt < 0 ? tiles : corrupt + tiles;
      }
    });
    TimePhase(totals, kOracles, [&] {
      campaign::OracleInput input;
      input.spec = &spec;
      input.system = sys.get();
      input.canaries = &canaries;
      input.corrupt_outputs = corrupt;
      violations = campaign::CheckAllOracles(input);
    });
    TimePhase(totals, kCoverage, [&] {
      out.trace_signature = campaign::ComputeTraceSignature(*sys);
      out.coverage = campaign::ExtractCoverage(*sys, violations);
    });
  }
  out.violations = violations.size();
  TimePhase(totals, kTeardown, [&] {
    ocean.reset();
    raytrace.reset();
    pmake.reset();
    sys.reset();
    machine.reset();
  });
  ++totals.scenarios;
  return out;
}

// The serve engine's bring-up (src/serve/serve.cc): soak machine, boot with
// the soak's recovery options, one pattern file per tenant.
void ProbeSoakBringUp(const serve::ServeOptions& opts, PhaseTotals& totals) {
  std::unique_ptr<flash::Machine> machine;
  std::unique_ptr<hive::HiveSystem> sys;
  TimePhase(totals, kBuild, [&] {
    machine = std::make_unique<flash::Machine>(SmallCellConfig(opts.num_cells), opts.seed);
    AlignLikeRunners(*machine);
  });
  TimePhase(totals, kBoot, [&] {
    hive::HiveOptions options;
    options.num_cells = opts.num_cells;
    options.auto_reintegrate = true;
    options.salvage_pages = true;
    options.live_rejoin = true;
    options.admit_runq_watermark = opts.admit_runq_watermark;
    options.admit_heap_watermark_bytes = opts.admit_heap_watermark_bytes;
    sys = std::make_unique<hive::HiveSystem>(machine.get(), options);
    sys->Boot();
  });
  TimePhase(totals, kSetup, [&] {
    constexpr uint64_t kTenantFileSize = 64 * 1024;
    for (int t = 0; t < std::max(opts.tenants, opts.num_cells); ++t) {
      hive::Cell& home = sys->cell(static_cast<hive::CellId>(t % opts.num_cells));
      hive::Ctx ctx = home.MakeCtx();
      (void)home.fs().Create(
          ctx, "/serve/tenant-" + std::to_string(t),
          workloads::PatternData(opts.seed ^ (0x7E4A47ull + static_cast<uint64_t>(t)),
                                 kTenantFileSize));
    }
  });
  TimePhase(totals, kTeardown, [&] {
    sys.reset();
    machine.reset();
  });
  ++totals.scenarios;
}

// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupReps = 9;

// ---------------------------------------------------------------------------
// campaign_mix
// ---------------------------------------------------------------------------

struct ScenarioRecord {
  uint64_t fingerprint = 0;
  Time end_time = 0;
  uint64_t events = 0;
  double host_ms = 0;
};

struct CampaignCounts {
  uint64_t violations = 0;  // Scenarios with at least one oracle violation.
  uint64_t crashes = 0;     // Scenarios an exception escaped.
  uint64_t faults_injected = 0;
  uint64_t excisions = 0;
};

// One RunScenario with crash containment: an exception that escapes the
// runner is counted as a crashed scenario with its repro line, and the loop
// goes on. A crash's fingerprint is a digest of the exception text.
ScenarioRecord RunOneScenario(const campaign::ScenarioSpec& spec, CampaignCounts& counts,
                              bool print_crash) {
  ScenarioRecord record;
  try {
    const campaign::ScenarioResult result = campaign::RunScenario(spec);
    record.fingerprint = result.fingerprint;
    record.end_time = result.end_time;
    record.events = result.events_run;
    counts.violations += result.violated() ? 1 : 0;
    counts.excisions += static_cast<uint64_t>(result.excisions);
    for (bool landed : result.injected) {
      counts.faults_injected += landed ? 1 : 0;
    }
  } catch (const std::exception& error) {
    ++counts.crashes;
    record.fingerprint = campaign::FnvMixString(campaign::kFnvOffsetBasis,
                                                std::string("crash: ") + error.what());
    if (print_crash) {
      std::printf("crash: scenario %" PRIu64 " threw '%s'\n  repro: %s\n", spec.index,
                  error.what(), spec.ReproLine().c_str());
    }
  }
  return record;
}

int RunCampaignMix(const Args& args, Report& report) {
  // Deterministic outputs cover the first kPrefix scenarios, which every run
  // completes however fast the host is; the phase probe covers them too.
  const uint64_t kPrefix = args.smoke ? 16 : 200;
  // Specs generated up front: about four times what the parent commit gets
  // through in --seconds. The loop generates more if it runs out.
  const uint64_t kSpecs = std::max<uint64_t>(kPrefix, static_cast<uint64_t>(args.seconds * 1000));

  // --- Set-up: generate the inputs, bring up the first machines. ---
  // Several bring-ups, so set-up work does not hinge on scenario 0's geometry.
  constexpr uint64_t kBringUps = 8;
  std::vector<campaign::ScenarioSpec> specs;
  std::vector<double> setup_s;
  std::vector<double> generate_us;
  PhaseTotals setup_phases;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point start = Clock::now();
    specs.clear();
    specs.reserve(kSpecs);
    for (uint64_t i = 0; i < kSpecs; ++i) {
      specs.push_back(campaign::GenerateScenario(args.seed, i));
    }
    generate_us.push_back(SecondsSince(start) * 1e6 / static_cast<double>(kSpecs));
    for (uint64_t i = 0; i < kBringUps; ++i) {
      campaign::ScenarioSpec copy = specs[i];
      copy.faults.clear();
      ProbeScenario(copy, setup_phases, /*through=*/kSetup);
    }
    setup_s.push_back(SecondsSince(start));
  }

  // --- Untraced closed loop. ---
  std::vector<ScenarioRecord> records;
  CampaignCounts counts;
  Time sim_total = 0;
  const Clock::time_point start = Clock::now();
  for (uint64_t i = 0;; ++i) {
    if (i >= kPrefix && SecondsSince(start) >= args.seconds) {
      break;
    }
    if (i == specs.size()) {
      specs.push_back(campaign::GenerateScenario(args.seed, i));
    }
    const Clock::time_point op_start = Clock::now();
    ScenarioRecord record = RunOneScenario(specs[i], counts, /*print_crash=*/true);
    record.host_ms = SecondsSince(op_start) * 1e3;
    sim_total += record.end_time;
    records.push_back(record);
  }
  const double wall = SecondsSince(start);
  const double peak_rss = PeakRssMb();

  // Re-run the first scenarios: a scenario is a function of its spec alone.
  for (uint64_t i = 0; i < std::min<uint64_t>(8, records.size()); ++i) {
    CampaignCounts ignored;
    if (RunOneScenario(specs[i], ignored, false).fingerprint != records[i].fingerprint) {
      report.Fail("scenario " + std::to_string(i) + " fingerprint changed on re-run");
    }
  }

  std::vector<double> host_ms;
  uint64_t prefix_fp = campaign::kFnvOffsetBasis;
  Time prefix_sim = 0;
  uint64_t prefix_events = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    host_ms.push_back(records[i].host_ms);
    if (i < kPrefix) {
      prefix_fp = campaign::FnvMix(prefix_fp, records[i].fingerprint);
      prefix_sim += records[i].end_time;
      prefix_events += records[i].events;
    }
  }
  const uint64_t n = records.size();
  std::printf("campaign_mix: seed=%" PRIu64 " scenarios=%" PRIu64 " wall=%.3f s\n", args.seed, n,
              wall);
  report.Det("campaign.fingerprint(first " + std::to_string(kPrefix) + ") " + Hex(prefix_fp));
  report.Det("campaign.sim_s(first " + std::to_string(kPrefix) + ") " +
             std::to_string(static_cast<double>(prefix_sim) / 1e9));
  report.Det("campaign.events(first " + std::to_string(kPrefix) + ") " +
             std::to_string(prefix_events));

  report.Add("setup_s", Median(setup_s), "s");
  report.Add("scenarios_per_s", static_cast<double>(n) / wall, "1/s");
  std::printf("scenario host-time samples: n=%" PRIu64 "\n", n);
  report.Add("scenario_ms_p50", Percentile(host_ms, 50), "ms");
  report.Add("scenario_ms_p99", Percentile(host_ms, 99), "ms");
  report.Add("sim_s_per_host_s", static_cast<double>(sim_total) / 1e9 / wall, "s/s");
  report.Add("peak_rss_mb", peak_rss, "MB");
  report.Add("fail_share",
             static_cast<double>(counts.violations + counts.crashes) / static_cast<double>(n),
             "ratio");
  if (!args.trace) {
    return static_cast<int>(n);
  }

  // --- Traced replay of exactly the same scenarios. ---
  SubsystemTotals subsystems;
  CampaignCounts traced_counts;
  const Clock::time_point traced_start = Clock::now();
  for (uint64_t i = 0; i < n; ++i) {
    ScenarioRecord record;
    base::SimProfile one;
    {
      ProfileWindow window(&one);
      record = RunOneScenario(specs[i], traced_counts, /*print_crash=*/false);
    }
    subsystems.Add(one);
    if (record.fingerprint != records[i].fingerprint || record.end_time != records[i].end_time ||
        record.events != records[i].events) {
      report.Fail("scenario " + std::to_string(i) + " differs between traced and untraced runs");
    }
  }
  const double traced_wall = SecondsSince(traced_start);

  // --- Phase probe over fault-free copies of the first kPrefix specs. ---
  PhaseTotals phases;
  double copy_ns = 0;
  uint64_t probe_events = 0;
  for (uint64_t i = 0; i < kPrefix; ++i) {
    campaign::ScenarioSpec copy = specs[i];
    copy.faults.clear();
    if (copy.rogue_only || copy.healthy_baseline) {
      report.Fail("spec " + std::to_string(i) + " schedules drivers the probe cannot mirror");
      continue;
    }
    base::SimProfile copy_profile;
    campaign::ScenarioResult reference;
    {
      ProfileWindow window(&copy_profile);
      reference = campaign::RunScenario(copy);
    }
    copy_ns += static_cast<double>(copy_profile.total_ns());
    const ProbeOutcome probe = ProbeScenario(copy, phases);
    probe_events += probe.events;
    if (probe.events != reference.events_run || probe.end_time != reference.end_time ||
        probe.trace_signature != reference.trace_signature ||
        probe.coverage != reference.coverage || probe.violations != reference.violations.size()) {
      report.Fail("phase probe diverged from RunScenario on fault-free scenario " +
                  std::to_string(i) + " (events " + std::to_string(probe.events) + " vs " +
                  std::to_string(reference.events_run) + ")");
    }
  }
  report.Det("campaign.probe_events(first " + std::to_string(kPrefix) + ") " +
             std::to_string(probe_events));

  // Phase x subsystem attribution.
  std::printf("\nphase x subsystem (fault-free copies of the first %" PRIu64
              " scenarios, share of phase host time)\n%-10s %10s %7s",
              kPrefix, "phase", "us/scen", "share");
  for (int s = 0; s < kSubsystems; ++s) {
    std::printf(" %11.11s",
                std::string(base::SimSubsystemName(static_cast<base::SimSubsystem>(s))).c_str());
  }
  std::printf("\n");
  const double phase_total = phases.TotalNs();
  for (int p = 0; p < kPhaseCount; ++p) {
    const base::SimProfile& pp = phases.profiles[p];
    std::printf("%-10s %10.1f %6.1f%%", kPhaseNames[p], phases.MeanUs(p),
                phase_total > 0 ? 100.0 * phases.PhaseNs(p) / phase_total : 0.0);
    for (int s = 0; s < kSubsystems; ++s) {
      const double ns = static_cast<double>(pp.ns(static_cast<base::SimSubsystem>(s)));
      std::printf(" %10.1f%%", pp.total_ns() > 0 ? 100.0 * ns / static_cast<double>(pp.total_ns())
                                                 : 0.0);
    }
    std::printf("\n");
  }

  report.Add("campaign.generate_us", Median(generate_us), "us");
  for (int p = 0; p < kPhaseCount; ++p) {
    report.Add(kPhaseMetrics[p], phases.MeanUs(p), "us");
  }
  report.Add("flash.events", static_cast<double>(probe_events), "count");
  report.Add("flash.ns_per_event",
             probe_events > 0 ? phases.PhaseNs(kSimulate) / static_cast<double>(probe_events) : 0,
             "ns");
  report.Add("campaign.phase_coverage", copy_ns > 0 ? phase_total / copy_ns : 0, "ratio");
  AddSubsystemMetrics(report, subsystems);
  for (const char* name : {"serve.completed", "serve.shed", "serve.lost", "serve.hung",
                           "serve.episodes_landed", "serve.recoveries", "serve.max_runnable"}) {
    report.Add(name, 0, "count");
  }
  report.Add("campaign.violations", static_cast<double>(traced_counts.violations), "count");
  report.Add("campaign.crashes", static_cast<double>(traced_counts.crashes), "count");
  report.Add("campaign.faults_injected", static_cast<double>(traced_counts.faults_injected),
             "count");
  report.Add("campaign.excisions", static_cast<double>(traced_counts.excisions), "count");
  report.Add("trace_overhead", traced_wall / wall, "ratio");
  return static_cast<int>(n);
}

// ---------------------------------------------------------------------------
// serve_soak / serve_wide
// ---------------------------------------------------------------------------

// Soak seeds that run to a verdict at each geometry; --seed picks one. On many
// other seeds the serve engine crashes (segfault or abort), and on some it
// reads freed memory, so that its outcome depends on the heap it starts from.
// Each seed here gave one fingerprint across fresh processes, traced and
// untraced.
constexpr uint64_t kSoakSeeds[] = {1, 2, 5, 6, 8, 9, 10, 12, 14, 16, 18, 19};
constexpr uint64_t kWideSeeds[] = {1, 8, 11, 12, 20, 24, 30, 33, 42, 43, 45, 46};

// What one soak reports back from its child process (plain data).
struct SoakOutcome {
  double host_s = 0;  // The RunSoak call, host seconds.
  double peak_rss_mb = 0;
  int64_t end_time = 0;
  uint64_t fingerprint = 0;
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t shed = 0;
  uint64_t lost = 0;
  uint64_t hung = 0;
  uint64_t unroutable = 0;
  uint64_t episodes_landed = 0;
  uint64_t recoveries = 0;
  uint64_t max_runnable = 0;
  double availability_min = 0;
  double p50_ms = 0;
  double p999_ms = 0;
  SubsystemTotals subsystems;  // Empty unless traced.
  char violations[1024] = {};  // SLO violations, one per line, truncated.
};
static_assert(std::is_trivially_copyable_v<SoakOutcome>);

SoakOutcome MeasureSoak(const serve::ServeOptions& opts, bool traced) {
  base::SimProfile profile;
  serve::ServeResult result;
  const Clock::time_point start = Clock::now();
  if (traced) {
    ProfileWindow window(&profile);
    result = serve::RunSoak(opts);
  } else {
    result = serve::RunSoak(opts);
  }
  SoakOutcome out;
  out.host_s = SecondsSince(start);
  out.peak_rss_mb = PeakRssMb();
  out.end_time = result.end_time;
  out.fingerprint = result.fingerprint;
  out.submitted = result.submitted;
  out.completed = result.completed;
  out.shed = result.shed;
  out.lost = result.lost;
  out.hung = result.hung;
  out.unroutable = result.unroutable;
  out.episodes_landed = result.episodes_landed;
  out.recoveries = static_cast<uint64_t>(result.recoveries_run);
  for (const serve::ServeCellSummary& cell : result.cells) {
    out.max_runnable = std::max<uint64_t>(out.max_runnable, cell.max_runnable);
  }
  out.availability_min = result.availability_min;
  if (!result.latency.empty()) {
    out.p50_ms = static_cast<double>(result.latency.Percentile(50)) / 1e6;
    out.p999_ms = static_cast<double>(result.latency.Percentile(99.9)) / 1e6;
  }
  out.subsystems.Add(profile);
  std::string joined;
  for (const std::string& violation : result.violations) {
    joined += violation + "\n";
  }
  std::snprintf(out.violations, sizeof(out.violations), "%s", joined.c_str());
  return out;
}

// Runs one soak in a forked child, so every soak of a run starts from the same
// process state and a crash ends only the child. The parent waits for the
// child. Returns false, with `what` set, when the child did not report.
bool RunSoakIsolated(const serve::ServeOptions& opts, bool traced, SoakOutcome* out,
                     std::string* what) {
  int fds[2];
  if (pipe(fds) != 0) {
    *what = "pipe failed";
    return false;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    *what = "fork failed";
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    const SoakOutcome outcome = MeasureSoak(opts, traced);
    const char* bytes = reinterpret_cast<const char*>(&outcome);
    size_t left = sizeof(outcome);
    while (left > 0) {
      const ssize_t written = write(fds[1], bytes, left);
      if (written <= 0) {
        _exit(3);
      }
      bytes += written;
      left -= static_cast<size_t>(written);
    }
    _exit(0);
  }
  close(fds[1]);
  char* bytes = reinterpret_cast<char*>(out);
  size_t got = 0;
  while (got < sizeof(*out)) {
    const ssize_t n = read(fds[0], bytes + got, sizeof(*out) - got);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      break;
    }
    got += static_cast<size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (got == sizeof(*out) && WIFEXITED(status) && WEXITSTATUS(status) == 0) {
    return true;
  }
  *what = WIFSIGNALED(status) ? "killed by signal " + std::to_string(WTERMSIG(status))
                              : "exit status " + std::to_string(WEXITSTATUS(status));
  return false;
}

std::string SoakRepro(const serve::ServeOptions& opts) {
  return "hive_serve --seed=" + std::to_string(opts.seed) +
         " --cells=" + std::to_string(opts.num_cells) +
         " --tenants=" + std::to_string(opts.tenants) +
         " --duration-s=" + std::to_string(opts.duration_ns / hive::kSecond);
}

// Checks a soak's outcome for internal consistency: every submitted request
// completed, was lost to a fault or hung.
bool SoakConsistent(const SoakOutcome& soak) {
  return soak.fingerprint != 0 && soak.submitted > 0 &&
         soak.submitted == soak.completed + soak.lost + soak.hung &&
         soak.availability_min > 0 && soak.availability_min <= 1 && soak.p50_ms <= soak.p999_ms;
}

bool SameOutcome(const SoakOutcome& a, const SoakOutcome& b) {
  return a.fingerprint == b.fingerprint && a.end_time == b.end_time && a.p50_ms == b.p50_ms &&
         a.p999_ms == b.p999_ms && a.availability_min == b.availability_min;
}

int RunServe(const Args& args, Report& report) {
  const bool wide = args.workload == "serve_wide";
  const std::span<const uint64_t> seeds =
      wide ? std::span<const uint64_t>(kWideSeeds) : std::span<const uint64_t>(kSoakSeeds);
  // Soak k of a run uses the table entry k places after --seed's, so every run
  // averages over several soak seeds.
  const auto soak_options = [&](uint64_t k) {
    serve::ServeOptions opts;
    opts.seed = seeds[(args.seed + k) % seeds.size()];
    opts.num_cells = wide ? 8 : 4;
    opts.tenants = wide ? 32 : 8;
    opts.duration_ns = (wide ? (args.smoke ? 10 : 60) : (args.smoke ? 20 : 600)) * hive::kSecond;
    return opts;
  };

  // --- Set-up: bring up the first soak's machine the way RunSoak does. ---
  std::vector<double> setup_s;
  PhaseTotals setup_phases;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point start = Clock::now();
    ProbeSoakBringUp(soak_options(0), setup_phases);
    setup_s.push_back(SecondsSince(start));
  }

  // --- Untraced closed loop. ---
  std::vector<SoakOutcome> soaks;
  const Clock::time_point start = Clock::now();
  while (soaks.empty() || SecondsSince(start) < args.seconds) {
    const uint64_t k = soaks.size();
    SoakOutcome outcome;
    std::string what;
    if (!RunSoakIsolated(soak_options(k), /*traced=*/false, &outcome, &what)) {
      report.Fail("soak crashed (" + what + ")\n  repro: " + SoakRepro(soak_options(k)));
      return static_cast<int>(k);
    }
    if (!SoakConsistent(outcome)) {
      report.Fail("soak " + std::to_string(k) + " outcome is inconsistent");
    }
    // A seed met again must give the same outcome.
    if (k >= seeds.size() && !SameOutcome(outcome, soaks[k - seeds.size()])) {
      report.Fail("soak " + std::to_string(k) + " differs from an earlier soak of its seed");
    }
    soaks.push_back(outcome);
  }
  const SoakOutcome& first = soaks[0];
  const uint64_t n = soaks.size();
  double host_s = 0;
  Time sim_total = 0;
  std::vector<double> soak_s;
  // Each soak is its own process; a run reports the median soak's peak RSS.
  std::vector<double> soak_rss;
  for (const SoakOutcome& soak : soaks) {
    host_s += soak.host_s;
    sim_total += soak.end_time;
    soak_s.push_back(soak.host_s);
    soak_rss.push_back(soak.peak_rss_mb);
  }
  const double fail_share =
      static_cast<double>(first.lost + first.hung + first.unroutable + first.shed) /
      static_cast<double>(first.submitted);

  std::printf("%s: seed=%" PRIu64 " cells=%d tenants=%d soaks=%" PRIu64 " soak_s_p50=%.3f\n",
              args.workload.c_str(), args.seed, soak_options(0).num_cells,
              soak_options(0).tenants, n, Median(soak_s));
  report.Det("serve.fingerprint " + Hex(first.fingerprint) + " (" + SoakRepro(soak_options(0)) +
             ")");
  report.Det(std::string("serve.verdict ") +
             (first.violations[0] == '\0' ? "ok" : "SLO-violated"));
  for (const char* line = first.violations; *line != '\0';) {
    const char* end = std::strchr(line, '\n');
    const size_t length = end != nullptr ? static_cast<size_t>(end - line) : std::strlen(line);
    report.Det("serve.violation " + std::string(line, length));
    line += length + (end != nullptr ? 1 : 0);
  }
  char line[200];
  std::snprintf(line, sizeof(line),
                "serve.requests submitted=%" PRIu64 " completed=%" PRIu64 " shed=%" PRIu64
                " lost=%" PRIu64 " hung=%" PRIu64 " unroutable=%" PRIu64,
                first.submitted, first.completed, first.shed, first.lost, first.hung,
                first.unroutable);
  report.Det(line);
  std::snprintf(line, sizeof(line),
                "sim_req_ms_p50 %.6f sim_req_ms_p999 %.6f sim_availability_min %.6f "
                "fail_share %.6f",
                first.p50_ms, first.p999_ms, first.availability_min, fail_share);
  report.Det(line);

  report.Add("setup_s", Median(setup_s), "s");
  report.Add("sim_s_per_host_s", static_cast<double>(sim_total) / 1e9 / host_s, "s/s");
  report.Add("peak_rss_mb", Median(soak_rss), "MB");
  report.Add("fail_share", fail_share, "ratio");
  report.Add("sim_req_ms_p50", first.p50_ms, "ms");
  report.Add("sim_req_ms_p999", first.p999_ms, "ms");
  report.Add("sim_availability_min", first.availability_min, "ratio");
  if (!args.trace) {
    return static_cast<int>(n);
  }

  // --- Traced replay of the same soaks. ---
  SubsystemTotals subsystems;
  double traced_s = 0;
  for (uint64_t k = 0; k < n; ++k) {
    SoakOutcome traced;
    std::string what;
    if (!RunSoakIsolated(soak_options(k), /*traced=*/true, &traced, &what)) {
      report.Fail("traced soak crashed (" + what + ")\n  repro: " + SoakRepro(soak_options(k)));
      return static_cast<int>(n);
    }
    traced_s += traced.host_s;
    subsystems.Add(traced.subsystems);
    if (!SameOutcome(traced, soaks[k])) {
      report.Fail("soak " + std::to_string(k) + " differs between traced and untraced runs");
    }
  }

  report.Add("campaign.generate_us", 0, "us");
  for (int p = 0; p < kPhaseCount; ++p) {
    // The soak exposes only its bring-up; RunSoak itself is the run phase.
    const bool measured = p == kBuild || p == kBoot || p == kSetup || p == kTeardown;
    report.Add(kPhaseMetrics[p],
               p == kSimulate ? traced_s * 1e6 / static_cast<double>(n)
                              : (measured ? setup_phases.MeanUs(p) : 0),
               "us");
  }
  // RunSoak does not expose its event count.
  report.Add("flash.events", 0, "count");
  report.Add("flash.ns_per_event", 0, "ns");
  report.Add("campaign.phase_coverage", 0, "ratio");
  AddSubsystemMetrics(report, subsystems);
  report.Add("serve.completed", static_cast<double>(first.completed), "count");
  report.Add("serve.shed", static_cast<double>(first.shed), "count");
  report.Add("serve.lost", static_cast<double>(first.lost), "count");
  report.Add("serve.hung", static_cast<double>(first.hung), "count");
  report.Add("serve.episodes_landed", static_cast<double>(first.episodes_landed), "count");
  report.Add("serve.recoveries", static_cast<double>(first.recoveries), "count");
  report.Add("serve.max_runnable", static_cast<double>(first.max_runnable), "count");
  for (const char* name : {"campaign.violations", "campaign.crashes", "campaign.faults_injected",
                           "campaign.excisions"}) {
    report.Add(name, 0, "count");
  }
  report.Add("trace_overhead", traced_s / host_s, "ratio");
  return static_cast<int>(n);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  Report report;
  const int attempted =
      args.workload == "campaign_mix" ? RunCampaignMix(args, report) : RunServe(args, report);
  if (args.trace) {
    const int rounds = args.smoke ? 8 : 64;
    report.Add("flash.eq_schedule_run_ns", EqScheduleRunNs(rounds), "ns");
    report.Add("flash.eq_cancel_ns", EqCancelNs(rounds), "ns");
    report.PrintResult(PerLayerNames(), static_cast<uint64_t>(attempted));
  } else {
    report.PrintResult(std::vector<std::string>(std::begin(kEndToEnd), std::end(kEndToEnd)),
                       static_cast<uint64_t>(attempted));
  }
  return report.failed() == 0 ? 0 : 1;
}
