// hive_serve: long-running multi-tenant soak of a Hive machine under
// continuous fault pressure, with per-request SLO accounting and graceful
// degradation (admission shedding on run-queue/heap watermarks).
//
// Tenants submit a steady request mix (file reads/writes, page-fault bursts,
// metadata walks, fork storms) for a 60-second simulated window while a
// background fault plan rotates through all seven campaign fault families,
// one episode at a time. The run judges SLO oracles -- per-cell availability
// floor, end-to-end latency p999 bound, per-episode recovery-time bound, and
// no hung requests -- and emits machine-readable BENCH_serve.json (schema
// "hive-serve-v1") plus human-readable tables. The run is one serial event
// loop, so the summary fingerprint is a function of the flags alone.
//
// Exit codes: 0 = SLOs met, 1 = the JSON report cannot be written (checked
// before the soak starts), 2 = usage error (a value flag given twice with
// different values too), 3 = SLO violations (the --bug= sensitivity modes
// must exit 3).

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "src/base/histogram.h"
#include "src/campaign/scenario.h"
#include "src/serve/serve.h"
#include "tools/flags.h"

namespace {

struct Args {
  uint64_t seed = 1;
  int cells = 4;
  int tenants = 8;
  uint64_t duration_s = 60;
  std::string bug;
  bool smoke = false;
  std::string out = "BENCH_serve.json";
};

void Usage() {
  std::fprintf(stderr,
               "usage: hive_serve [--seed=N] [--cells=N] [--tenants=N]\n"
               "                  [--duration-s=N] [--bug=NAME] [--out=PATH]\n"
               "                  [--smoke]\n"
               "\n"
               "  --seed=N        soak master seed (default 1); the summary\n"
               "                  fingerprint is a function of the seed alone\n"
               "  --cells=N       cells in the machine, 2..16 (default 4)\n"
               "  --tenants=N     tenant request streams (default 8); raised to\n"
               "                  --cells so every cell homes one\n"
               "  --duration-s=N  simulated submission window in seconds (default 60)\n"
               "  --bug=NAME      seeded sensitivity bug: no_shed | slow_recovery;\n"
               "                  each must trip an SLO oracle (exit 3)\n"
               "  --out=PATH      where to write the JSON report (default BENCH_serve.json);\n"
               "                  opened before the soak starts\n"
               "  --smoke         lighter request mix for CI; same 60 s window and\n"
               "                  the same full fault rotation\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  cli::GivenFlags given;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    uint64_t value = 0;
    if (std::strncmp(arg, "--seed=", 7) == 0 && cli::ParseU64(arg + 7, &value)) {
      args->seed = value;
      given.Note("--seed", std::to_string(value));
    } else if (std::strncmp(arg, "--cells=", 8) == 0 && cli::ParseU64(arg + 8, &value) &&
               value >= 2 && value <= 16) {
      args->cells = static_cast<int>(value);
      given.Note("--cells", std::to_string(value));
    } else if (std::strncmp(arg, "--tenants=", 10) == 0 && cli::ParseU64(arg + 10, &value) &&
               value >= 1 && value <= 256) {
      args->tenants = static_cast<int>(value);
      given.Note("--tenants", std::to_string(value));
    } else if (std::strncmp(arg, "--duration-s=", 13) == 0 &&
               cli::ParseU64(arg + 13, &value) && value >= 5 && value <= 3600) {
      args->duration_s = value;
      given.Note("--duration-s", std::to_string(value));
    } else if (std::strncmp(arg, "--bug=", 6) == 0 && arg[6] != '\0') {
      args->bug = arg + 6;
      given.Note("--bug", args->bug);
    } else if (std::strncmp(arg, "--out=", 6) == 0 && arg[6] != '\0') {
      args->out = arg + 6;
      given.Note("--out", args->out);
    } else if (std::strcmp(arg, "--smoke") == 0) {
      args->smoke = true;
    } else {
      std::fprintf(stderr, "hive_serve: bad argument '%s'\n", arg);
      return false;
    }
  }
  if (!given.conflict.empty()) {
    std::fprintf(stderr, "hive_serve: flag given twice with different values: %s\n",
                 given.conflict.c_str());
    return false;
  }
  if (!args->bug.empty() && args->bug != "no_shed" && args->bug != "slow_recovery") {
    std::fprintf(stderr, "hive_serve: unknown --bug '%s'\n", args->bug.c_str());
    return false;
  }
  return true;
}

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

void WriteJsonString(std::FILE* out, const std::string& text) {
  for (char c : text) {
    if (c == '"' || c == '\\') {
      std::fputc('\\', out);
      std::fputc(c, out);
    } else if (c == '\n') {
      std::fputs("\\n", out);
    } else {
      std::fputc(c, out);
    }
  }
}

// Writes the report into `out`, opened before the soak, and closes it.
bool WriteJson(std::FILE* out, const Args& args, const serve::ServeResult& result,
               uint64_t peak_rss) {
  const base::Histogram& lat = result.latency;
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"schema\": \"%s\",\n", serve::kServeSchema);
  std::fprintf(out, "  \"mode\": \"%s\",\n", args.smoke ? "smoke" : "full");
  std::fprintf(out, "  \"seed\": %" PRIu64 ",\n", args.seed);
  std::fprintf(out, "  \"cells\": %d,\n", args.cells);
  std::fprintf(out, "  \"tenants\": %d,\n", result.options.tenants);
  std::fprintf(out, "  \"duration_s\": %" PRIu64 ",\n", args.duration_s);
  std::fprintf(out, "  \"drain_s\": %" PRId64 ",\n",
               result.options.drain_ns / hive::kSecond);
  std::fprintf(out, "  \"bug\": \"%s\",\n", args.bug.c_str());
  std::fprintf(out, "  \"requests\": {\n");
  std::fprintf(out,
               "    \"submitted\": %" PRIu64 ", \"completed\": %" PRIu64
               ", \"shed\": %" PRIu64 ",\n",
               result.submitted, result.completed, result.shed);
  std::fprintf(out,
               "    \"unroutable\": %" PRIu64 ", \"lost\": %" PRIu64
               ", \"hung\": %" PRIu64 "\n",
               result.unroutable, result.lost, result.hung);
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"latency_ns\": {\n");
  std::fprintf(out,
               "    \"count\": %" PRIu64 ", \"p50\": %" PRId64 ", \"p99\": %" PRId64
               ", \"p999\": %" PRId64 ",\n",
               static_cast<uint64_t>(lat.count()),
               lat.empty() ? 0 : lat.Percentile(50.0),
               lat.empty() ? 0 : lat.Percentile(99.0),
               lat.empty() ? 0 : lat.Percentile(99.9));
  std::fprintf(out, "    \"max\": %" PRId64 ", \"mean\": %.1f\n",
               lat.empty() ? 0 : lat.max(), lat.empty() ? 0.0 : lat.mean());
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"availability\": {\n");
  std::fprintf(out, "    \"min\": %.6f,\n", result.availability_min);
  std::fprintf(out, "    \"per_cell\": [");
  for (size_t i = 0; i < result.cells.size(); ++i) {
    std::fprintf(out, "%s%.6f", i > 0 ? ", " : "", result.cells[i].availability);
  }
  std::fprintf(out, "]\n");
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"faults\": {\n");
  std::fprintf(out,
               "    \"episodes\": %zu, \"landed\": %" PRIu64
               ", \"requests_per_fault\": %.1f,\n",
               result.episodes.size(), result.episodes_landed,
               result.requests_per_fault);
  std::fprintf(out, "    \"per_family\": {");
  for (size_t i = 0; i < result.per_family.size(); ++i) {
    std::fprintf(out, "%s\"%s\": %" PRIu64, i > 0 ? ", " : "",
                 campaign::FaultKindName(campaign::kAllFaultKinds[i]),
                 result.per_family[i]);
  }
  std::fprintf(out, "}\n");
  std::fprintf(out, "  },\n");
  base::Histogram recovery;
  for (hive::Time d : result.recovery_durations) {
    recovery.Record(static_cast<int64_t>(d));
  }
  std::fprintf(out, "  \"recovery\": {\n");
  std::fprintf(out,
               "    \"episodes\": %zu, \"recoveries_run\": %d, \"reintegrations\": %d,\n",
               result.recovery_durations.size(), result.recoveries_run,
               result.reintegrations);
  std::fprintf(out, "    \"duration_ms_p50\": %.3f, \"duration_ms_max\": %.3f\n",
               recovery.empty() ? 0.0 : recovery.Percentile(50.0) / 1e6,
               recovery.empty() ? 0.0 : recovery.max() / 1e6);
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"wax\": {\"incarnations\": %d, \"scans\": %" PRIu64 "},\n",
               result.wax_incarnations, result.wax_scans);
  std::fprintf(out, "  \"oracles\": {\n");
  std::fprintf(out, "    \"ok\": %s,\n", result.ok() ? "true" : "false");
  std::fprintf(out, "    \"violations\": [");
  for (size_t i = 0; i < result.violations.size(); ++i) {
    std::fprintf(out, "%s\"", i > 0 ? ", " : "");
    WriteJsonString(out, result.violations[i]);
    std::fprintf(out, "\"");
  }
  std::fprintf(out, "]\n");
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"fingerprint\": \"%016" PRIx64 "\",\n", result.fingerprint);
  std::fprintf(out, "  \"peak_rss_bytes\": %" PRIu64 "\n", peak_rss);
  std::fprintf(out, "}\n");
  const bool ok = std::ferror(out) == 0;
  return std::fclose(out) == 0 && ok;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }

  // Open the report first: an unwritable path must not cost a whole soak.
  std::FILE* json = std::fopen(args.out.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "hive_serve: cannot write %s\n", args.out.c_str());
    return 1;
  }

  serve::ServeOptions options;
  options.seed = args.seed;
  options.num_cells = args.cells;
  options.tenants = args.tenants;
  options.duration_ns = static_cast<hive::Time>(args.duration_s) * hive::kSecond;
  options.bug = args.bug;
  options.smoke = args.smoke;

  const serve::ServeResult result = serve::RunSoak(options);
  const uint64_t peak_rss = PeakRssBytes();

  std::printf("hive_serve: seed=%" PRIu64 " cells=%d tenants=%d "
              "duration=%" PRIu64 "s%s%s%s\n",
              args.seed, args.cells, result.options.tenants, args.duration_s,
              args.smoke ? " (smoke)" : "", args.bug.empty() ? "" : " bug=",
              args.bug.c_str());
  std::printf("%s", result.report.c_str());
  std::printf("fingerprint: %016" PRIx64 "   peak_rss: %" PRIu64 " bytes\n",
              result.fingerprint, peak_rss);

  if (!WriteJson(json, args, result, peak_rss)) {
    std::fprintf(stderr, "hive_serve: cannot write %s\n", args.out.c_str());
    return 1;
  }
  std::printf("wrote %s\n", args.out.c_str());

  if (!result.ok()) {
    std::printf("SLO VIOLATIONS (%zu):\n", result.violations.size());
    for (const std::string& violation : result.violations) {
      std::printf("  - %s\n", violation.c_str());
    }
    return 3;
  }
  std::printf("all SLOs met\n");
  return 0;
}
