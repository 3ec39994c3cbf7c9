// hive_campaign: seed-driven fault-campaign runner.
//
// Sweep mode (default): generate and run `--scenarios` randomized fault
// scenarios from `--seed`, in parallel on `--workers` threads, judging each
// with the containment oracle library. Any violation is minimized and
// reported with a self-contained repro line.
//
// Repro mode (`--scenario=K`): run exactly scenario K of the campaign rooted
// at `--seed` and print its full outcome. All output is a pure function of
// (seed, scenario, plan mode): rerunning a printed repro line produces
// byte-identical output.
//
// Exit codes: 0 = all oracles passed, 1 = violation(s), 2 = usage error
// (including plan or run-mode flags that conflict, flags the run mode never
// reads, and a flag given two values).

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/campaign/campaign.h"
#include "src/campaign/corpus.h"
#include "src/core/report.h"
#include "tools/flags.h"

namespace {

struct Args {
  uint64_t seed = 1;
  uint64_t scenarios = 200;
  int workers = 4;
  bool have_scenario = false;
  uint64_t scenario = 0;
  campaign::GeneratorMode mode = campaign::GeneratorMode::kDefault;
  // Every distinct plan flag given, in order; a run takes at most one.
  std::vector<std::string> plan_flags;
  bool guided = false;
  int batch_size = 16;
  std::string corpus_dir;
  bool replay_corpus = false;
  bool stop_on_violation = false;
  std::vector<uint64_t> mutation_chain;
  bool minimize = true;
  bool verbose = false;
  // Each value flag and switch given; FlagsCompatible names those the run
  // mode never reads, and refuses a value flag given two values.
  cli::GivenFlags given;
};

// Flags a run mode never reads. --scenario=K runs one scenario on the calling
// thread and always prints its full outcome; --replay-corpus runs every
// corpus entry in one batch, whatever the sweep size, under the entry's own
// recorded seed and plan mode (so it takes no plan flag either).
constexpr const char* kIgnoredByScenario[] = {"--scenarios", "--workers", "--batch",
                                              "--stop-on-violation", "--verbose"};
constexpr const char* kIgnoredByReplay[] = {"--seed", "--scenarios", "--batch",
                                            "--stop-on-violation"};

void Usage() {
  std::fprintf(stderr,
               "usage: hive_campaign [--seed=N] [--scenarios=N] [--workers=N]\n"
               "                     [--scenario=K] [--mutate=CHAIN]\n"
               "                     [--fixture=wild_write|no_dedup|no_hop_bound]\n"
               "                     [--faults=message|rogue|reboot-storm|none]\n"
               "                     [--bug=no_dedup|salvage_unchecked] [--salvage]\n"
               "                     [--guided] [--batch=N] [--corpus=DIR]\n"
               "                     [--replay-corpus] [--stop-on-violation]\n"
               "                     [--no-minimize] [--verbose]\n"
               "\n"
               "  --seed=N             campaign master seed (default: $HIVE_TEST_SEED or 1)\n"
               "  --scenarios=N        number of scenarios to sweep (default 200);\n"
               "                       0 is a usage error in sweep mode\n"
               "  --workers=N          worker threads (default 4)\n"
               "  --scenario=K         run only scenario K and print its outcome\n"
               "  --fixture=wild_write generate landing wild writes (firewall checking\n"
               "                       off); every scenario is expected to violate\n"
               "  --fixture=no_dedup   disable RPC duplicate suppression under a\n"
               "                       duplication-heavy message-fault plan; every\n"
               "                       scenario is expected to trip the at-most-once\n"
               "                       oracle\n"
               "  --fixture=no_hop_bound rogue cyclic-chain scenarios with the\n"
               "                       survivors' chain-chase hop bound removed; every\n"
               "                       scenario is expected to trip the\n"
               "                       no-survivor-hang oracle\n"
               "  --faults=message     restrict fault plans to SIPS message faults\n"
               "                       (drop/duplicate/delay/corrupt); the reliable\n"
               "                       transport must pass every oracle\n"
               "  --faults=rogue       restrict fault plans to one rogue-cell fault\n"
               "                       each (a live Byzantine cell); the survivors\n"
               "                       must excise the rogue and nobody else\n"
               "  --faults=reboot-storm restrict fault plans to one reboot-storm\n"
               "                       fault each (rotating kill/rejoin cycles with\n"
               "                       live rejoin and page salvage on); every rejoin\n"
               "                       must converge and every salvage stay clean\n"
               "  --faults=none        rogue-sweep geometry with zero faults; the\n"
               "                       sensitivity baseline must see zero excisions\n"
               "  --salvage            default fault plans with page salvage enabled;\n"
               "                       wild-write plans pre-stage a writable canary\n"
               "                       import so recovery has a page to salvage\n"
               "  --bug=no_dedup       seeded-bug discovery mode: duplicate\n"
               "                       suppression silently broken on one cell under\n"
               "                       default fault plans with thinned duplication;\n"
               "                       only a rare scenario exposes it\n"
               "  --bug=salvage_unchecked seeded-bug sensitivity mode: salvage with\n"
               "                       both adoption proofs disabled (blind adoption\n"
               "                       of a scribbled page); every scenario must trip\n"
               "                       the salvage oracles\n"
               "  --guided             coverage-guided mode: mutate coverage-novel\n"
               "                       corpus entries instead of only drawing fresh\n"
               "                       scenarios\n"
               "  --batch=N            scenarios per guided batch (1..1024, default 16)\n"
               "  --corpus=DIR         load corpus entries from DIR before the run and\n"
               "                       persist newly admitted entries into it\n"
               "  --replay-corpus      run exactly the corpus entries in --corpus=DIR\n"
               "                       (regression replay; no mutation, no admission),\n"
               "                       each under its own recorded seed and plan mode;\n"
               "                       a missing or empty DIR is a usage error\n"
               "  --stop-on-violation  stop at the first batch boundary after a\n"
               "                       violation and report its discovery cost\n"
               "  --mutate=CHAIN       with --scenario=K: apply this comma-separated\n"
               "                       mutation chain to the generated scenario (the\n"
               "                       self-contained repro form of a guided mutant)\n"
               "  --no-minimize        skip minimization of violating scenarios\n"
               "  --verbose            print a line per scenario\n"
               "\n"
               "Give at most one --fixture=, --faults=, --bug= or --salvage flag, and\n"
               "at most one of --scenario=K, --replay-corpus and --guided\n"
               "(--scenario=K takes no --corpus= either). --scenario=K takes none of\n"
               "--scenarios, --workers, --batch, --stop-on-violation and --verbose;\n"
               "--replay-corpus takes no plan flag and none of --seed, --scenarios,\n"
               "--batch and --stop-on-violation. Give each value flag one value. A\n"
               "conflict exits 2.\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  if (const char* env_seed = std::getenv("HIVE_TEST_SEED")) {
    if (!cli::ParseU64(env_seed, &args->seed)) {
      std::fprintf(stderr, "hive_campaign: bad HIVE_TEST_SEED '%s'\n", env_seed);
      return false;
    }
  }
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    uint64_t value = 0;
    if (std::strncmp(arg, "--seed=", 7) == 0 && cli::ParseU64(arg + 7, &value)) {
      args->seed = value;
      args->given.Note("--seed", std::to_string(value));
    } else if (std::strncmp(arg, "--scenarios=", 12) == 0 && cli::ParseU64(arg + 12, &value)) {
      args->scenarios = value;
      args->given.Note("--scenarios", std::to_string(value));
    } else if (std::strncmp(arg, "--workers=", 10) == 0 && cli::ParseU64(arg + 10, &value) &&
               value >= 1 && value <= 256) {
      args->workers = static_cast<int>(value);
      args->given.Note("--workers", std::to_string(value));
    } else if (std::strncmp(arg, "--scenario=", 11) == 0 && cli::ParseU64(arg + 11, &value)) {
      args->have_scenario = true;
      args->scenario = value;
      args->given.Note("--scenario", std::to_string(value));
    } else if (campaign::GeneratorModeFromFlag(arg, &args->mode)) {
      if (std::find(args->plan_flags.begin(), args->plan_flags.end(), arg) ==
          args->plan_flags.end()) {
        args->plan_flags.push_back(arg);
      }
    } else if (std::strcmp(arg, "--guided") == 0) {
      args->guided = true;
    } else if (std::strncmp(arg, "--batch=", 8) == 0 && cli::ParseU64(arg + 8, &value) &&
               value >= 1 && value <= 1024) {
      args->batch_size = static_cast<int>(value);
      args->given.Note("--batch", std::to_string(value));
    } else if (std::strncmp(arg, "--corpus=", 9) == 0 && arg[9] != '\0') {
      args->corpus_dir = arg + 9;
      args->given.Note("--corpus", args->corpus_dir);
    } else if (std::strcmp(arg, "--replay-corpus") == 0) {
      args->replay_corpus = true;
    } else if (std::strcmp(arg, "--stop-on-violation") == 0) {
      args->stop_on_violation = true;
      args->given.Note(arg, "");
    } else if (std::strncmp(arg, "--mutate=", 9) == 0 &&
               campaign::ParseMutationChain(arg + 9, &args->mutation_chain)) {
      // Chain applied in RunSingle; requires --scenario=K.
      args->given.Note("--mutate", arg + 9);
    } else if (std::strcmp(arg, "--no-minimize") == 0) {
      args->minimize = false;
    } else if (std::strcmp(arg, "--verbose") == 0) {
      args->verbose = true;
      args->given.Note(arg, "");
    } else {
      std::fprintf(stderr, "hive_campaign: bad argument '%s'\n", arg);
      return false;
    }
  }
  return true;
}

// A run honours one plan mode, one run mode (a sweep, --scenario=K,
// --replay-corpus or --guided) and one value per flag, and --scenario=K and
// --replay-corpus read no sweep flags. Anything else would be dropped without
// a word, and a printed command would name a run that did not happen.
// Returns false, after naming the flags, on any of these.
bool FlagsCompatible(const Args& args) {
  std::vector<std::string> run_flags;
  if (args.have_scenario) {
    run_flags.push_back("--scenario=" + std::to_string(args.scenario));
  }
  if (args.replay_corpus) {
    run_flags.push_back("--replay-corpus");
  }
  if (args.guided) {
    run_flags.push_back("--guided");
  }
  // On its own --corpus=DIR makes a sweep persist what it admits; a single
  // scenario admits nothing.
  if (args.have_scenario && run_flags.size() == 1 && !args.corpus_dir.empty()) {
    run_flags.push_back("--corpus=" + args.corpus_dir);
  }
  auto at_most_one = [](const char* kind, const std::vector<std::string>& flags) {
    if (flags.size() <= 1) {
      return true;
    }
    std::string given;
    for (const std::string& flag : flags) {
      given += " " + flag;
    }
    std::fprintf(stderr, "hive_campaign: conflicting %s flags (give at most one):%s\n", kind,
                 given.c_str());
    return false;
  };
  if (!at_most_one("plan", args.plan_flags) || !at_most_one("run-mode", run_flags)) {
    return false;
  }
  if (!args.given.conflict.empty()) {
    std::fprintf(stderr, "hive_campaign: flag given twice with different values: %s\n",
                 args.given.conflict.c_str());
    return false;
  }
  auto none_ignored = [&args](const std::string& mode, const auto& ignored,
                              const std::vector<std::string>& ignored_given) {
    std::string given;
    for (const char* name : ignored) {
      const auto it = args.given.values.find(name);
      if (it != args.given.values.end()) {
        given += " " + it->first + (it->second.empty() ? "" : "=" + it->second);
      }
    }
    for (const std::string& flag : ignored_given) {
      given += " " + flag;
    }
    if (given.empty()) {
      return true;
    }
    std::fprintf(stderr, "hive_campaign: %s ignores these flags (drop them):%s\n",
                 mode.c_str(), given.c_str());
    return false;
  };
  if (args.have_scenario) {
    return none_ignored("--scenario=" + std::to_string(args.scenario), kIgnoredByScenario, {});
  }
  return !args.replay_corpus ||
         none_ignored("--replay-corpus", kIgnoredByReplay, args.plan_flags);
}

int RunSingle(const Args& args) {
  const campaign::ScenarioSpec root =
      campaign::GenerateScenario(args.seed, args.scenario, args.mode);
  const campaign::ScenarioSpec spec =
      campaign::ApplyMutationChain(root, args.mutation_chain);
  std::printf("%s\n", spec.ToString().c_str());
  const campaign::ScenarioResult result = campaign::RunScenario(spec);
  std::printf("end_time=%" PRId64 "ms excisions=%d fingerprint=0x%016" PRIx64 "\n",
              result.end_time / hive::kMillisecond, result.excisions,
              result.fingerprint);
  if (!result.violated()) {
    std::printf("all oracles passed\n");
    return 0;
  }
  std::printf("%s", result.ViolationReport().c_str());
  if (args.minimize) {
    const campaign::MinimizationResult minimized =
        campaign::MinimizeScenario(spec);
    if (minimized.reduced) {
      std::printf("minimized (%d runs): %s\n", minimized.runs,
                  minimized.minimized.ToString().c_str());
    }
  }
  return 1;
}

int RunSweep(const Args& args) {
  campaign::CampaignOptions options;
  options.master_seed = args.seed;
  options.num_scenarios = args.scenarios;
  options.workers = args.workers;
  options.mode = args.mode;
  options.guided = args.guided;
  options.batch_size = args.batch_size;
  options.corpus_dir = args.corpus_dir;
  options.corpus_replay_only = args.replay_corpus;
  options.stop_on_violation = args.stop_on_violation;
  options.minimize = args.minimize;
  if (args.verbose) {
    options.on_result = [](const campaign::ScenarioResult& result) {
      std::printf("%s\n", result.Summary().c_str());
    };
  }
  std::string plan = campaign::GeneratorModeFlag(args.mode);
  if (!plan.empty()) {
    plan = " " + plan.substr(2);  // The flag without its leading "--".
  }
  std::printf("campaign: seed=%" PRIu64 " scenarios=%" PRIu64 " workers=%d%s%s\n",
              args.seed, args.scenarios, args.workers, plan.c_str(),
              args.guided ? " guided" : args.replay_corpus ? " replay" : "");
  const campaign::CampaignReport report = campaign::RunCampaign(options);
  std::printf("ran %" PRIu64 " scenarios, %" PRIu64 " faults landed, %" PRIu64
              " excision(s), %" PRIu64 " page(s) salvaged, %zu violation(s)\n",
              report.scenarios_run, report.faults_injected, report.excisions,
              report.pages_salvaged, report.failures.size());
  std::printf("coverage: %" PRIu64 " feature(s) hash=0x%016" PRIx64
              " merged-fingerprint=0x%016" PRIx64 "\n",
              report.coverage_features, report.coverage_hash,
              report.merged_fingerprint);
  if (!args.corpus_dir.empty() || args.guided) {
    std::printf("corpus: %" PRIu64 " entr%s (%" PRIu64 " loaded)\n",
                report.corpus_size, report.corpus_size == 1 ? "y" : "ies",
                report.corpus_loaded);
  }
  if (args.guided) {
    std::printf("draws: %" PRIu64 " fresh, %" PRIu64 " mutant(s)\n",
                report.fresh_run, report.mutants_run);
  }
  if (report.first_violation_order != 0) {
    std::printf("first violation at scenario %" PRIu64 "\n",
                report.first_violation_order);
  }
  for (const campaign::CampaignFailure& failure : report.failures) {
    std::printf("%s", failure.Report().c_str());
  }
  if (!report.buckets.empty()) {
    std::vector<hive::TriageBucketRow> rows;
    rows.reserve(report.buckets.size());
    for (const campaign::TriageBucket& bucket : report.buckets) {
      hive::TriageBucketRow row;
      row.oracle = bucket.oracle;
      row.trace_signature = bucket.trace_signature;
      row.count = bucket.count;
      row.repro = bucket.repro;
      row.minimized = args.minimize ? bucket.minimized : "";
      rows.push_back(row);
    }
    std::printf("%s", hive::RenderTriageBuckets(rows).c_str());
  }
  if (report.ok()) {
    std::printf("all containment oracles passed\n");
    return 0;
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  if (!FlagsCompatible(args)) {
    return 2;
  }
  if (!args.mutation_chain.empty() && !args.have_scenario) {
    std::fprintf(stderr, "hive_campaign: --mutate requires --scenario=K\n");
    return 2;
  }
  if (args.replay_corpus && args.corpus_dir.empty()) {
    std::fprintf(stderr, "hive_campaign: --replay-corpus requires --corpus=DIR\n");
    return 2;
  }
  // A sweep or a replay of nothing must not report "all containment oracles
  // passed".
  if (!args.have_scenario && !args.replay_corpus && args.scenarios == 0) {
    std::fprintf(stderr, "hive_campaign: --scenarios=0 sweeps nothing (give N >= 1)\n");
    return 2;
  }
  if (args.replay_corpus && campaign::LoadCorpusDir(args.corpus_dir).empty()) {
    std::fprintf(stderr,
                 "hive_campaign: --replay-corpus: no readable *.corpus entries in %s\n",
                 args.corpus_dir.c_str());
    return 2;
  }
  return args.have_scenario ? RunSingle(args) : RunSweep(args);
}
