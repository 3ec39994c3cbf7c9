#include "src/campaign/corpus.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/campaign/coverage.h"

namespace campaign {
namespace {

constexpr char kHeader[] = "hive-corpus-v1";

bool ParseU64(std::string_view text, uint64_t* out) {
  if (text.empty()) {
    return false;
  }
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      return false;
    }
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

}  // namespace

const char* GeneratorModeName(const GeneratorOptions& options) {
  if (options.bug_salvage_unchecked) {
    return "bug_salvage_unchecked";
  }
  if (options.wild_write_fixture) {
    return "wild_write";
  }
  if (options.reboot_storm_only) {
    return "reboot_storm";
  }
  if (options.salvage) {
    return "salvage";
  }
  if (options.no_dedup_fixture) {
    return "no_dedup";
  }
  if (options.bug_no_dedup) {
    return "bug_no_dedup";
  }
  if (options.no_hop_bound_fixture) {
    return "no_hop_bound";
  }
  if (options.rogue_only) {
    return "rogue";
  }
  if (options.healthy_baseline) {
    return "none";
  }
  if (options.message_faults_only) {
    return "message";
  }
  return "default";
}

bool GeneratorModeFromName(std::string_view name, GeneratorOptions* out) {
  *out = GeneratorOptions{};
  if (name == "default") {
    return true;
  }
  if (name == "wild_write") {
    out->wild_write_fixture = true;
    return true;
  }
  if (name == "no_dedup") {
    out->no_dedup_fixture = true;
    return true;
  }
  if (name == "bug_no_dedup") {
    out->bug_no_dedup = true;
    return true;
  }
  if (name == "no_hop_bound") {
    out->no_hop_bound_fixture = true;
    return true;
  }
  if (name == "rogue") {
    out->rogue_only = true;
    return true;
  }
  if (name == "none") {
    out->healthy_baseline = true;
    return true;
  }
  if (name == "message") {
    out->message_faults_only = true;
    return true;
  }
  if (name == "reboot_storm") {
    out->reboot_storm_only = true;
    return true;
  }
  if (name == "salvage") {
    out->salvage = true;
    return true;
  }
  if (name == "bug_salvage_unchecked") {
    out->bug_salvage_unchecked = true;
    return true;
  }
  return false;
}

GeneratorOptions OptionsFromSpec(const ScenarioSpec& spec) {
  GeneratorOptions options;
  if (spec.bug_salvage_unchecked) {
    // Before disable_firewall: the seeded salvage bug also turns checking off.
    options.bug_salvage_unchecked = true;
  } else if (spec.disable_firewall) {
    options.wild_write_fixture = true;
  } else if (spec.reboot_storm_only) {
    options.reboot_storm_only = true;
  } else if (spec.bug_no_dedup) {
    options.bug_no_dedup = true;
  } else if (spec.message_faults_only && spec.disable_rpc_dedup) {
    options.no_dedup_fixture = true;
  } else if (spec.disable_hop_bound) {
    options.no_hop_bound_fixture = true;
  } else if (spec.rogue_only) {
    options.rogue_only = true;
  } else if (spec.healthy_baseline) {
    options.healthy_baseline = true;
  } else if (spec.message_faults_only) {
    options.message_faults_only = true;
  }
  // Orthogonal to the plan distribution: the salvage sweep runs default
  // plans with salvage on. Storm and seeded-bug modes imply it themselves.
  if (spec.salvage && !options.reboot_storm_only && !options.bug_salvage_unchecked) {
    options.salvage = true;
  }
  return options;
}

ScenarioSpec RegenerateScenario(const CorpusEntry& entry) {
  const ScenarioSpec root =
      GenerateScenario(entry.master_seed, entry.index, entry.options);
  return ApplyMutationChain(root, entry.mutation_chain);
}

std::string SerializeCorpusEntry(const CorpusEntry& entry) {
  std::ostringstream out;
  out << kHeader << "\n";
  out << "master_seed=" << entry.master_seed << "\n";
  out << "index=" << entry.index << "\n";
  out << "mode=" << GeneratorModeName(entry.options) << "\n";
  if (!entry.mutation_chain.empty()) {
    out << "mutations=" << FormatMutationChain(entry.mutation_chain) << "\n";
  }
  return out.str();
}

bool ParseCorpusEntry(std::string_view text, CorpusEntry* out) {
  *out = CorpusEntry{};
  bool saw_header = false;
  bool saw_seed = false;
  bool saw_index = false;
  bool saw_mode = false;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) {
      end = text.size();
    }
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty()) {
      continue;
    }
    if (!saw_header) {
      if (line != kHeader) {
        return false;
      }
      saw_header = true;
      continue;
    }
    const size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return false;
    }
    const std::string_view key = line.substr(0, eq);
    const std::string_view value = line.substr(eq + 1);
    if (key == "master_seed") {
      saw_seed = ParseU64(value, &out->master_seed);
      if (!saw_seed) {
        return false;
      }
    } else if (key == "index") {
      saw_index = ParseU64(value, &out->index);
      if (!saw_index) {
        return false;
      }
    } else if (key == "mode") {
      saw_mode = GeneratorModeFromName(value, &out->options);
      if (!saw_mode) {
        return false;
      }
    } else if (key == "mutations") {
      if (!ParseMutationChain(value, &out->mutation_chain)) {
        return false;
      }
    }
    // Unknown keys: tolerated for forward compatibility.
  }
  return saw_header && saw_seed && saw_index && saw_mode;
}

std::string CorpusEntryFileName(const CorpusEntry& entry) {
  // Content-addressed: FNV-1a over the serialized text.
  const uint64_t hash = FnvMixString(kFnvOffsetBasis, SerializeCorpusEntry(entry));
  char name[40];
  std::snprintf(name, sizeof(name), "entry-%016llx.corpus",
                static_cast<unsigned long long>(hash));
  return name;
}

bool SaveCorpusEntry(const std::string& dir, const CorpusEntry& entry) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return false;
  }
  const std::filesystem::path path =
      std::filesystem::path(dir) / CorpusEntryFileName(entry);
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return false;
  }
  out << SerializeCorpusEntry(entry);
  return static_cast<bool>(out);
}

std::vector<CorpusEntry> LoadCorpusDir(const std::string& dir) {
  std::vector<CorpusEntry> entries;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    return entries;  // Missing or unreadable directory: empty corpus.
  }
  std::vector<std::filesystem::path> files;
  for (const std::filesystem::directory_entry& file : it) {
    if (file.path().extension() == ".corpus") {
      files.push_back(file.path());
    }
  }
  // Names are content hashes, so this order is stable across machines and
  // independent of directory enumeration order.
  std::sort(files.begin(), files.end());
  for (const std::filesystem::path& path : files) {
    std::ifstream in(path);
    if (!in) {
      continue;
    }
    std::ostringstream text;
    text << in.rdbuf();
    CorpusEntry entry;
    if (ParseCorpusEntry(text.str(), &entry)) {
      entries.push_back(entry);
    }
  }
  return entries;
}

}  // namespace campaign
