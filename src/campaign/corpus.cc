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

CorpusEntry CorpusEntryFromSpec(const ScenarioSpec& spec) {
  CorpusEntry entry;
  entry.master_seed = spec.master_seed;
  entry.index = spec.index;
  entry.mode = spec.mode;
  entry.mutation_chain = spec.mutation_chain;
  return entry;
}

ScenarioSpec RegenerateScenario(const CorpusEntry& entry) {
  const ScenarioSpec root = GenerateScenario(entry.master_seed, entry.index, entry.mode);
  return ApplyMutationChain(root, entry.mutation_chain);
}

std::string SerializeCorpusEntry(const CorpusEntry& entry) {
  std::ostringstream out;
  out << kHeader << "\n";
  out << "master_seed=" << entry.master_seed << "\n";
  out << "index=" << entry.index << "\n";
  out << "mode=" << GeneratorModeName(entry.mode) << "\n";
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
      saw_mode = GeneratorModeFromName(value, &out->mode);
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
