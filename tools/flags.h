// Command-line helpers shared by hive_campaign, hive_serve and hive_bench.

#ifndef HIVE_TOOLS_FLAGS_H_
#define HIVE_TOOLS_FLAGS_H_

#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>

namespace cli {

// Parses all of `text` as an unsigned integer (decimal, 0x hex or 0 octal).
inline bool ParseU64(const char* text, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 0);
  if (end == text || *end != '\0') {
    return false;
  }
  *out = value;
  return true;
}

// The flags a run was given, by name, with their values ("" for a switch).
// A value flag given again with a different value is a conflict the tool
// refuses, naming both, rather than letting the last one silently win.
struct GivenFlags {
  std::map<std::string, std::string> values;
  std::string conflict;  // The first "--flag=A --flag=B"; empty if none.

  void Note(const std::string& name, const std::string& value) {
    const auto [it, inserted] = values.emplace(name, value);
    if (!inserted && it->second != value && conflict.empty()) {
      conflict = name + "=" + it->second + " " + name + "=" + value;
    }
  }
};

}  // namespace cli

#endif  // HIVE_TOOLS_FLAGS_H_
