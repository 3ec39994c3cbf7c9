// hive_lint v2 driver.
//
// Pass 1: tokenize every .h/.cc under <root>/{src,tests,bench} (skipping
// tests/lint_fixtures, which holds deliberate violations) and build the
// whole-program index. Pass 2: run the registered rules (R1-R7 and R9-R12;
// R0 falls out of suppression parsing), apply `hive-lint: allow(Rn): why`
// markers (same line or the line above; R0, R3 and R12 are unsuppressible),
// sort, render.
//
//   hive_lint [--root <dir>] [--format=text|json] [--stats] [--verbose]
//
// Exit codes: 0 clean, 1 diagnostics remain, 2 usage/IO error. JSON output
// (schema "hive-lint-v2") always embeds the stats block so CI can assert the
// time budget from the same artifact it diffs against the baseline.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "tools/hive_lint/index.h"
#include "tools/hive_lint/lexer.h"
#include "tools/hive_lint/rules.h"

namespace lint {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

struct RuleStat {
  std::string id;
  std::string title;
  double ms = 0.0;
  size_t raw_diags = 0;  // Before suppression.
};

struct RunStats {
  size_t files = 0;
  size_t tokens = 0;
  size_t functions = 0;
  size_t suppressions = 0;
  double read_ms = 0.0;   // Read + tokenize + suppression parse.
  double index_ms = 0.0;  // Pass 1.
  std::vector<RuleStat> rules;
  double total_ms = 0.0;
};

bool ReadFile(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

// Collects the files to scan, sorted for deterministic output.
std::vector<fs::path> CollectFiles(const fs::path& root) {
  std::vector<fs::path> files;
  for (const char* top : {"src", "tests", "bench"}) {
    const fs::path dir = root / top;
    if (!fs::exists(dir)) {
      continue;
    }
    for (auto it = fs::recursive_directory_iterator(dir);
         it != fs::recursive_directory_iterator(); ++it) {
      if (it->is_directory() && it->path().filename() == "lint_fixtures") {
        it.disable_recursion_pending();  // Deliberate violations live there.
        continue;
      }
      if (!it->is_regular_file()) {
        continue;
      }
      const std::string ext = it->path().extension().string();
      if (ext == ".cc" || ext == ".h") {
        files.push_back(it->path());
      }
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

bool DiagLess(const Diagnostic& a, const Diagnostic& b) {
  if (a.rel_path != b.rel_path) {
    return a.rel_path < b.rel_path;
  }
  if (a.line != b.line) {
    return a.line < b.line;
  }
  if (a.rule != b.rule) {
    return a.rule < b.rule;
  }
  return a.message < b.message;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void PrintJson(const std::vector<Diagnostic>& diags, const RunStats& stats,
               const std::string& root) {
  std::ostringstream out;
  out << "{\n  \"schema\": \"hive-lint-v2\",\n";
  out << "  \"root\": \"" << JsonEscape(root) << "\",\n";
  out << "  \"diagnostics\": [";
  for (size_t i = 0; i < diags.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"file\": \"" << JsonEscape(diags[i].rel_path)
        << "\", \"line\": " << diags[i].line << ", \"rule\": \""
        << JsonEscape(diags[i].rule) << "\", \"message\": \""
        << JsonEscape(diags[i].message) << "\"}";
  }
  out << (diags.empty() ? "],\n" : "\n  ],\n");
  out << "  \"stats\": {\n";
  out << "    \"files\": " << stats.files << ",\n";
  out << "    \"tokens\": " << stats.tokens << ",\n";
  out << "    \"functions\": " << stats.functions << ",\n";
  out << "    \"suppressions\": " << stats.suppressions << ",\n";
  out << "    \"read_ms\": " << stats.read_ms << ",\n";
  out << "    \"index_ms\": " << stats.index_ms << ",\n";
  out << "    \"rules\": [";
  for (size_t i = 0; i < stats.rules.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n");
    out << "      {\"id\": \"" << stats.rules[i].id << "\", \"ms\": "
        << stats.rules[i].ms << ", \"diagnostics\": " << stats.rules[i].raw_diags
        << "}";
  }
  out << (stats.rules.empty() ? "],\n" : "\n    ],\n");
  out << "    \"total_ms\": " << stats.total_ms << "\n  }\n}\n";
  std::cout << out.str();
}

void PrintStatsText(const RunStats& stats) {
  std::fprintf(stderr,
               "hive_lint: %zu files, %zu tokens, %zu functions, %zu suppressions\n",
               stats.files, stats.tokens, stats.functions, stats.suppressions);
  std::fprintf(stderr, "  read+tokenize %8.2f ms\n", stats.read_ms);
  std::fprintf(stderr, "  index         %8.2f ms\n", stats.index_ms);
  for (const RuleStat& r : stats.rules) {
    std::fprintf(stderr, "  %-4s          %8.2f ms  %4zu diag(s)  %s\n", r.id.c_str(),
                 r.ms, r.raw_diags, r.title.c_str());
  }
  std::fprintf(stderr, "  total         %8.2f ms\n", stats.total_ms);
}

int Run(const std::string& root_arg, const std::string& format, bool stats_flag,
        bool verbose) {
  const auto t0 = Clock::now();
  const fs::path root(root_arg);
  if (!fs::exists(root)) {
    std::cerr << "hive_lint: root does not exist: " << root_arg << "\n";
    return 2;
  }
  RunStats stats;
  std::vector<SourceFile> files;
  std::vector<Diagnostic> diags;
  std::vector<std::pair<std::string, Suppression>> sups;  // (rel_path, marker).

  const auto t_read = Clock::now();
  for (const fs::path& path : CollectFiles(root)) {
    std::string text;
    if (!ReadFile(path, &text)) {
      std::cerr << "hive_lint: cannot read " << path << "\n";
      return 2;
    }
    SourceFile file;
    file.rel_path = fs::relative(path, root).generic_string();
    Tokenize(text, &file);
    stats.tokens += file.tokens.size();
    files.push_back(std::move(file));
  }
  stats.files = files.size();
  for (const SourceFile& file : files) {
    for (const Suppression& sup : ParseSuppressions(file, &diags)) {
      sups.emplace_back(file.rel_path, sup);
    }
  }
  stats.suppressions = sups.size();
  stats.read_ms = MsSince(t_read);

  const auto t_index = Clock::now();
  ProgramIndex index;
  for (const SourceFile& file : files) {
    IndexFile(file, &index);
  }
  stats.functions = index.functions.size();
  stats.index_ms = MsSince(t_index);

  RuleContext ctx{&files, &index, &diags};
  for (const RuleInfo& rule : AllRules()) {
    const auto t_rule = Clock::now();
    const size_t before = diags.size();
    rule.fn(ctx);
    stats.rules.push_back({rule.id, rule.title, MsSince(t_rule), diags.size() - before});
  }

  // Apply suppressions: same file, same rule, marker on the diagnostic's
  // line or the line above. R0 (suppression hygiene), R3 (trap caught
  // outside CaptureTrap) and R12 (hand-written bus-error panics) are
  // unsuppressible.
  std::vector<Diagnostic> active;
  size_t suppressed = 0;
  for (const Diagnostic& diag : diags) {
    bool keep = true;
    if (diag.rule != "R0" && diag.rule != "R3" && diag.rule != "R12") {
      for (const auto& [rel_path, sup] : sups) {
        if (rel_path == diag.rel_path && sup.rule == diag.rule &&
            (sup.line == diag.line || sup.line == diag.line - 1)) {
          keep = false;
          ++suppressed;
          break;
        }
      }
    }
    if (keep) {
      active.push_back(diag);
    }
  }
  std::sort(active.begin(), active.end(), DiagLess);
  stats.total_ms = MsSince(t0);

  if (format == "json") {
    PrintJson(active, stats, root_arg);
  } else {
    for (const Diagnostic& diag : active) {
      std::cout << diag.rel_path << ":" << diag.line << ": [" << diag.rule << "] "
                << diag.message << "\n";
    }
    if (verbose || !active.empty()) {
      std::cout << "hive_lint: " << active.size() << " diagnostic(s), " << suppressed
                << " suppressed, " << stats.files << " file(s) scanned\n";
    }
  }
  if (stats_flag && format != "json") {
    PrintStatsText(stats);
  }
  return active.empty() ? 0 : 1;
}

int Usage(int code) {
  std::cout <<
      "usage: hive_lint [--root <dir>] [--format=text|json] [--stats] [--verbose]\n"
      "\n"
      "Whole-program lint for the Hive fault-containment discipline.\n"
      "Scans <root>/{src,tests,bench} (skipping tests/lint_fixtures).\n"
      "\n"
      "Rules:\n"
      "  R0   suppression hygiene: allow(Rn) markers must carry a justification\n";
  for (const RuleInfo& rule : AllRules()) {
    std::cout << "  " << rule.id << (std::string(rule.id).size() < 3 ? "   " : "  ")
              << rule.title << "\n";
  }
  std::cout <<
      "\n"
      "Suppress with '// hive-lint: allow(Rn): <justification>' on the flagged\n"
      "line or the line above. Exit: 0 clean, 1 diagnostics, 2 usage/IO error.\n";
  return code;
}

}  // namespace
}  // namespace lint

int main(int argc, char** argv) {
  std::string root = ".";
  std::string format = "text";
  bool stats = false;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg.rfind("--root=", 0) == 0) {
      root = arg.substr(7);
    } else if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
      if (format != "text" && format != "json") {
        std::cerr << "hive_lint: unknown format '" << format << "'\n";
        return 2;
      }
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--verbose" || arg == "-v") {
      verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      return lint::Usage(0);
    } else {
      std::cerr << "hive_lint: unknown argument '" << arg << "'\n";
      return lint::Usage(2);
    }
  }
  return lint::Run(root, format, stats, verbose);
}
