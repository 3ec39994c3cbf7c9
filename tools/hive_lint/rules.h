// hive_lint rule framework.
//
// Every rule is a free function over the RuleContext: the tokenized files.
// Rules pattern-match tokens and append Diagnostics; hive_lint.cc applies
// suppressions, sorts, and renders (text or JSON).
//
// Rule lifecycle (see DESIGN.md "Verification layers"):
//   0. when the compiler can make the check exactly, make it there instead:
//      an error flag in the root CMakeLists.txt's HIVE_ERROR_FLAGS or a type
//      (a [[nodiscard]] return, an enum switch, a static_assert), plus a
//      seeded case in tests/compile_fixtures/ that must fail to compile --
//      not a rule;
//   1. add the rule function and register it in AllRules() with an id and a
//      one-line title (the id is what suppressions and the baseline name);
//   2. add a bad/good fixture pair under tests/lint_fixtures/ and a
//      hive_lint_fixture_<id> ctest entry proving the bad twin trips
//      exactly this rule and the good twin stays silent;
//   3. run the tool on the real tree: fix or justify (allow(<id>)) every
//      hit, leaving ci/lint_baseline.json empty;
//   4. document the rule in the README table.

#ifndef HIVE_TOOLS_HIVE_LINT_RULES_H_
#define HIVE_TOOLS_HIVE_LINT_RULES_H_

#include <string>
#include <vector>

#include "tools/hive_lint/lexer.h"

namespace lint {

struct Diagnostic {
  std::string rel_path;
  int line;
  std::string rule;
  std::string message;
};

struct Suppression {
  std::string rule;
  int line;
};

struct RuleContext {
  const std::vector<SourceFile>* files = nullptr;
  std::vector<Diagnostic>* diags = nullptr;
};

struct RuleInfo {
  const char* id;     // "R1" ... "R12"; retired ids are not reused.
  const char* title;  // One-line summary for --help / --stats.
  void (*fn)(const RuleContext&);
};

// Registered rules in id order. R0 (suppression hygiene) is not listed: it
// is emitted by ParseSuppressions while hive_lint.cc collects suppressions,
// and by hive_lint.cc for a marker that suppresses nothing.
const std::vector<RuleInfo>& AllRules();

// Parses `hive-lint: allow(Rn): justification` comments; emits R0
// diagnostics for malformed or unjustified markers.
std::vector<Suppression> ParseSuppressions(const SourceFile& file,
                                           std::vector<Diagnostic>* diags);

}  // namespace lint

#endif  // HIVE_TOOLS_HIVE_LINT_RULES_H_
