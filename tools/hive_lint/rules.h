// hive_lint rule framework (pass 2 of 2).
//
// Every rule is a free function over the RuleContext: the tokenized files
// plus the whole-program index built in pass 1. Rules append Diagnostics;
// the driver applies suppressions, sorts, and renders (text or JSON).
//
// Rule lifecycle (see DESIGN.md "Verification layers"):
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

#include "tools/hive_lint/index.h"
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
  const ProgramIndex* index = nullptr;
  std::vector<Diagnostic>* diags = nullptr;
};

struct RuleInfo {
  const char* id;     // "R1" ... "R12".
  const char* title;  // One-line summary for --help / --stats.
  void (*fn)(const RuleContext&);
};

// Registered rules in id order. R0 (suppression hygiene) is not listed: it
// is emitted by ParseSuppressions while the driver collects suppressions.
const std::vector<RuleInfo>& AllRules();

// Parses `hive-lint: allow(Rn): justification` comments; emits R0
// diagnostics for malformed or unjustified markers.
std::vector<Suppression> ParseSuppressions(const SourceFile& file,
                                           std::vector<Diagnostic>* diags);

}  // namespace lint

#endif  // HIVE_TOOLS_HIVE_LINT_RULES_H_
