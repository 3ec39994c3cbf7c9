// Unit tests for hive_lint's R10 (determinism purity): it runs on in-memory
// files and each case asserts the exact lines it flags. The unordered names
// come from every file, so a header member iterated in its .cc is caught,
// and constructors and functions nothing calls are scanned too.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "tools/hive_lint/lexer.h"
#include "tools/hive_lint/rules.h"

namespace lint {
namespace {

class R10Test : public ::testing::Test {
 protected:
  void AddFile(const std::string& rel_path, const std::string& text) {
    SourceFile file;
    file.rel_path = rel_path;
    Tokenize(text, &file);
    files_.push_back(std::move(file));
  }

  // Runs R10 over every added file; returns "path:line" per diagnostic.
  std::vector<std::string> Flagged() {
    std::vector<Diagnostic> diags;
    for (const RuleInfo& rule : AllRules()) {
      if (std::string(rule.id) == "R10") {
        rule.fn(RuleContext{&files_, &diags});
      }
    }
    std::vector<std::string> out;
    for (const Diagnostic& diag : diags) {
      out.push_back(diag.rel_path + ":" + std::to_string(diag.line));
    }
    return out;
  }

  std::vector<SourceFile> files_;
};

using Lines = std::vector<std::string>;

TEST_F(R10Test, HeaderMemberIteratedInItsCcIsFlagged) {
  AddFile("src/core/widget.h",
          "#include <unordered_map>\n"
          "class Widget {\n"
          "  int Sum() const;\n"
          "  std::unordered_map<int, int> counts_;\n"
          "};\n");
  AddFile("src/core/widget.cc",
          "int Widget::Sum() const {\n"
          "  int s = 0;\n"
          "  for (const auto& [k, v] : counts_) { s += v; }\n"
          "  return s;\n"
          "}\n");
  EXPECT_EQ(Flagged(), (Lines{"src/core/widget.cc:3"}));
}

TEST_F(R10Test, OrderedMapAndRangeOverCallAreNotFlagged) {
  AddFile("src/core/c.cc",
          "#include <map>\n"
          "struct T {\n"
          "  std::map<int, int> ordered_;\n"
          "  std::unordered_map<int, int> counts_;\n"
          "  int Sum() {\n"
          "    int s = 0;\n"
          "    for (const auto& [k, v] : ordered_) { s += v; }\n"
          "    for (int k : SortedKeys(counts_)) { s += k; }\n"
          "    for (int i = 0; i < 3; ++i) { s += i; }\n"
          "    return s;\n"
          "  }\n"
          "};\n");
  EXPECT_EQ(Flagged(), Lines{});
}

TEST_F(R10Test, PointerKeyedMapIsFlaggedAtItsDeclaration) {
  AddFile("src/core/p.h",
          "#include <map>\n"
          "struct P {\n"
          "  std::map<int, int*> by_id_;\n"
          "  std::map<const Process*, int> by_addr_;\n"
          "  std::set<Cell*> cells_;\n"
          "};\n");
  EXPECT_EQ(Flagged(), (Lines{"src/core/p.h:4", "src/core/p.h:5"}));
}

TEST_F(R10Test, ConstructorEntropyAndUncalledClockReadAreFlagged) {
  AddFile("src/core/cell.cc",
          "namespace hive {\n"
          "Cell::Cell(int id) : id_(id) {\n"
          "  std::random_device entropy;\n"
          "  rogue_garbage_state_ = entropy();\n"
          "}\n"
          "uint64_t NothingCallsThis() {\n"
          "  return std::chrono::steady_clock::now().time_since_epoch().count();\n"
          "}\n"
          "}  // namespace hive\n");
  EXPECT_EQ(Flagged(), (Lines{"src/core/cell.cc:3", "src/core/cell.cc:7"}));
}

TEST_F(R10Test, ClockReadInTestsIsNotFlagged) {
  AddFile("tests/timing_test.cc",
          "uint64_t NothingCallsThis() {\n"
          "  return std::chrono::steady_clock::now().time_since_epoch().count();\n"
          "}\n");
  EXPECT_EQ(Flagged(), Lines{});
}

}  // namespace
}  // namespace lint
