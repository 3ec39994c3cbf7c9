// Unit tests for the hive_lint whole-program index (pass 1): function
// definition discovery, cross-TU call-edge resolution, overload bucketing,
// container facts, and the Status-return classification R9 builds on.

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "tools/hive_lint/index.h"
#include "tools/hive_lint/lexer.h"

namespace lint {
namespace {

class IndexTest : public ::testing::Test {
 protected:
  // Tokenizes and indexes one pseudo-file; keeps it alive for body scans.
  void AddFile(const std::string& rel_path, const std::string& text) {
    auto file = std::make_unique<SourceFile>();
    file->rel_path = rel_path;
    Tokenize(text, file.get());
    IndexFile(*file, &index_);
    files_.push_back(std::move(file));
  }

  const FunctionDef* Only(const std::string& name) {
    const std::vector<FunctionDef*> defs = index_.Resolve(name);
    return defs.size() == 1 ? defs[0] : nullptr;
  }

  ProgramIndex index_;
  std::vector<std::unique_ptr<SourceFile>> files_;
};

TEST_F(IndexTest, FindsDefinitionsAndQualifiedNames) {
  AddFile("src/core/a.cc",
          "namespace hive {\n"
          "class Widget {\n"
          " public:\n"
          "  int Size() const { return 1; }\n"
          "};\n"
          "int Widget2::Grow(int by) { return by; }\n"
          "}  // namespace hive\n");
  const FunctionDef* size = Only("Size");
  ASSERT_NE(size, nullptr);
  EXPECT_EQ(size->qualified, "hive::Widget::Size");
  EXPECT_EQ(size->file, "src/core/a.cc");
  const FunctionDef* grow = Only("Grow");
  ASSERT_NE(grow, nullptr);
  EXPECT_EQ(grow->qualified, "hive::Widget2::Grow");
}

TEST_F(IndexTest, CrossTuCallEdgesResolve) {
  AddFile("src/core/caller.cc",
          "namespace hive {\n"
          "void Callee();\n"
          "void Caller() { Callee(); }\n"
          "}\n");
  AddFile("src/core/callee.cc",
          "namespace hive {\n"
          "void Callee() { }\n"
          "}\n");
  const FunctionDef* caller = Only("Caller");
  ASSERT_NE(caller, nullptr);
  ASSERT_EQ(caller->calls.size(), 1u);
  EXPECT_EQ(caller->calls[0].callee, "Callee");
  // Reachability crosses the TU boundary.
  std::set<const FunctionDef*> reach = index_.ReachableFrom({"Caller"});
  EXPECT_EQ(reach.size(), 2u);
  EXPECT_TRUE(reach.count(Only("Callee")) == 1);
}

TEST_F(IndexTest, OverloadsShareOneBucket) {
  AddFile("src/core/o1.cc", "int Parse(int x) { return x; }\n");
  AddFile("src/core/o2.cc", "double Parse(double x) { return x; }\n");
  EXPECT_EQ(index_.Resolve("Parse").size(), 2u);
  // A caller of Parse reaches both candidates (deliberate over-approximation).
  AddFile("src/core/o3.cc", "void UseParse() { Parse(1); }\n");
  EXPECT_EQ(index_.ReachableFrom({"UseParse"}).size(), 3u);
}

TEST_F(IndexTest, StatusReturnClassification) {
  AddFile("src/core/s.cc",
          "namespace hive {\n"
          "base::Status Recover(int n);\n"
          "base::Result<int> Count();\n"
          "void Helper();\n"
          "int Read(int addr) { return addr; }\n"
          "base::Status Read(double addr);\n"  // Overload with another type.
          "}\n");
  EXPECT_EQ(index_.status_returning.count("Recover"), 1u);
  EXPECT_EQ(index_.status_returning.count("Count"), 1u);
  EXPECT_EQ(index_.status_returning.count("Helper"), 0u);
  // "Read" is seen with both Status and non-Status returns: ambiguous, so R9
  // must not flag it.
  EXPECT_EQ(index_.status_returning.count("Read"), 1u);
  EXPECT_EQ(index_.status_ambiguous.count("Read"), 1u);
  EXPECT_EQ(index_.status_ambiguous.count("Recover"), 0u);
}

TEST_F(IndexTest, ContainerAndRangeForFacts) {
  AddFile("src/core/c.cc",
          "#include <map>\n#include <unordered_map>\n"
          "struct T {\n"
          "  std::unordered_map<int, int> counts_;\n"
          "  std::map<int*, int> by_addr_;\n"
          "  std::map<int, int> ordered_;\n"
          "  int Sum() {\n"
          "    int s = 0;\n"
          "    for (const auto& [k, v] : counts_) { s += v; }\n"
          "    for (const auto& [k, v] : ordered_) { s += v; }\n"
          "    return s;\n"
          "  }\n"
          "};\n");
  EXPECT_EQ(index_.unordered_containers.count("counts_"), 1u);
  EXPECT_EQ(index_.unordered_containers.count("ordered_"), 0u);
  ASSERT_EQ(index_.ptr_keyed_ordered.size(), 1u);
  EXPECT_EQ(index_.ptr_keyed_ordered[0].name, "by_addr_");
  const FunctionDef* sum = Only("Sum");
  ASSERT_NE(sum, nullptr);
  ASSERT_EQ(sum->range_fors.size(), 2u);
  EXPECT_EQ(sum->range_fors[0].range_ident, "counts_");
  EXPECT_FALSE(sum->range_fors[0].calls_range);
}

TEST_F(IndexTest, RangeOverCallIsMarked) {
  AddFile("src/core/rc.cc",
          "void Visit() {\n"
          "  for (int* p : AllProcesses()) { (void)p; }\n"
          "}\n");
  const FunctionDef* visit = Only("Visit");
  ASSERT_NE(visit, nullptr);
  ASSERT_EQ(visit->range_fors.size(), 1u);
  EXPECT_EQ(visit->range_fors[0].range_ident, "AllProcesses");
  EXPECT_TRUE(visit->range_fors[0].calls_range);
}

TEST_F(IndexTest, StructNamesRegistered) {
  AddFile("src/core/t.cc",
          "struct RemoteThing { int x; };\n"
          "struct Forward;\n"
          "class LocalThing { };\n");
  EXPECT_EQ(index_.struct_names.count("RemoteThing"), 1u);
  EXPECT_EQ(index_.struct_names.count("LocalThing"), 1u);
  // Forward declarations do not define a layout; they are not registered.
  EXPECT_EQ(index_.struct_names.count("Forward"), 0u);
}

TEST_F(IndexTest, ConstructorInitListsParse) {
  // A ctor with both paren and brace initializers must still be recognized
  // so its body's calls land in the graph.
  AddFile("src/core/ctor.cc",
          "namespace hive {\n"
          "Widget::Widget(int n) : size_(n), items_{n} { Setup(); }\n"
          "}\n");
  const FunctionDef* ctor = Only("Widget");
  ASSERT_NE(ctor, nullptr);
  ASSERT_EQ(ctor->calls.size(), 1u);
  EXPECT_EQ(ctor->calls[0].callee, "Setup");
}

}  // namespace
}  // namespace lint
