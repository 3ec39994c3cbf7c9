// hive_lint whole-program index (pass 1 of 2).
//
// A single sweep over every tokenized file builds the program model the
// whole-program rules (R8-R11) consume:
//   - function definitions (qualified name, body token range, return kind)
//     and Status/Result-returning declarations;
//   - call edges: identifier-followed-by-'(' sites inside each body,
//     resolved by simple name (all same-named definitions are linked, which
//     over-approximates overloads -- the right bias for a linter);
//   - lock acquisition sites (std::lock_guard / unique_lock / scoped_lock /
//     explicit .lock()) with the token index where the guard's scope closes,
//     plus seqlock read sites (CarefulRef::ReadSeqlocked);
//   - container determinism facts: names declared as std::unordered_map/
//     unordered_set (members or locals) and pointer-keyed ordered
//     containers, plus every range-for site with the identifier it iterates;
//   - struct definitions, so rules can recognize the tagged remote
//     structures (Remote*) by name.
//
// There is no libclang here: the "parser" is a brace/paren-matching token
// scanner. It is documented heuristic by heuristic and unit-tested in
// tests/lint_index_test.cc; soundness is traded for zero dependencies and a
// sub-second full-tree pass.

#ifndef HIVE_TOOLS_HIVE_LINT_INDEX_H_
#define HIVE_TOOLS_HIVE_LINT_INDEX_H_

#include <cstddef>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "tools/hive_lint/lexer.h"

namespace lint {

// One identifier-followed-by-'(' site inside a function body. `callee` is
// the last identifier of the (possibly qualified / member) callee chain.
struct CallSite {
  std::string callee;
  int line = 0;
  size_t tok = 0;  // Token index of the callee identifier.
};

// One lock acquisition site. A std::scoped_lock(a, b) contributes one site
// with two keys (those locks are acquired deadlock-free as a unit, so no
// order edge is drawn between keys of the same site).
struct LockSite {
  std::vector<std::string> keys;  // Canonical lock names, e.g. "mu_" or "state.mutex".
  int line = 0;
  size_t tok = 0;        // Token index of the acquisition.
  size_t scope_end = 0;  // Token index of the '}' closing the guard's scope
                         // (body end for explicit .lock()).
};

// One range-based for site: `for (decl : range)`. `range_ident` is the last
// identifier of the range expression ("faults" for state->spec->faults).
struct RangeForSite {
  std::string range_ident;
  bool calls_range = false;  // Range expression ends in a call: `Foo()`.
  int line = 0;
};

struct FunctionDef {
  std::string name;       // Simple name: "RunScenario", "KillProcess".
  std::string qualified;  // Scope-qualified: "campaign::RunScenario".
  std::string file;       // rel_path of the defining file.
  int line = 0;
  size_t body_begin = 0;  // Token index of the body '{'.
  size_t body_end = 0;    // Token index of the matching '}'.
  bool returns_status = false;  // base::Status
  bool returns_result = false;  // base::Result<T> / StatusOr
  std::vector<CallSite> calls;
  std::vector<LockSite> locks;
  std::vector<CallSite> seqlock_reads;
  std::vector<RangeForSite> range_fors;
};

struct ProgramIndex {
  std::vector<std::unique_ptr<FunctionDef>> functions;
  // Simple name -> every definition with that name (cross-TU; overloads and
  // same-named methods of different classes all land in one bucket).
  std::map<std::string, std::vector<FunctionDef*>> by_name;
  // Simple names known (from a definition or declaration, any TU) to return
  // base::Status, and names for which *every* sighting returns Status /
  // Result -- the unambiguous set R9 flags on.
  std::set<std::string> status_returning;
  std::set<std::string> status_ambiguous;  // Also seen with another return type.
  // Names (members or locals) declared with an iteration-order-unstable
  // container type. Name-keyed across TUs: an over-approximation when two
  // classes share a member name, which only widens R10's net.
  std::set<std::string> unordered_containers;
  // Declaration sites of pointer-keyed std::map/std::set (address-ordered
  // iteration): file, line, declared name.
  struct PtrKeyedDecl {
    std::string file;
    int line;
    std::string name;
  };
  std::vector<PtrKeyedDecl> ptr_keyed_ordered;
  // Struct/class names defined anywhere in the scanned tree.
  std::set<std::string> struct_names;

  std::vector<FunctionDef*> Resolve(const std::string& name) const;
  // Definitions reachable from any root name via call edges (roots included).
  std::set<const FunctionDef*> ReachableFrom(const std::vector<std::string>& roots) const;
  // Every lock key acquired by `fn` or (transitively) by its callees.
  // `memo` caches across calls; cycles in the call graph are handled.
  const std::set<std::string>& TransitiveLocks(
      const FunctionDef* fn,
      std::map<const FunctionDef*, std::set<std::string>>* memo) const;
};

// Pass 1 entry point: index one tokenized file into `index`.
void IndexFile(const SourceFile& file, ProgramIndex* index);

// Matches forward from the opener token at `open` to its closer; returns the
// closer's index, or tokens.size() when unmatched. Exposed for rules/tests.
size_t MatchForward(const std::vector<Token>& toks, size_t open,
                    const std::string& opener, const std::string& closer);

}  // namespace lint

#endif  // HIVE_TOOLS_HIVE_LINT_INDEX_H_
