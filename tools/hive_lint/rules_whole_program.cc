// Whole-program rules R10-R11. These are the rules that need pass 1's
// ProgramIndex: determinism purity of everything reachable from the
// simulator/campaign entry points (R10), and confinement of the tagged
// remote structures to the careful-reference module (R11).

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "tools/hive_lint/rules.h"

namespace lint {
namespace {

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

// ---------------------------------------------------------------------------
// R10: determinism purity.
//
// The campaign layer fingerprints end-to-end runs (FNV-1a over final state)
// and the golden-fingerprint tests require every path reachable from the
// simulator/campaign entry points to be bit-reproducible from the seed.
// Reachability is computed over the pass-1 call graph from the roots below;
// inside reachable functions the rule flags:
//   - std::random_device (hardware entropy),
//   - rand/srand/*rand48/random and wall-clock time() reads,
//   - std::chrono {system,steady,high_resolution}_clock::now(),
//   - range-for over a name declared as std::unordered_map/unordered_set
//     (iteration order varies across libstdc++ versions and hash seeds),
// and, anywhere in src/ (declarations are not inside a function body):
//   - std::map/std::set keyed by a raw pointer (address-order iteration
//     varies run to run under ASLR and allocator nondeterminism).
// ---------------------------------------------------------------------------

// Roots: the scenario/campaign entry points, plus RunSoak, the serve
// harness entry point, whose fingerprint must be a function of --seed alone.
const char* const kR10Roots[] = {"RunScenario", "RunCampaign", "RunSoak"};

void CheckR10Impl(const RuleContext& ctx) {
  const ProgramIndex& index = *ctx.index;
  std::string root_list;
  std::vector<std::string> roots;
  for (const char* root : kR10Roots) {
    roots.emplace_back(root);
    if (!root_list.empty()) {
      root_list += "/";
    }
    root_list += root;
  }
  std::set<const FunctionDef*> reachable = index.ReachableFrom(roots);
  std::set<std::pair<std::string, int>> emitted;
  auto emit = [&ctx, &emitted](const std::string& file, int line, std::string msg) {
    if (emitted.insert({file, line}).second) {
      ctx.diags->push_back({file, line, "R10", std::move(msg)});
    }
  };
  static const std::set<std::string> kBannedCalls = {
      "rand", "srand", "rand_r", "random", "drand48", "lrand48", "mrand48",
      "srand48", "random_shuffle",
  };
  static const std::set<std::string> kClocks = {
      "system_clock", "steady_clock", "high_resolution_clock",
  };
  for (const FunctionDef* fn : reachable) {
    if (!StartsWith(fn->file, "src/")) {
      continue;  // Tests and bench may time/randomize around the sim.
    }
    const std::string where =
        " in " + fn->qualified + ", which is reachable from the scenario/campaign/"
        "soak entry points (" + root_list +
        "); simulation outcomes must be a pure function of the seed "
        "(golden-fingerprint oracle)";
    for (const CallSite& call : fn->calls) {
      if (kBannedCalls.count(call.callee) > 0) {
        emit(fn->file, call.line,
             "call to '" + call.callee + "'" + where);
      }
    }
    // Token-level scans inside the body: random_device construction, clock
    // reads, and wall-clock time(nullptr).
    const SourceFile* src = nullptr;
    for (const SourceFile& file : *ctx.files) {
      if (file.rel_path == fn->file) {
        src = &file;
        break;
      }
    }
    if (src == nullptr) {
      continue;
    }
    const std::vector<Token>& toks = src->tokens;
    for (size_t j = fn->body_begin; j < fn->body_end && j < toks.size(); ++j) {
      const Token& t = toks[j];
      if (t.kind != Token::kIdent) {
        continue;
      }
      if (t.text == "random_device") {
        emit(fn->file, t.line, "std::random_device (hardware entropy)" + where);
      } else if (kClocks.count(t.text) > 0 && j + 2 < toks.size() &&
                 toks[j + 1].text == "::" && toks[j + 2].text == "now") {
        emit(fn->file, t.line,
             "wall-clock read 'std::chrono::" + t.text + "::now()'" + where);
      } else if (t.text == "time" && j + 2 < toks.size() && toks[j + 1].text == "(" &&
                 (toks[j + 2].text == "nullptr" || toks[j + 2].text == "NULL" ||
                  toks[j + 2].text == "0")) {
        emit(fn->file, t.line, "wall-clock read 'time(...)'" + where);
      }
    }
    for (const RangeForSite& site : fn->range_fors) {
      if (!site.calls_range && index.unordered_containers.count(site.range_ident) > 0) {
        emit(fn->file, site.line,
             "range-for over unordered container '" + site.range_ident + "'" + where +
                 "; iterate a sorted copy or restructure if the loop affects "
                 "output, or suppress if provably order-independent");
      }
    }
  }
  for (const ProgramIndex::PtrKeyedDecl& decl : index.ptr_keyed_ordered) {
    if (!StartsWith(decl.file, "src/")) {
      continue;
    }
    emit(decl.file, decl.line,
         "'" + decl.name + "' is a std::map/std::set keyed by a raw pointer; "
         "iteration follows address order, which varies run to run (ASLR, "
         "allocator) -- key by a stable id instead (determinism purity)");
  }
}

// ---------------------------------------------------------------------------
// R11: careful-read completeness.
//
// Structures whose names start with "Remote" (RemoteChainNode,
// RemoteSeqBlock, ...) model data living in *another cell's* memory: the
// whole point of the careful-reference protocol (paper 4.1) is that such
// memory may disappear or be corrupted at any instant, so it may only be
// touched through CarefulRef (bounded, tag-checked, BusError-converting
// accessors) inside src/core/careful_ref.{h,cc}. Anywhere else in src/, a
// raw `Remote*` pointer declaration or a reinterpret_cast to one is a
// dereference-in-waiting that would turn a peer fault into a survivor crash.
// ---------------------------------------------------------------------------

void CheckR11Impl(const RuleContext& ctx) {
  const ProgramIndex& index = *ctx.index;
  auto is_tagged = [&index](const std::string& name) {
    return StartsWith(name, "Remote") && index.struct_names.count(name) > 0;
  };
  std::set<std::pair<std::string, int>> emitted;
  auto emit = [&ctx, &emitted](const std::string& file, int line, std::string msg) {
    if (emitted.insert({file, line}).second) {
      ctx.diags->push_back({file, line, "R11", std::move(msg)});
    }
  };
  for (const SourceFile& file : *ctx.files) {
    if (!StartsWith(file.rel_path, "src/") ||
        file.rel_path == "src/core/careful_ref.h" ||
        file.rel_path == "src/core/careful_ref.cc") {
      continue;
    }
    const std::vector<Token>& toks = file.tokens;
    for (size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != Token::kIdent) {
        continue;
      }
      if (t.text == "reinterpret_cast" && i + 1 < toks.size() &&
          toks[i + 1].text == "<") {
        const size_t close = MatchForward(toks, i + 1, "<", ">");
        for (size_t j = i + 2; j < close && j < toks.size(); ++j) {
          if (toks[j].kind == Token::kIdent && is_tagged(toks[j].text)) {
            emit(file.rel_path, t.line,
                 "reinterpret_cast to tagged remote structure '" + toks[j].text +
                     "' outside careful_ref; remote memory may vanish or be "
                     "corrupt at any instant -- use CarefulRef::ReadTagged/"
                     "ChaseChain/ReadSeqlocked (paper 4.1)");
            break;
          }
        }
      } else if (is_tagged(t.text) && i + 2 < toks.size() && toks[i + 1].text == "*" &&
                 toks[i + 2].kind == Token::kIdent) {
        emit(file.rel_path, t.line,
             "raw pointer to tagged remote structure '" + t.text +
                 "' outside careful_ref; a plain dereference of another cell's "
                 "memory turns a peer fault into a survivor crash -- hold an "
                 "address + CarefulRef instead (paper 4.1)");
      }
    }
  }
}

}  // namespace

// Registered from rules_file.cc's AllRules().
void CheckR10(const RuleContext& ctx) { CheckR10Impl(ctx); }
void CheckR11(const RuleContext& ctx) { CheckR11Impl(ctx); }

}  // namespace lint
