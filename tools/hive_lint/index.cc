#include "tools/hive_lint/index.h"

#include <algorithm>
#include <deque>

namespace lint {
namespace {

// Keywords that can never be a function name or a callee. Keeps control
// statements and casts out of the call graph.
const std::set<std::string>& Keywords() {
  static const std::set<std::string> kKeywords = {
      "if",       "else",     "for",      "while",    "do",       "switch",
      "case",     "return",   "sizeof",   "alignof",  "alignas",  "new",
      "delete",   "throw",    "catch",    "try",      "operator", "static_cast",
      "dynamic_cast", "reinterpret_cast", "const_cast", "decltype", "typeid",
      "co_await", "co_return", "co_yield", "requires", "static_assert",
      "defined",  "assert",
  };
  return kKeywords;
}

bool IsKeyword(const std::string& text) { return Keywords().count(text) > 0; }

// Matches a template argument list starting at the '<' token at `open`.
// Returns the index of the matching '>' or tokens.size() on failure. Angle
// brackets are ambiguous with comparisons, so the match is budgeted and
// bails on statement punctuation -- callers treat failure as "not a
// template".
size_t MatchAngles(const std::vector<Token>& toks, size_t open, size_t budget = 64) {
  int depth = 0;
  for (size_t j = open; j < toks.size() && j < open + budget; ++j) {
    const std::string& t = toks[j].text;
    if (t == "<") {
      ++depth;
    } else if (t == ">") {
      if (--depth == 0) {
        return j;
      }
    } else if (t == ";" || t == "{" || t == "}") {
      break;
    }
  }
  return toks.size();
}

struct Header {
  std::string chain;   // "Scheduler::KillProcess" for out-of-line methods.
  std::string simple;  // Last chain element.
  size_t name_tok = 0;
  size_t params_open = 0;
  size_t body_begin = 0;  // Definition only.
  size_t body_end = 0;
  size_t end = 0;  // Last token consumed (';' or body '}').
  bool returns_status = false;
  bool returns_result = false;
  bool returns_other = false;
};

enum class HeaderKind { kNo, kDefinition, kDeclaration };

// Scans the return-type tokens directly before the name chain. The walk
// stops at statement boundaries; what remains is the declaration specifier
// sequence ("base :: Status", "static bool", ...). Constructors simply see
// an empty sequence.
void ClassifyReturnType(const std::vector<Token>& toks, size_t chain_start, Header* h) {
  static const std::set<std::string> kBoundary = {";", "{", "}", ":", "(", ")",
                                                  ",", "public", "private",
                                                  "protected", "="};
  bool saw_type_word = false;
  size_t steps = 0;
  for (size_t j = chain_start; j > 0 && steps < 24; ++steps) {
    --j;
    const Token& t = toks[j];
    if (t.kind == Token::kPunct && kBoundary.count(t.text) > 0) {
      break;
    }
    if (t.kind == Token::kIdent && kBoundary.count(t.text) > 0) {
      break;
    }
    if (t.text == "Status" || t.text == "StatusOr") {
      h->returns_status = true;
    } else if (t.text == "Result") {
      h->returns_result = true;
    } else if (t.kind == Token::kIdent && t.text != "base" && t.text != "std" &&
               t.text != "inline" && t.text != "static" && t.text != "virtual" &&
               t.text != "constexpr" && t.text != "explicit" && t.text != "friend" &&
               t.text != "const") {
      saw_type_word = true;
    }
  }
  // "base::Result<T>" must win over the T inside the angle brackets.
  if (h->returns_status || h->returns_result) {
    return;
  }
  h->returns_other = saw_type_word;
}

// Tries to match a function definition or declaration whose name chain
// starts at token `i`. The grammar accepted (heuristically):
//   ident (:: ident)* ( params ) [const|noexcept[(..)]|override|final|&]*
//       [-> trailing-type] [: ctor-init-list] ( '{' body '}' | ';' | '= ..;' )
// Anything else returns kNo and the caller advances one token.
HeaderKind MatchFunctionHeader(const std::vector<Token>& toks, size_t i, Header* h) {
  const size_t n = toks.size();
  if (toks[i].kind != Token::kIdent || IsKeyword(toks[i].text)) {
    return HeaderKind::kNo;
  }
  // Name chain.
  size_t j = i;
  std::string chain = toks[j].text;
  std::string simple = toks[j].text;
  ++j;
  while (j + 1 < n && toks[j].text == "::" && toks[j + 1].kind == Token::kIdent) {
    if (IsKeyword(toks[j + 1].text)) {
      return HeaderKind::kNo;
    }
    chain += "::" + toks[j + 1].text;
    simple = toks[j + 1].text;
    j += 2;
  }
  if (j >= n || toks[j].text != "(") {
    return HeaderKind::kNo;
  }
  h->chain = chain;
  h->simple = simple;
  h->name_tok = i;
  h->params_open = j;
  const size_t rp = MatchForward(toks, j, "(", ")");
  if (rp >= n) {
    return HeaderKind::kNo;
  }
  size_t k = rp + 1;
  // Trailing qualifiers.
  while (k < n) {
    const std::string& t = toks[k].text;
    if (t == "const" || t == "override" || t == "final" || t == "mutable" ||
        t == "&") {
      ++k;
    } else if (t == "noexcept") {
      ++k;
      if (k < n && toks[k].text == "(") {
        k = MatchForward(toks, k, "(", ")") + 1;
      }
    } else if (t == "->") {
      // Trailing return type: skip to the body / terminator.
      ++k;
      while (k < n && toks[k].text != "{" && toks[k].text != ";" &&
             toks[k].text != "=") {
        ++k;
      }
      break;
    } else {
      break;
    }
  }
  if (k >= n) {
    return HeaderKind::kNo;
  }
  // Constructor initializer list: `: member_(x), other_{y} {`.
  if (toks[k].text == ":") {
    ++k;
    while (k < n) {
      while (k < n && (toks[k].kind == Token::kIdent || toks[k].text == "::")) {
        ++k;
      }
      if (k < n && toks[k].text == "<") {
        const size_t close = MatchAngles(toks, k);
        if (close >= n) {
          return HeaderKind::kNo;
        }
        k = close + 1;
      }
      if (k >= n || (toks[k].text != "(" && toks[k].text != "{")) {
        return HeaderKind::kNo;
      }
      const bool paren = toks[k].text == "(";
      k = MatchForward(toks, k, paren ? "(" : "{", paren ? ")" : "}") + 1;
      if (k < n && toks[k].text == ",") {
        ++k;
        continue;
      }
      break;
    }
  }
  if (k >= n) {
    return HeaderKind::kNo;
  }
  ClassifyReturnType(toks, i, h);
  if (toks[k].text == "{") {
    h->body_begin = k;
    h->body_end = MatchForward(toks, k, "{", "}");
    if (h->body_end >= n) {
      return HeaderKind::kNo;
    }
    h->end = h->body_end;
    return HeaderKind::kDefinition;
  }
  if (toks[k].text == ";") {
    h->end = k;
    return HeaderKind::kDeclaration;
  }
  if (toks[k].text == "=") {
    // `= default` / `= delete` / `= 0`.
    while (k < n && toks[k].text != ";") {
      ++k;
    }
    h->end = k;
    return HeaderKind::kDeclaration;
  }
  return HeaderKind::kNo;
}

// Detects a container declaration at token `i`:
//   std::unordered_map<..> name   -> unordered_containers
//   std::unordered_set<..> name   -> unordered_containers
//   std::map<K*, ..> / std::set<K*> name -> ptr_keyed_ordered
// Returns the token index to resume from, or `i` when nothing matched.
size_t TryContainerDecl(const std::vector<Token>& toks, size_t i,
                        const std::string& rel_path, ProgramIndex* index) {
  const size_t n = toks.size();
  if (toks[i].text != "std" || i + 2 >= n || toks[i + 1].text != "::") {
    return i;
  }
  const std::string& kind = toks[i + 2].text;
  const bool unordered = kind == "unordered_map" || kind == "unordered_set";
  const bool ordered = kind == "map" || kind == "set";
  if (!unordered && !ordered) {
    return i;
  }
  size_t j = i + 3;
  if (j >= n || toks[j].text != "<") {
    return i;
  }
  const size_t close = MatchAngles(toks, j);
  if (close >= n) {
    return i;
  }
  // Pointer-keyed ordered containers iterate in address order. The key type
  // is everything up to the first top-level ',' (or the whole list for set).
  bool ptr_key = false;
  int depth = 0;
  for (size_t t = j; t <= close; ++t) {
    if (toks[t].text == "<") {
      ++depth;
    } else if (toks[t].text == ">") {
      --depth;
    } else if (toks[t].text == "," && depth == 1) {
      break;
    } else if (toks[t].text == "*" && depth == 1) {
      ptr_key = true;
    }
  }
  size_t name_tok = close + 1;
  if (name_tok >= n || toks[name_tok].kind != Token::kIdent) {
    return i;  // A type use (parameter, return type, template arg), not a decl.
  }
  const size_t after = name_tok + 1;
  if (after < n && (toks[after].text == ";" || toks[after].text == "=" ||
                    toks[after].text == "{")) {
    if (unordered) {
      index->unordered_containers.insert(toks[name_tok].text);
    } else if (ptr_key) {
      index->ptr_keyed_ordered.push_back(
          {rel_path, toks[name_tok].line, toks[name_tok].text});
    }
    return after;
  }
  return i;
}

// Joins the texts of tokens [begin, end) -- used to canonicalize lock keys.
std::string JoinTokens(const std::vector<Token>& toks, size_t begin, size_t end) {
  std::string out;
  for (size_t j = begin; j < end && j < toks.size(); ++j) {
    out += toks[j].text;
  }
  return out;
}

// Token index of the '}' closing the innermost scope open at `at` (searching
// within (at, limit]); `limit` when the scope runs to the body end.
size_t FindScopeEnd(const std::vector<Token>& toks, size_t at, size_t limit) {
  int depth = 0;
  for (size_t j = at; j <= limit && j < toks.size(); ++j) {
    if (toks[j].text == "{") {
      ++depth;
    } else if (toks[j].text == "}") {
      if (depth == 0) {
        return j;
      }
      --depth;
    }
  }
  return limit;
}

// Scans a function body for call sites, lock sites, seqlock reads,
// range-for sites, and local container declarations.
void ScanBody(const SourceFile& file, FunctionDef* def, ProgramIndex* index) {
  const std::vector<Token>& toks = file.tokens;
  for (size_t j = def->body_begin + 1; j < def->body_end; ++j) {
    const Token& t = toks[j];
    if (t.kind != Token::kIdent) {
      continue;
    }
    // Local container declarations feed the same determinism facts as
    // members.
    const size_t advanced = TryContainerDecl(toks, j, file.rel_path, index);
    if (advanced != j) {
      j = advanced;
      continue;
    }
    // Range-based for.
    if (t.text == "for" && j + 1 < toks.size() && toks[j + 1].text == "(") {
      const size_t rp = MatchForward(toks, j + 1, "(", ")");
      if (rp >= toks.size()) {
        continue;
      }
      int parens = 0, brackets = 0, braces = 0;
      size_t colon = 0;
      for (size_t k = j + 1; k < rp; ++k) {
        const std::string& p = toks[k].text;
        if (p == "(") ++parens;
        else if (p == ")") --parens;
        else if (p == "[") ++brackets;
        else if (p == "]") --brackets;
        else if (p == "{") ++braces;
        else if (p == "}") --braces;
        else if (p == ":" && parens == 1 && brackets == 0 && braces == 0) {
          colon = k;
          break;
        } else if (p == ";") {
          break;  // Classic three-clause for.
        }
      }
      if (colon != 0) {
        RangeForSite site;
        site.line = t.line;
        size_t last = rp - 1;
        if (toks[last].text == ")") {
          // Range expression is a call: find its callee.
          int depth = 1;
          size_t k = last;
          while (k > colon && depth > 0) {
            --k;
            if (toks[k].text == ")") ++depth;
            else if (toks[k].text == "(") --depth;
          }
          if (k > colon && toks[k - 1].kind == Token::kIdent) {
            site.range_ident = toks[k - 1].text;
            site.calls_range = true;
          }
        } else if (toks[last].kind == Token::kIdent) {
          site.range_ident = toks[last].text;
        }
        if (!site.range_ident.empty()) {
          def->range_fors.push_back(site);
        }
      }
      continue;  // The body of the for is scanned by the outer loop anyway.
    }
    // RAII lock guards: std::lock_guard<..> g(mu); scoped_lock may name
    // several locks in one site.
    if (t.text == "lock_guard" || t.text == "unique_lock" || t.text == "scoped_lock") {
      size_t k = j + 1;
      if (k < toks.size() && toks[k].text == "<") {
        const size_t close = MatchAngles(toks, k);
        if (close >= toks.size()) {
          continue;
        }
        k = close + 1;
      }
      if (k >= toks.size() || toks[k].kind != Token::kIdent) {
        continue;  // A type use, not a guard declaration.
      }
      ++k;  // Guard variable name.
      if (k >= toks.size() || toks[k].text != "(") {
        continue;
      }
      const size_t rp = MatchForward(toks, k, "(", ")");
      if (rp >= toks.size() || rp > def->body_end) {
        continue;
      }
      LockSite site;
      site.line = t.line;
      site.tok = j;
      int depth = 0;
      size_t arg_begin = k + 1;
      for (size_t a = k + 1; a <= rp; ++a) {
        const std::string& p = toks[a].text;
        if (p == "(" || p == "[" || p == "{" || p == "<") {
          ++depth;
        } else if (p == ")" || p == "]" || p == "}" || p == ">") {
          --depth;
        }
        if ((p == "," && depth == 0) || a == rp) {
          std::string key = JoinTokens(toks, arg_begin, a);
          // Normalize the common spellings: `&mu`, `*mu_ptr`, `this->mu_`.
          while (!key.empty() && (key.front() == '&' || key.front() == '*')) {
            key.erase(key.begin());
          }
          if (key.rfind("this->", 0) == 0) {
            key = key.substr(6);
          }
          if (!key.empty() && key != "std::adopt_lock" && key != "std::defer_lock" &&
              key != "std::try_to_lock") {
            site.keys.push_back(key);
          }
          arg_begin = a + 1;
        }
      }
      if (!site.keys.empty()) {
        site.scope_end = FindScopeEnd(toks, rp + 1, def->body_end);
        def->locks.push_back(site);
      }
      j = rp;
      continue;
    }
    // Explicit mu.lock(): held (conservatively) to the end of the body.
    if (t.text == "lock" && j > 0 && (toks[j - 1].text == "." || toks[j - 1].text == "->") &&
        j + 1 < toks.size() && toks[j + 1].text == "(" && j >= 2 &&
        toks[j - 2].kind == Token::kIdent) {
      LockSite site;
      site.line = t.line;
      site.tok = j;
      site.keys.push_back(toks[j - 2].text);
      site.scope_end = def->body_end;
      def->locks.push_back(site);
      continue;
    }
    // Plain or templated call site.
    if (IsKeyword(t.text)) {
      continue;
    }
    size_t call_paren = 0;
    if (j + 1 < toks.size() && toks[j + 1].text == "(") {
      call_paren = j + 1;
    } else if (j + 1 < toks.size() && toks[j + 1].text == "<") {
      const size_t close = MatchAngles(toks, j + 1, 24);
      if (close < toks.size() && close + 1 < toks.size() &&
          toks[close + 1].text == "(") {
        bool type_like = true;
        for (size_t a = j + 2; a < close; ++a) {
          const Token& arg = toks[a];
          if (arg.kind == Token::kString || arg.kind == Token::kCharLit ||
              arg.text == ";" || arg.text == "==") {
            type_like = false;
            break;
          }
        }
        if (type_like) {
          call_paren = close + 1;
        }
      }
    }
    if (call_paren != 0) {
      def->calls.push_back({t.text, t.line, j});
      if (t.text == "ReadSeqlocked") {
        def->seqlock_reads.push_back({t.text, t.line, j});
      }
    }
  }
}

}  // namespace

size_t MatchForward(const std::vector<Token>& toks, size_t open,
                    const std::string& opener, const std::string& closer) {
  int depth = 0;
  size_t j = open;
  for (; j < toks.size(); ++j) {
    if (toks[j].text == opener) {
      ++depth;
    } else if (toks[j].text == closer && --depth == 0) {
      break;
    }
  }
  return j;
}

void IndexFile(const SourceFile& file, ProgramIndex* index) {
  const std::vector<Token>& toks = file.tokens;
  const size_t n = toks.size();
  struct ScopeFrame {
    std::string name;  // Empty for plain blocks and anonymous namespaces.
  };
  std::vector<ScopeFrame> scopes;
  // Names seen with a non-Status return type anywhere poison R9's
  // "unambiguously Status-returning" set.
  auto note_return_kind = [&](const Header& h) {
    if (h.returns_status || h.returns_result) {
      index->status_returning.insert(h.simple);
    } else if (h.returns_other) {
      index->status_ambiguous.insert(h.simple);
    }
  };
  size_t i = 0;
  while (i < n) {
    const Token& t = toks[i];
    if (t.kind == Token::kIdent) {
      if (t.text == "namespace") {
        size_t j = i + 1;
        std::string name;
        while (j < n && (toks[j].kind == Token::kIdent || toks[j].text == "::")) {
          if (toks[j].kind == Token::kIdent) {
            name = name.empty() ? toks[j].text : name + "::" + toks[j].text;
          }
          ++j;
        }
        if (j < n && toks[j].text == "{") {
          scopes.push_back({name});
          i = j + 1;
          continue;
        }
        i = j;
        continue;
      }
      if (t.text == "class" || t.text == "struct") {
        size_t j = i + 1;
        std::string name;
        if (j < n && toks[j].kind == Token::kIdent) {
          name = toks[j].text;
          ++j;
        }
        // Skip `final` and the base clause; stop at the body or a
        // non-definition use (fwd decl, elaborated type, parameter).
        size_t budget = 48;
        while (j < n && budget-- > 0 && toks[j].text != "{" && toks[j].text != ";" &&
               toks[j].text != ")" && toks[j].text != "=" && toks[j].text != ",") {
          ++j;
        }
        if (j < n && toks[j].text == "{" && !name.empty()) {
          index->struct_names.insert(name);
          scopes.push_back({name});
          i = j + 1;
          continue;
        }
        i = j;
        continue;
      }
      if (t.text == "enum") {
        size_t j = i + 1;
        size_t budget = 16;
        while (j < n && budget-- > 0 && toks[j].text != "{" && toks[j].text != ";") {
          ++j;
        }
        i = (j < n && toks[j].text == "{") ? MatchForward(toks, j, "{", "}") + 1 : j + 1;
        continue;
      }
      if (t.text == "using" || t.text == "typedef") {
        while (i < n && toks[i].text != ";") {
          ++i;
        }
        ++i;
        continue;
      }
      if (t.text == "template" && i + 1 < n && toks[i + 1].text == "<") {
        const size_t close = MatchAngles(toks, i + 1);
        i = close < n ? close + 1 : i + 1;
        continue;
      }
      const size_t advanced = TryContainerDecl(toks, i, file.rel_path, index);
      if (advanced != i) {
        i = advanced;
        continue;
      }
      Header h;
      switch (MatchFunctionHeader(toks, i, &h)) {
        case HeaderKind::kDefinition: {
          auto def = std::make_unique<FunctionDef>();
          def->name = h.simple;
          std::string scope;
          for (const ScopeFrame& frame : scopes) {
            if (!frame.name.empty()) {
              scope += frame.name + "::";
            }
          }
          def->qualified = scope + h.chain;
          def->file = file.rel_path;
          def->line = toks[h.name_tok].line;
          def->body_begin = h.body_begin;
          def->body_end = h.body_end;
          def->returns_status = h.returns_status;
          def->returns_result = h.returns_result;
          ScanBody(file, def.get(), index);
          note_return_kind(h);
          index->by_name[def->name].push_back(def.get());
          index->functions.push_back(std::move(def));
          i = h.end + 1;
          continue;
        }
        case HeaderKind::kDeclaration:
          note_return_kind(h);
          i = h.end + 1;
          continue;
        case HeaderKind::kNo:
          break;
      }
      ++i;
      continue;
    }
    if (t.text == "{") {
      scopes.push_back({""});
      ++i;
      continue;
    }
    if (t.text == "}") {
      if (!scopes.empty()) {
        scopes.pop_back();
      }
      ++i;
      continue;
    }
    ++i;
  }
}

std::vector<FunctionDef*> ProgramIndex::Resolve(const std::string& name) const {
  auto it = by_name.find(name);
  return it == by_name.end() ? std::vector<FunctionDef*>{} : it->second;
}

std::set<const FunctionDef*> ProgramIndex::ReachableFrom(
    const std::vector<std::string>& roots) const {
  std::set<const FunctionDef*> reachable;
  std::deque<const FunctionDef*> worklist;
  for (const std::string& root : roots) {
    for (FunctionDef* def : Resolve(root)) {
      if (reachable.insert(def).second) {
        worklist.push_back(def);
      }
    }
  }
  while (!worklist.empty()) {
    const FunctionDef* def = worklist.front();
    worklist.pop_front();
    for (const CallSite& call : def->calls) {
      for (FunctionDef* callee : Resolve(call.callee)) {
        if (reachable.insert(callee).second) {
          worklist.push_back(callee);
        }
      }
    }
  }
  return reachable;
}

const std::set<std::string>& ProgramIndex::TransitiveLocks(
    const FunctionDef* fn,
    std::map<const FunctionDef*, std::set<std::string>>* memo) const {
  auto it = memo->find(fn);
  if (it != memo->end()) {
    return it->second;
  }
  // Seed the memo entry first so call-graph cycles terminate (a recursive
  // chain sees the partial set -- conservative for a linter).
  auto& slot = (*memo)[fn];
  std::set<std::string> acc;
  for (const LockSite& site : fn->locks) {
    acc.insert(site.keys.begin(), site.keys.end());
  }
  for (const CallSite& call : fn->calls) {
    for (FunctionDef* callee : Resolve(call.callee)) {
      if (callee == fn) {
        continue;
      }
      const std::set<std::string>& sub = TransitiveLocks(callee, memo);
      acc.insert(sub.begin(), sub.end());
    }
  }
  slot = std::move(acc);
  return (*memo)[fn];
}

}  // namespace lint
