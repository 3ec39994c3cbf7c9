// hive_lint's rules R1-R3, R7, R10 and R12: each one pattern-matches the
// token stream (R0 falls out of suppression parsing). Receiver heuristics
// are documented next to each rule; see DESIGN.md "Verification layers" for
// the discipline each one enforces.

#include <algorithm>
#include <cctype>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "tools/hive_lint/rules.h"

namespace lint {
namespace {

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

// Receiver name of a member call at token index `access` (the '.' or '->'
// token): the identifier directly before it, or, for a call-chain receiver
// like `machine().mem().Write`, the identifier naming the innermost call
// (`mem`). Returns "" when the receiver is not a simple name or call.
std::string ReceiverName(const std::vector<Token>& toks, size_t access) {
  if (access == 0) {
    return "";
  }
  size_t i = access - 1;
  if (toks[i].kind == Token::kIdent) {
    return toks[i].text;
  }
  if (toks[i].text == ")") {
    int depth = 1;
    while (i > 0 && depth > 0) {
      --i;
      if (toks[i].text == ")") {
        ++depth;
      } else if (toks[i].text == "(") {
        --depth;
      }
    }
    if (depth == 0 && i > 0 && toks[i - 1].kind == Token::kIdent) {
      return toks[i - 1].text;
    }
  }
  return "";
}

// R1: direct PhysMem access from src/core/. `ReadValue`/`WriteValue` exist
// only on PhysMem, so any member call to them is flagged. Plain `Read`/
// `Write` are common method names (CarefulRef, KernelHeap, FileSystem...), so
// they are flagged only when the receiver is named `mem`/`mem_` -- the
// codebase-wide convention for the PhysMem instance (`machine().mem()`,
// member `mem_`).
void CheckR1(const SourceFile& file, std::vector<Diagnostic>* diags) {
  static const std::set<std::string> kAllowlist = {
      // The careful-reference boundary itself (steps 2-4 wrap raw access).
      "src/core/careful_ref.h", "src/core/careful_ref.cc",
      // The allocator that writes the type tags the protocol checks.
      "src/core/kernel_heap.h", "src/core/kernel_heap.cc",
      // Address maps are published data; their accessor owns its discipline.
      "src/core/address_space.cc",
      // The unified page cache: page-content copies on the checked store
      // path (firewall + fault model apply); never careful-reference
      // structure reads.
      "src/core/filesystem.cc",
  };
  if (!StartsWith(file.rel_path, "src/core/") || kAllowlist.count(file.rel_path) > 0) {
    return;
  }
  const std::vector<Token>& toks = file.tokens;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].text != "." && toks[i].text != "->") {
      continue;
    }
    const Token& method = toks[i + 1];
    if (method.kind != Token::kIdent) {
      continue;
    }
    if (method.text == "ReadValue" || method.text == "WriteValue") {
      diags->push_back({file.rel_path, method.line, "R1",
                        "direct PhysMem::" + method.text +
                            " from core kernel code; intercell reads must go through "
                            "CarefulRef (paper 4.1)"});
      continue;
    }
    if ((method.text == "Read" || method.text == "Write")) {
      const std::string receiver = ReceiverName(toks, i);
      if (receiver == "mem" || receiver == "mem_") {
        diags->push_back({file.rel_path, method.line, "R1",
                          "direct PhysMem::" + method.text +
                              " from core kernel code; intercell reads must go through "
                              "CarefulRef (paper 4.1)"});
      }
    }
  }
}

// R2: RawWrite/RawRead bypass the firewall and the fault flags; only the
// fault injector (modelling a cell's own bug), PhysMem itself, and test
// assertions may use them.
void CheckR2(const SourceFile& file, std::vector<Diagnostic>* diags) {
  if (file.rel_path == "src/flash/fault_injector.cc" ||
      file.rel_path == "src/flash/phys_mem.h" || file.rel_path == "src/flash/phys_mem.cc" ||
      StartsWith(file.rel_path, "tests/")) {
    return;
  }
  for (const Token& tok : file.tokens) {
    if (tok.kind == Token::kIdent && (tok.text == "RawWrite" || tok.text == "RawRead")) {
      diags->push_back({file.rel_path, tok.line, "R2",
                        tok.text + " bypasses the firewall; only the fault injector and "
                                   "tests may use the backdoor (paper 4.2)"});
    }
  }
}

// R3: the simulated trap is raised only by src/flash/ and caught only by
// flash::CaptureTrap (src/flash/bus_error.h), the one capture of paper
// section 4.1; tests/ observe the raw trap when testing the substrate
// itself. Like R0, R3 cannot be suppressed: capture the trap with
// CaptureTrap and say why it is a legal outcome there.
void CheckR3(const SourceFile& file, std::vector<Diagnostic>* diags) {
  if (StartsWith(file.rel_path, "src/flash/") || StartsWith(file.rel_path, "tests/")) {
    return;
  }
  const std::vector<Token>& toks = file.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::kIdent) {
      continue;
    }
    if (toks[i].text == "throw") {
      for (size_t j = i + 1; j < toks.size() && j < i + 8 && toks[j].text != ";"; ++j) {
        if (toks[j].kind == Token::kIdent && toks[j].text == "BusError") {
          diags->push_back({file.rel_path, toks[i].line, "R3",
                            "BusError thrown outside src/flash/; the simulated trap is "
                            "raised only by the substrate (unsuppressible)"});
          break;
        }
      }
    } else if (toks[i].text == "catch" && i + 1 < toks.size() && toks[i + 1].text == "(") {
      const size_t params_end = MatchForward(toks, i + 1, "(", ")");
      for (size_t j = i + 2; j < params_end && j < toks.size(); ++j) {
        if (toks[j].kind == Token::kIdent && toks[j].text == "BusError") {
          diags->push_back({file.rel_path, toks[i].line, "R3",
                            "BusError caught outside flash::CaptureTrap, the one section "
                            "4.1 trap capture; capture it there and handle the returned "
                            "trap (unsuppressible)"});
          break;
        }
      }
    }
  }
}

// The section 4.1 panic (Cell::RunKernel) lives in cell.h.
constexpr char kKernelBoundaryFile[] = "src/core/cell.h";

// R12: no hand-written section 4.1 panic in src/core/. Handing a trap that
// flash::CaptureTrap returned to Panic re-implements Cell::RunKernel, and
// covers whatever code happens to run inside the capture -- including
// another cell's nested kernel work, whose trap would then panic the wrong
// cell. Flagged: a Panic call whose arguments name a variable bound to a
// CaptureTrap result, or that sits in the body of an `if` whose condition
// names one or calls CaptureTrap. Like R0, R12 cannot be suppressed: run the
// kernel entry through its own cell's RunKernel instead.
void CheckR12(const SourceFile& file, std::vector<Diagnostic>* diags) {
  if (!StartsWith(file.rel_path, "src/core/") || file.rel_path == kKernelBoundaryFile) {
    return;
  }
  const std::vector<Token>& toks = file.tokens;
  // Names that stand for a captured trap: CaptureTrap itself and each
  // variable bound as `trap = [flash::]CaptureTrap(`.
  std::set<std::string> captures = {"CaptureTrap"};
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].text != "CaptureTrap" || toks[i + 1].text != "(") {
      continue;
    }
    size_t j = i;
    while (j >= 2 && toks[j - 1].text == "::" && toks[j - 2].kind == Token::kIdent) {
      j -= 2;
    }
    if (j >= 2 && toks[j - 1].text == "=" && toks[j - 2].kind == Token::kIdent) {
      captures.insert(toks[j - 2].text);
    }
  }
  auto names_capture = [&](size_t begin, size_t end) {
    for (size_t j = begin; j < end && j < toks.size(); ++j) {
      if (toks[j].kind == Token::kIdent && captures.count(toks[j].text) > 0) {
        return true;
      }
    }
    return false;
  };
  std::set<int> flagged;
  auto flag_panics = [&](size_t begin, size_t end, bool guarded) {
    for (size_t j = begin; j + 1 < end && j + 1 < toks.size(); ++j) {
      if (toks[j].text != "Panic" || toks[j + 1].text != "(") {
        continue;
      }
      const size_t args_end = MatchForward(toks, j + 1, "(", ")");
      if ((guarded || names_capture(j + 2, args_end)) && flagged.insert(toks[j].line).second) {
        diags->push_back({file.rel_path, toks[j].line, "R12",
                          "captured trap handed to Panic: a hand-written section 4.1 "
                          "panic; run the kernel entry through Cell::RunKernel so a "
                          "trap panics only the kernel that took it (unsuppressible)"});
      }
    }
  };
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].text != "if" || toks[i + 1].text != "(") {
      continue;
    }
    const size_t cond_end = MatchForward(toks, i + 1, "(", ")");
    if (cond_end + 1 >= toks.size() || !names_capture(i + 2, cond_end)) {
      continue;
    }
    size_t body_end = cond_end + 1;
    if (toks[body_end].text == "{") {
      body_end = MatchForward(toks, body_end, "{", "}");
    } else {
      while (body_end < toks.size() && toks[body_end].text != ";") {
        ++body_end;
      }
    }
    flag_panics(cond_end + 1, body_end, /*guarded=*/true);
  }
  flag_panics(0, toks.size(), /*guarded=*/false);
}

// R7: a loop that re-validates a remote type tag per iteration (CheckTag or
// ReadTagged) is the token signature of a hand-rolled pointer chase: the
// cursor comes from remote data the peer controls, so without a hop bound a
// rogue peer that splices its chain into a cycle (or grows it forever) hangs
// the surviving reader. Heuristic: the loop counts as bounded when its
// condition or body mentions an identifier containing "hop", "max",
// "attempt", "retr" or "bound" -- the codebase's bound-variable vocabulary
// (max_hops, kMaxVisit, max_retries, attempt). The bounded traversal
// primitives in careful_ref.cc pass on their own bound identifiers.
void CheckR7(const SourceFile& file, std::vector<Diagnostic>* diags) {
  if (!StartsWith(file.rel_path, "src/")) {
    return;  // Tests may exercise deliberately unbounded walks.
  }
  const std::vector<Token>& toks = file.tokens;
  auto is_bound_ident = [](const std::string& text) {
    std::string lower;
    lower.reserve(text.size());
    for (char c : text) {
      lower.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    }
    for (const char* marker : {"hop", "max", "attempt", "retr", "bound"}) {
      if (lower.find(marker) != std::string::npos) {
        return true;
      }
    }
    return false;
  };
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Token::kIdent ||
        (toks[i].text != "for" && toks[i].text != "while") || toks[i + 1].text != "(") {
      continue;
    }
    const size_t cond_open = i + 1;
    const size_t cond_close = MatchForward(toks, cond_open, "(", ")");
    if (cond_close >= toks.size()) {
      continue;
    }
    size_t body_end;
    const size_t body_begin = cond_close + 1;
    if (body_begin < toks.size() && toks[body_begin].text == "{") {
      body_end = MatchForward(toks, body_begin, "{", "}");
    } else {
      body_end = body_begin;
      while (body_end < toks.size() && toks[body_end].text != ";") {
        ++body_end;
      }
    }
    bool tagged_read = false;
    bool bounded = false;
    for (size_t j = cond_open; j <= body_end && j < toks.size(); ++j) {
      if (toks[j].kind != Token::kIdent) {
        continue;
      }
      if ((toks[j].text == "CheckTag" || toks[j].text == "ReadTagged") &&
          j + 1 < toks.size() && (toks[j + 1].text == "(" || toks[j + 1].text == "<")) {
        tagged_read = true;
      } else if (is_bound_ident(toks[j].text)) {
        bounded = true;
      }
    }
    if (tagged_read && !bounded) {
      diags->push_back(
          {file.rel_path, toks[i].line, "R7",
           "remote pointer-chase loop without a hop bound: per-node tagged reads "
           "(CheckTag/ReadTagged) follow pointers the remote cell controls, so a "
           "rogue peer can hang this reader; use CarefulRef::ChaseChain / "
           "ReadSeqlocked or bound the walk (no-survivor-hang discipline)"});
    }
  }
}

// Matches a template argument list starting at the '<' token at `open`.
// Returns the index of the matching '>' or tokens.size() on failure. Angle
// brackets are ambiguous with comparisons, so the match is budgeted and
// bails on statement punctuation -- callers treat failure as "not a
// template".
size_t MatchAngles(const std::vector<Token>& toks, size_t open) {
  int depth = 0;
  for (size_t j = open; j < toks.size() && j < open + 64; ++j) {
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

// A container declaration starting at token `i`: `std::<kind><args> name`
// followed by ';', '=' or '{' (a parameter, return type or template
// argument is not one). Returns the name's token index, or 0 when there is
// no declaration; `*ptr_key` tells whether the first template argument (the
// key) is a raw pointer.
size_t ContainerDeclName(const std::vector<Token>& toks, size_t i, bool* ptr_key) {
  const size_t n = toks.size();
  if (toks[i].text != "std" || i + 3 >= n || toks[i + 1].text != "::" ||
      toks[i + 3].text != "<") {
    return 0;
  }
  const size_t close = MatchAngles(toks, i + 3);
  if (close + 2 >= n || toks[close + 1].kind != Token::kIdent ||
      (toks[close + 2].text != ";" && toks[close + 2].text != "=" &&
       toks[close + 2].text != "{")) {
    return 0;
  }
  *ptr_key = false;
  int depth = 0;
  for (size_t t = i + 3; t < close; ++t) {
    if (toks[t].text == "<") {
      ++depth;
    } else if (toks[t].text == ">") {
      --depth;
    } else if (toks[t].text == "," && depth == 1) {
      break;
    } else if (toks[t].text == "*" && depth == 1) {
      *ptr_key = true;
    }
  }
  return close + 1;
}

// The identifier a range-for at token `for_tok` iterates: the last token of
// the range expression (`faults` for `state->spec->faults`). Returns "" for
// a classic three-clause for and for a range that ends in a call, whose
// result is a fresh container the loop owns.
std::string RangeForName(const std::vector<Token>& toks, size_t for_tok) {
  const size_t close = MatchForward(toks, for_tok + 1, "(", ")");
  if (close >= toks.size()) {
    return "";
  }
  int depth = 0;
  for (size_t k = for_tok + 2; k < close; ++k) {
    const std::string& p = toks[k].text;
    if (p == "(" || p == "[" || p == "{") {
      ++depth;
    } else if (p == ")" || p == "]" || p == "}") {
      --depth;
    } else if (p == ";" && depth == 0) {
      return "";
    } else if (p == ":" && depth == 0) {
      return toks[close - 1].kind == Token::kIdent ? toks[close - 1].text : "";
    }
  }
  return "";
}

// R10: determinism purity. The campaign layer fingerprints end-to-end runs
// (FNV-1a over final state), and the golden-fingerprint tests require every
// simulation path to be bit-reproducible from the seed. R10 scans every file
// in src/, namespace scope, constructors, lambdas and RAII scopes included
// (DESIGN.md section 6 says why there is no call graph), and flags:
//   - rand/srand/*rand48/random/random_shuffle calls and std::random_device
//     (ambient entropy);
//   - std::chrono {system,steady,high_resolution}_clock::now() and
//     time(nullptr) (host clock reads);
//   - a range-for over a name declared as std::unordered_map/unordered_set
//     (iteration order varies across libstdc++ versions and hash seeds);
//   - a std::map/std::set keyed by a raw pointer, at its declaration
//     (address-order iteration varies run to run under ASLR).
// The unordered names come from every scanned file first: a member declared
// in a header is iterated in its .cc. tests/ and bench/ may time and
// randomize around the simulator.
void CheckR10(const RuleContext& ctx) {
  std::set<std::string> unordered;
  for (const SourceFile& file : *ctx.files) {
    const std::vector<Token>& toks = file.tokens;
    for (size_t i = 0; i + 2 < toks.size(); ++i) {
      if (toks[i + 2].text != "unordered_map" && toks[i + 2].text != "unordered_set") {
        continue;
      }
      bool ptr_key = false;
      const size_t name = ContainerDeclName(toks, i, &ptr_key);
      if (name != 0) {
        unordered.insert(toks[name].text);
      }
    }
  }
  static const std::set<std::string> kBannedCalls = {
      "rand", "srand", "rand_r", "random", "drand48", "lrand48", "mrand48",
      "srand48", "random_shuffle",
  };
  static const std::set<std::string> kClocks = {
      "system_clock", "steady_clock", "high_resolution_clock",
  };
  static const std::string kWhy =
      "; simulation outcomes must be a pure function of the seed "
      "(golden-fingerprint oracle)";
  for (const SourceFile& file : *ctx.files) {
    if (!StartsWith(file.rel_path, "src/")) {
      continue;
    }
    const std::vector<Token>& toks = file.tokens;
    auto text_at = [&toks](size_t j) -> const std::string& {
      static const std::string kNone;
      return j < toks.size() ? toks[j].text : kNone;
    };
    std::set<int> flagged;  // One R10 diagnostic per line.
    auto emit = [&](int line, std::string msg) {
      if (flagged.insert(line).second) {
        ctx.diags->push_back({file.rel_path, line, "R10", std::move(msg)});
      }
    };
    for (size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != Token::kIdent) {
        continue;
      }
      if (kBannedCalls.count(t.text) > 0 && text_at(i + 1) == "(") {
        emit(t.line, "call to '" + t.text + "'" + kWhy);
      } else if (t.text == "random_device") {
        emit(t.line, "std::random_device (hardware entropy)" + kWhy);
      } else if (kClocks.count(t.text) > 0 && text_at(i + 1) == "::" &&
                 text_at(i + 2) == "now") {
        emit(t.line, "wall-clock read 'std::chrono::" + t.text + "::now()'" + kWhy);
      } else if (t.text == "time" && text_at(i + 1) == "(" &&
                 (text_at(i + 2) == "nullptr" || text_at(i + 2) == "NULL" ||
                  text_at(i + 2) == "0")) {
        emit(t.line, "wall-clock read 'time(...)'" + kWhy);
      } else if (t.text == "for" && text_at(i + 1) == "(") {
        const std::string range = RangeForName(toks, i);
        if (unordered.count(range) > 0) {
          emit(t.line, "range-for over unordered container '" + range + "'" + kWhy +
                           "; iterate a sorted copy or restructure if the loop "
                           "affects output, or suppress if provably "
                           "order-independent");
        }
      } else if (text_at(i + 2) == "map" || text_at(i + 2) == "set") {
        bool ptr_key = false;
        const size_t name = ContainerDeclName(toks, i, &ptr_key);
        if (name != 0 && ptr_key) {
          emit(toks[name].line,
               "'" + toks[name].text + "' is a std::map/std::set keyed by a raw pointer; "
               "iteration follows address order, which varies run to run (ASLR, "
               "allocator) -- key by a stable id instead (determinism purity)");
        }
      }
    }
  }
}

template <void (*PerFile)(const SourceFile&, std::vector<Diagnostic>*)>
void ForEachFile(const RuleContext& ctx) {
  for (const SourceFile& file : *ctx.files) {
    PerFile(file, ctx.diags);
  }
}

}  // namespace

const std::vector<RuleInfo>& AllRules() {
  static const std::vector<RuleInfo> kRules = {
      {"R1", "no direct PhysMem access from src/core/", &ForEachFile<CheckR1>},
      {"R2", "RawWrite/RawRead backdoor confined to the fault injector",
       &ForEachFile<CheckR2>},
      {"R3", "BusError caught only by flash::CaptureTrap (unsuppressible)",
       &ForEachFile<CheckR3>},
      {"R7", "remote pointer-chase loops hop-bounded", &ForEachFile<CheckR7>},
      {"R10", "determinism purity: no host clock, entropy or hash-order loop in src/",
       &CheckR10},
      {"R12", "no captured trap handed to Panic in src/core/ (unsuppressible)",
       &ForEachFile<CheckR12>},
  };
  return kRules;
}

std::vector<Suppression> ParseSuppressions(const SourceFile& file,
                                           std::vector<Diagnostic>* diags) {
  std::vector<Suppression> sups;
  for (const Comment& comment : file.comments) {
    const size_t marker = comment.text.find("hive-lint:");
    if (marker == std::string::npos) {
      continue;
    }
    const size_t allow = comment.text.find("allow(", marker);
    const size_t close = allow == std::string::npos ? std::string::npos
                                                    : comment.text.find(')', allow);
    if (close == std::string::npos) {
      diags->push_back({file.rel_path, comment.line, "R0",
                        "malformed hive-lint comment: expected 'allow(<rule>)'"});
      continue;
    }
    // Justification: non-empty text after the closing ')' and a separator.
    std::string rest = comment.text.substr(close + 1);
    while (!rest.empty() && (rest.front() == ':' || rest.front() == '-' ||
                             std::isspace(static_cast<unsigned char>(rest.front())))) {
      rest.erase(rest.begin());
    }
    if (rest.size() < 8) {  // A real reason, not "ok" or empty.
      diags->push_back({file.rel_path, comment.line, "R0",
                        "hive-lint suppression requires a justification after the rule "
                        "('// hive-lint: allow(Rn): <why this is safe>')"});
      continue;
    }
    std::string rules = comment.text.substr(allow + 6, close - allow - 6);
    std::stringstream ss(rules);
    std::string rule;
    while (std::getline(ss, rule, ',')) {
      rule.erase(std::remove_if(rule.begin(), rule.end(),
                                [](char c) { return std::isspace(static_cast<unsigned char>(c)); }),
                 rule.end());
      if (!rule.empty()) {
        sups.push_back({rule, comment.line});
      }
    }
  }
  return sups;
}

}  // namespace lint
