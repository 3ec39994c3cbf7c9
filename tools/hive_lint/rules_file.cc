// Per-file rules R0-R7, ported from hive_lint v1 (they predate the
// whole-program index and deliberately do not use it), the two cross-file
// enum rules R4/R5, and the per-file rule R12. Receiver heuristics are
// documented next to each rule; see DESIGN.md "Verification layers" for the
// discipline each one enforces.

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
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

// R6: the reliable transport retries timed-out requests, so a handler for a
// mutating message type that is registered through the plain
// RegisterInterrupt/RegisterQueued path would re-execute its side effect when
// a retry races a delayed original. Mutating types must use the AtMostOnce
// registration (server-side replay cache) or carry a justified suppression
// explaining why the handler is idempotent by design. Heuristic: a
// RegisterInterrupt/RegisterQueued call site whose argument tokens (next few
// tokens after the call) name a mutating MsgType enumerator. The
// ...AtMostOnce identifiers are distinct tokens and never match.
void CheckR6(const SourceFile& file, std::vector<Diagnostic>* diags) {
  if (!StartsWith(file.rel_path, "src/")) {
    return;  // Tests may register intentionally unsafe handlers.
  }
  static const std::set<std::string> kMutatingTypes = {
      "kForkRemote", "kCreate",      "kUnlink",
      "kBorrowFrames", "kReturnFrame", "kGrantFirewall",
  };
  const std::vector<Token>& toks = file.tokens;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Token::kIdent ||
        (toks[i].text != "RegisterInterrupt" && toks[i].text != "RegisterQueued")) {
      continue;
    }
    if (toks[i + 1].text != "(") {
      continue;  // Mention in a declaration list or comment-adjacent token.
    }
    // The MsgType argument is within the first few tokens of the call
    // (`MsgType :: kFoo` or a bare enumerator); the handler lambda follows.
    for (size_t j = i + 2; j < toks.size() && j < i + 8; ++j) {
      if (toks[j].kind == Token::kIdent && kMutatingTypes.count(toks[j].text) > 0) {
        diags->push_back(
            {file.rel_path, toks[i].line, "R6",
             "non-idempotent RPC handler for MsgType::" + toks[j].text +
                 " registered without the replay cache; use Register" +
                 (toks[i].text == "RegisterInterrupt" ? "Interrupt" : "Queued") +
                 std::string("AtMostOnce so a transport retry cannot re-execute "
                             "the mutation (at-most-once contract, rpc.h)")});
        break;
      }
    }
  }
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

// ---------------------------------------------------------------------------
// Cross-file enum rules R4-R5.
// ---------------------------------------------------------------------------

struct Enumerator {
  std::string name;
  uint64_t value;
  int line;
};

// Parses the body of an enum starting at the '{' token at `open`, resolving
// implicit values. Only literal values are resolved; expressions stop value
// tracking for R5 (none exist in this codebase).
std::vector<Enumerator> ParseEnumBody(const std::vector<Token>& toks, size_t open) {
  std::vector<Enumerator> out;
  uint64_t next_value = 0;
  bool value_known = true;
  for (size_t i = open + 1; i < toks.size() && toks[i].text != "}";) {
    if (toks[i].kind != Token::kIdent) {
      ++i;
      continue;
    }
    Enumerator e{toks[i].text, 0, toks[i].line};
    size_t j = i + 1;
    if (j < toks.size() && toks[j].text == "=") {
      ++j;
      if (j < toks.size() && toks[j].kind == Token::kNumber) {
        e.value = std::stoull(toks[j].text, nullptr, 0);
        next_value = e.value + 1;
        value_known = true;
        ++j;
      } else {
        value_known = false;  // Expression initializer: skip value tracking.
      }
      // Skip to the ',' or '}'.
      while (j < toks.size() && toks[j].text != "," && toks[j].text != "}") {
        ++j;
      }
    } else {
      e.value = next_value++;
    }
    if (value_known) {
      out.push_back(e);
    }
    i = (j < toks.size() && toks[j].text == ",") ? j + 1 : j;
  }
  return out;
}

// Finds `enum [class] <name> [ : type ] {` and returns the index of the '{'.
std::optional<size_t> FindEnum(const std::vector<Token>& toks, const std::string& name) {
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind == Token::kIdent && toks[i].text == "enum") {
      size_t j = i + 1;
      if (j < toks.size() && toks[j].text == "class") {
        ++j;
      }
      if (j < toks.size() && toks[j].kind == Token::kIdent && toks[j].text == name) {
        while (j < toks.size() && toks[j].text != "{" && toks[j].text != ";") {
          ++j;
        }
        if (j < toks.size() && toks[j].text == "{") {
          return j;
        }
      }
    }
  }
  return std::nullopt;
}

// R4: every TraceEvent enumerator appears as `TraceEvent::<name>` inside the
// body of the TraceEventName function definition.
void CheckR4(const std::vector<SourceFile>& files, std::vector<Diagnostic>* diags) {
  const SourceFile* enum_file = nullptr;
  std::vector<Enumerator> events;
  for (const SourceFile& file : files) {
    if (auto open = FindEnum(file.tokens, "TraceEvent")) {
      enum_file = &file;
      events = ParseEnumBody(file.tokens, *open);
      break;
    }
  }
  if (enum_file == nullptr) {
    return;  // Nothing to check in this tree.
  }
  // Locate the TraceEventName definition: identifier followed by '(',
  // a ')' and then '{' (a declaration ends with ';').
  for (const SourceFile& file : files) {
    const std::vector<Token>& toks = file.tokens;
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != Token::kIdent || toks[i].text != "TraceEventName" ||
          toks[i + 1].text != "(") {
        continue;
      }
      size_t j = i + 1;
      int depth = 0;
      while (j < toks.size()) {
        if (toks[j].text == "(") {
          ++depth;
        } else if (toks[j].text == ")") {
          if (--depth == 0) {
            break;
          }
        }
        ++j;
      }
      ++j;
      if (j >= toks.size() || toks[j].text != "{") {
        continue;  // Declaration, not definition.
      }
      // Collect TraceEvent::<name> references in the function body.
      std::set<std::string> handled;
      int body_depth = 0;
      const int fn_line = toks[i].line;
      for (; j < toks.size(); ++j) {
        if (toks[j].text == "{") {
          ++body_depth;
        } else if (toks[j].text == "}") {
          if (--body_depth == 0) {
            break;
          }
        } else if (toks[j].kind == Token::kIdent && toks[j].text == "TraceEvent" &&
                   j + 2 < toks.size() && toks[j + 1].text == "::") {
          handled.insert(toks[j + 2].text);
        }
      }
      for (const Enumerator& e : events) {
        if (handled.count(e.name) == 0) {
          diags->push_back({file.rel_path, fn_line, "R4",
                            "TraceEvent::" + e.name +
                                " is not handled in the TraceEventName switch; the "
                                "post-mortem trace would print '?'"});
        }
      }
      return;
    }
  }
  diags->push_back({enum_file->rel_path, 1, "R4",
                    "enum TraceEvent is defined but no TraceEventName definition was found "
                    "in the scanned tree"});
}

// R5: KernelTypeTag values must be unique; a duplicate tag would let the
// careful reference protocol validate a pointer against the wrong type.
void CheckR5(const std::vector<SourceFile>& files, std::vector<Diagnostic>* diags) {
  for (const SourceFile& file : files) {
    auto open = FindEnum(file.tokens, "KernelTypeTag");
    if (!open) {
      continue;
    }
    std::map<uint64_t, std::string> seen;
    for (const Enumerator& e : ParseEnumBody(file.tokens, *open)) {
      auto [it, inserted] = seen.emplace(e.value, e.name);
      if (!inserted) {
        std::ostringstream msg;
        msg << "duplicate kernel type tag 0x" << std::hex << std::uppercase << e.value
            << std::dec << ": " << e.name << " collides with " << it->second
            << "; the type-tag defense (paper 4.1 step 4) requires unique tags";
        diags->push_back({file.rel_path, e.line, "R5", msg.str()});
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

void RunR4(const RuleContext& ctx) { CheckR4(*ctx.files, ctx.diags); }
void RunR5(const RuleContext& ctx) { CheckR5(*ctx.files, ctx.diags); }

}  // namespace

// Whole-program rules, defined in rules_whole_program.cc.
void CheckR9(const RuleContext& ctx);
void CheckR10(const RuleContext& ctx);
void CheckR11(const RuleContext& ctx);

const std::vector<RuleInfo>& AllRules() {
  static const std::vector<RuleInfo> kRules = {
      {"R1", "no direct PhysMem access from src/core/", &ForEachFile<CheckR1>},
      {"R2", "RawWrite/RawRead backdoor confined to the fault injector",
       &ForEachFile<CheckR2>},
      {"R3", "BusError caught only by flash::CaptureTrap (unsuppressible)",
       &ForEachFile<CheckR3>},
      {"R4", "every TraceEvent enumerator named in TraceEventName", &RunR4},
      {"R5", "KernelTypeTag values pairwise distinct", &RunR5},
      {"R6", "mutating RPC handlers registered at-most-once", &ForEachFile<CheckR6>},
      {"R7", "remote pointer-chase loops hop-bounded", &ForEachFile<CheckR7>},
      {"R9", "Status/Result results consumed, returned, or (void)-justified",
       &CheckR9},
      {"R10", "determinism purity on simulator/campaign-reachable paths",
       &CheckR10},
      {"R11", "tagged remote structures only behind CarefulRef", &CheckR11},
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
