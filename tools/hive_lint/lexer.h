// hive_lint lexer: a dependency-free C++ tokenizer shared by every rule.
//
// The token stream is what the rules pattern-match against, so its blind
// spots become rule blind spots. Three classes of input are handled
// explicitly because per-file rules used to false-positive inside them:
//   - raw string literals, including encoding-prefixed forms
//     (R"(..)", u8R"(..)", LR"(..)", uR"(..)", UR"(..)") -- their contents
//     collapse to a single opaque string token;
//   - line-spliced comments: a `//` comment whose line ends in a backslash
//     continues onto the next physical line (the preprocessor splices them
//     before comment removal), so the spliced tail must not be tokenized as
//     code;
//   - `#if 0 ... #endif` regions: disabled code is skipped entirely (an
//     `#else` arm of an `#if 0` is live and is tokenized). Other
//     preprocessor conditionals are not evaluated; their branches all
//     tokenize, which is the conservative choice for a linter.
//
// Comments never enter the token stream; they are collected separately so
// suppression comments can be parsed and commented-out code cannot trip a
// rule.

#ifndef HIVE_TOOLS_HIVE_LINT_LEXER_H_
#define HIVE_TOOLS_HIVE_LINT_LEXER_H_

#include <cstddef>
#include <string>
#include <vector>

namespace lint {

struct Token {
  enum Kind { kIdent, kNumber, kString, kCharLit, kPunct };
  Kind kind;
  std::string text;
  int line;
};

struct Comment {
  std::string text;
  int line;  // Line the comment ends on.
};

struct SourceFile {
  std::string rel_path;  // Relative to the scan root, '/' separators.
  std::vector<Token> tokens;
  std::vector<Comment> comments;
};

// Tokenizes `text` into `out->tokens` / `out->comments`.
void Tokenize(const std::string& text, SourceFile* out);

bool IsIdentStart(char c);
bool IsIdentChar(char c);

// Matches forward from the opener token at `open` to its closer; returns the
// closer's index, or tokens.size() when unmatched.
size_t MatchForward(const std::vector<Token>& toks, size_t open,
                    const std::string& opener, const std::string& closer);

}  // namespace lint

#endif  // HIVE_TOOLS_HIVE_LINT_LEXER_H_
