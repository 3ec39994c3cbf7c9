#include "tools/hive_lint/lexer.h"

#include <cctype>
#include <cstddef>

namespace lint {
namespace {

// True when text[i] starts a backslash-newline line splice ("\\\n" or
// "\\\r\n"). `len` receives the splice length.
bool IsSplice(const std::string& text, size_t i, size_t* len) {
  if (i + 1 < text.size() && text[i] == '\\' && text[i + 1] == '\n') {
    *len = 2;
    return true;
  }
  if (i + 2 < text.size() && text[i] == '\\' && text[i + 1] == '\r' &&
      text[i + 2] == '\n') {
    *len = 3;
    return true;
  }
  return false;
}

bool IsRawStringPrefix(const std::string& ident) {
  return ident == "R" || ident == "u8R" || ident == "uR" || ident == "LR" ||
         ident == "UR";
}

// Scans a raw string literal starting at the '"' of `R"delim(`. Returns the
// index one past the closing quote and bumps `line` for embedded newlines.
size_t ScanRawString(const std::string& text, size_t quote, int* line) {
  const size_t n = text.size();
  size_t j = quote + 1;
  std::string delim;
  while (j < n && text[j] != '(') {
    delim.push_back(text[j++]);
  }
  const std::string closer = ")" + delim + "\"";
  size_t end = text.find(closer, j);
  end = end == std::string::npos ? n : end + closer.size();
  for (size_t k = quote; k < end; ++k) {
    if (text[k] == '\n') {
      ++*line;
    }
  }
  return end;
}

// Reads the directive word after a '#' at `hash`, e.g. "if", "endif".
// `after` receives the index one past the word.
std::string DirectiveWord(const std::string& text, size_t hash, size_t* after) {
  const size_t n = text.size();
  size_t j = hash + 1;
  while (j < n && (text[j] == ' ' || text[j] == '\t')) {
    ++j;
  }
  size_t start = j;
  while (j < n && std::isalpha(static_cast<unsigned char>(text[j]))) {
    ++j;
  }
  *after = j;
  return text.substr(start, j - start);
}

// True when the condition after `#if` (starting at `after`) is the literal 0
// (optionally followed by a comment): the canonical disabled-code idiom.
bool ConditionIsZero(const std::string& text, size_t after) {
  const size_t n = text.size();
  size_t j = after;
  while (j < n && (text[j] == ' ' || text[j] == '\t')) {
    ++j;
  }
  if (j >= n || text[j] != '0') {
    return false;
  }
  ++j;
  while (j < n && (text[j] == ' ' || text[j] == '\t' || text[j] == '\r')) {
    ++j;
  }
  return j >= n || text[j] == '\n' || (text[j] == '/' && j + 1 < n &&
                                       (text[j + 1] == '/' || text[j + 1] == '*'));
}

// Skips a disabled `#if 0` region. `i` points anywhere inside the `#if 0`
// line; returns the index just past the terminating directive line (`#endif`
// closing the region, or an `#else`/`#elif` arm -- whose code is potentially
// live and therefore tokenized). Nested conditionals of any flavour are
// tracked so an inner `#ifdef`'s `#endif` does not end the region early.
size_t SkipDisabledRegion(const std::string& text, size_t i, int* line) {
  const size_t n = text.size();
  int depth = 0;
  auto skip_to_eol = [&](size_t k) {
    while (k < n) {
      size_t splice_len = 0;
      if (IsSplice(text, k, &splice_len)) {
        ++*line;
        k += splice_len;
        continue;
      }
      if (text[k] == '\n') {
        ++*line;
        return k + 1;
      }
      ++k;
    }
    return n;
  };
  i = skip_to_eol(i);
  while (i < n) {
    size_t j = i;
    while (j < n && (text[j] == ' ' || text[j] == '\t')) {
      ++j;
    }
    if (j < n && text[j] == '#') {
      size_t after = 0;
      const std::string directive = DirectiveWord(text, j, &after);
      if (directive == "if" || directive == "ifdef" || directive == "ifndef") {
        ++depth;
      } else if (directive == "endif") {
        if (depth == 0) {
          return skip_to_eol(after);
        }
        --depth;
      } else if ((directive == "else" || directive == "elif") && depth == 0) {
        return skip_to_eol(after);
      }
    }
    i = skip_to_eol(i);
  }
  return n;
}

}  // namespace

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

void Tokenize(const std::string& text, SourceFile* out) {
  size_t i = 0;
  int line = 1;
  bool line_start = true;  // Only whitespace seen since the last newline.
  const size_t n = text.size();
  auto peek = [&](size_t ahead) -> char {
    return i + ahead < n ? text[i + ahead] : '\0';
  };
  while (i < n) {
    const char c = text[i];
    size_t splice_len = 0;
    if (IsSplice(text, i, &splice_len)) {
      ++line;
      i += splice_len;
      continue;
    }
    if (c == '\n') {
      ++line;
      ++i;
      line_start = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Preprocessor directive: only `#if 0` regions are interpreted (skipped
    // until a live arm); every other directive's tokens flow through.
    if (c == '#' && line_start) {
      size_t after = 0;
      if (DirectiveWord(text, i, &after) == "if" && ConditionIsZero(text, after)) {
        i = SkipDisabledRegion(text, i, &line);
        line_start = true;
        continue;
      }
      out->tokens.push_back({Token::kPunct, "#", line});
      line_start = false;
      ++i;
      continue;
    }
    // Line comment; a trailing backslash splices the next physical line into
    // the comment, so spliced tails never tokenize as code.
    if (c == '/' && peek(1) == '/') {
      std::string body;
      i += 2;
      while (i < n) {
        if (IsSplice(text, i, &splice_len)) {
          ++line;
          i += splice_len;
          body.push_back(' ');
          continue;
        }
        if (text[i] == '\n') {
          break;
        }
        body.push_back(text[i]);
        ++i;
      }
      out->comments.push_back({body, line});
      continue;
    }
    // Block comment.
    if (c == '/' && peek(1) == '*') {
      size_t start = i + 2;
      i += 2;
      while (i + 1 < n && !(text[i] == '*' && text[i + 1] == '/')) {
        if (text[i] == '\n') {
          ++line;
        }
        ++i;
      }
      const size_t end = i < n ? i : n;
      out->comments.push_back({text.substr(start, end - start), line});
      i = i + 2 < n ? i + 2 : n;
      continue;
    }
    // Raw string literal with no encoding prefix: R"delim( ... )delim".
    if (c == 'R' && peek(1) == '"') {
      i = ScanRawString(text, i + 1, &line);
      out->tokens.push_back({Token::kString, "R\"...\"", line});
      line_start = false;
      continue;
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      const char quote = c;
      size_t j = i + 1;
      while (j < n && text[j] != quote) {
        if (text[j] == '\\') {
          ++j;
          if (j < n && text[j] == '\n') {
            ++line;  // Escaped (spliced) newline inside the literal.
          }
        } else if (text[j] == '\n') {
          ++line;  // Unterminated literal: stay line-accurate anyway.
        }
        ++j;
      }
      out->tokens.push_back(
          {quote == '"' ? Token::kString : Token::kCharLit, text.substr(i, j + 1 - i), line});
      i = j + 1;
      line_start = false;
      continue;
    }
    // Identifier / keyword; an identifier that is exactly a raw-string
    // encoding prefix (u8R, LR, ...) followed by '"' opens a raw string.
    if (IsIdentStart(c)) {
      size_t j = i;
      while (j < n && IsIdentChar(text[j])) {
        ++j;
      }
      const std::string ident = text.substr(i, j - i);
      if (j < n && text[j] == '"' && IsRawStringPrefix(ident)) {
        i = ScanRawString(text, j, &line);
        out->tokens.push_back({Token::kString, "R\"...\"", line});
        line_start = false;
        continue;
      }
      out->tokens.push_back({Token::kIdent, ident, line});
      i = j;
      line_start = false;
      continue;
    }
    // Number (decimal, hex, binary; digit separators and suffixes included).
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t j = i;
      while (j < n && (IsIdentChar(text[j]) || text[j] == '\'')) {
        ++j;
      }
      out->tokens.push_back({Token::kNumber, text.substr(i, j - i), line});
      i = j;
      line_start = false;
      continue;
    }
    // Multi-char punctuation the rules care about; everything else single.
    if (c == '-' && peek(1) == '>') {
      out->tokens.push_back({Token::kPunct, "->", line});
      i += 2;
      line_start = false;
      continue;
    }
    if (c == ':' && peek(1) == ':') {
      out->tokens.push_back({Token::kPunct, "::", line});
      i += 2;
      line_start = false;
      continue;
    }
    out->tokens.push_back({Token::kPunct, std::string(1, c), line});
    ++i;
    line_start = false;
  }
}

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

}  // namespace lint
