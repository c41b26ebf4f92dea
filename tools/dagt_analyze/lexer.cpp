#include "lexer.hpp"

#include <algorithm>
#include <cctype>

namespace dagt::analyze {

bool isIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool isIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool tokenIs(const std::vector<Token>& toks, std::size_t i, const char* want) {
  return i < toks.size() && toks[i].kind != TokenKind::kString &&
         toks[i].text == want;
}

bool seqAt(const std::vector<Token>& toks, std::size_t i,
           std::initializer_list<const char*> seq) {
  std::size_t k = i;
  for (const char* want : seq) {
    if (!tokenIs(toks, k, want)) return false;
    ++k;
  }
  return true;
}

bool nextIs(const std::vector<Token>& toks, std::size_t i, const char* want) {
  return tokenIs(toks, i + 1, want);
}

bool startsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool endsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

namespace {

bool isDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

/// String-literal encoding prefixes. The raw-string marker 'R' must be the
/// last character of the prefix (R", LR", u8R", ...).
bool isLiteralPrefix(const std::string& word, bool* raw) {
  static const char* kPrefixes[] = {"u8", "u", "U", "L", ""};
  for (const char* p : kPrefixes) {
    if (word == p) {
      *raw = false;
      return !word.empty();
    }
    if (word == std::string(p) + "R") {
      *raw = true;
      return true;
    }
  }
  return false;
}

}  // namespace

LexedFile lex(const std::string& text) {
  LexedFile out;
  const std::size_t n = text.size();
  std::size_t i = 0;
  int line = 1;

  auto addComment = [&](int atLine, const std::string& body) {
    auto& slot = out.commentByLine[atLine];
    if (!slot.empty()) slot += ' ';
    slot += body;
  };

  // Consume an ordinary (non-raw) string or char literal body starting just
  // after the opening quote; returns the contents (escapes kept verbatim).
  auto consumeQuoted = [&](char quote) {
    std::string body;
    while (i < n && text[i] != quote) {
      if (text[i] == '\\' && i + 1 < n) {
        body += text[i];
        ++i;  // the escaped character is consumed below
      }
      if (i < n) {
        if (text[i] == '\n') ++line;  // splice or unterminated literal
        body += text[i];
        ++i;
      }
    }
    if (i < n) ++i;  // closing quote
    return body;
  };

  // Consume a raw string body starting just after R" — the delimiter runs
  // to the '(' and the literal ends at )delim". Returns the contents.
  auto consumeRaw = [&](int startLine) {
    std::string delim;
    while (i < n && text[i] != '(' && text[i] != '\n' && delim.size() <= 16) {
      delim += text[i];
      ++i;
    }
    if (i >= n || text[i] != '(') {
      // Malformed raw literal: treat what we saw as an ordinary string so
      // we do not swallow the rest of the file.
      (void)startLine;
      return delim;
    }
    ++i;  // '('
    const std::string closer = ")" + delim + "\"";
    const std::size_t close = text.find(closer, i);
    const std::size_t end = close == std::string::npos ? n : close;
    std::string body = text.substr(i, end - i);
    line += static_cast<int>(std::count(body.begin(), body.end(), '\n'));
    i = close == std::string::npos ? n : close + closer.size();
    return body;
  };

  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    // Preprocessor line (first non-ws char of the line is '#'): consume to
    // end of line, honoring backslash continuations.
    if (c == '#') {
      bool lineStart = true;
      for (std::size_t k = i; k-- > 0;) {
        if (text[k] == '\n') break;
        if (!std::isspace(static_cast<unsigned char>(text[k]))) {
          lineStart = false;
          break;
        }
      }
      if (lineStart) {
        const int startLine = line;
        std::string directive;
        while (i < n) {
          if (text[i] == '\\' && i + 1 < n && text[i + 1] == '\n') {
            directive += ' ';
            ++line;
            i += 2;
            continue;
          }
          if (text[i] == '\n') break;
          directive += text[i];
          ++i;
        }
        out.directives.emplace_back(startLine, directive);
        continue;
      }
    }
    // Line comment. A backslash-newline splice CONTINUES the comment onto
    // the next physical line (phase-2 splicing happens before comment
    // recognition), so code "hidden" behind a spliced // must not tokenize.
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      std::string body;
      const int startLine = line;
      i += 2;
      while (i < n) {
        if (text[i] == '\\' && i + 1 < n && text[i + 1] == '\n') {
          body += ' ';
          ++line;
          i += 2;
          continue;
        }
        if (text[i] == '\n') break;
        body += text[i];
        ++i;
      }
      addComment(startLine, body);
      continue;
    }
    // Block comment (may span lines; body credited to each line it opens).
    if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      i += 2;
      std::string body;
      int bodyLine = line;
      while (i + 1 < n && !(text[i] == '*' && text[i + 1] == '/')) {
        if (text[i] == '\n') {
          addComment(bodyLine, body);
          body.clear();
          ++line;
          bodyLine = line;
        } else {
          body += text[i];
        }
        ++i;
      }
      addComment(bodyLine, body);
      i = std::min(n, i + 2);
      continue;
    }
    // Identifier — or a string-literal prefix (R, L, u8R, ...) when the
    // word is immediately followed by a double quote.
    if (isIdentStart(c)) {
      std::string ident;
      while (i < n && isIdentChar(text[i])) ident += text[i++];
      bool raw = false;
      if (i < n && text[i] == '"' && isLiteralPrefix(ident, &raw)) {
        const int startLine = line;
        ++i;  // opening quote
        std::string body = raw ? consumeRaw(startLine) : consumeQuoted('"');
        out.tokens.push_back({std::move(body), startLine, TokenKind::kString});
        continue;
      }
      if (i < n && text[i] == '\'' && isLiteralPrefix(ident, &raw) && !raw) {
        ++i;  // opening quote of a prefixed char literal (L'x', u'x', ...)
        (void)consumeQuoted('\'');
        continue;
      }
      out.tokens.push_back({std::move(ident), line, TokenKind::kIdent});
      continue;
    }
    // Numeric literal: one pp-number token. Digit separators (') stay part
    // of the number instead of opening a bogus char literal; exponent signs
    // after e/E/p/P stay attached.
    if (isDigit(c) || (c == '.' && i + 1 < n && isDigit(text[i + 1]))) {
      std::string num;
      while (i < n) {
        const char d = text[i];
        if (isIdentChar(d) || d == '.') {
          num += d;
          ++i;
          continue;
        }
        if (d == '\'' && i + 1 < n && isIdentChar(text[i + 1]) &&
            !num.empty()) {
          num += d;  // digit separator
          ++i;
          continue;
        }
        if ((d == '+' || d == '-') && !num.empty() &&
            (num.back() == 'e' || num.back() == 'E' || num.back() == 'p' ||
             num.back() == 'P')) {
          num += d;
          ++i;
          continue;
        }
        break;
      }
      out.tokens.push_back({std::move(num), line, TokenKind::kNumber});
      continue;
    }
    // String literal (no prefix): kept as a positioned token.
    if (c == '"') {
      const int startLine = line;
      ++i;
      std::string body = consumeQuoted('"');
      out.tokens.push_back({std::move(body), startLine, TokenKind::kString});
      continue;
    }
    // Char literal: contents dropped.
    if (c == '\'') {
      ++i;
      (void)consumeQuoted('\'');
      continue;
    }
    // '::' as one token; every other punctuation char stands alone.
    if (c == ':' && i + 1 < n && text[i + 1] == ':') {
      out.tokens.push_back({"::", line, TokenKind::kPunct});
      i += 2;
      continue;
    }
    if (c == '\\' && i + 1 < n && text[i + 1] == '\n') {
      ++line;  // stray line splice in code
      i += 2;
      continue;
    }
    if (!std::isspace(static_cast<unsigned char>(c))) {
      out.tokens.push_back({std::string(1, c), line, TokenKind::kPunct});
    }
    ++i;
  }
  return out;
}

}  // namespace dagt::analyze
