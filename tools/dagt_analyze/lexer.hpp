#pragma once

// Lexer-lite for dagt-analyze. One pass separates a C++ source file into
// four channels:
//
//   tokens       code tokens — identifiers, punctuation, numeric literals
//                (one token per pp-number, digit separators included) and
//                string literals (kind kString, text = the literal's
//                contents so DAGT_TRACE_SCOPE("name") / getenv("DAGT_X")
//                arguments are recoverable at their stream position);
//   directives   raw preprocessor lines (backslash continuations joined);
//   commentByLine  comment text per line (line splices inside // comments
//                are honored — the comment continues on the next line).
//
// This is NOT a compiler front end: no phases, no macro expansion, no
// type system. It is exactly strong enough that the token rules and the
// declaration/scope parser never desynchronize on real code: raw string
// literals R"delim(...)delim" (with u8/u/U/L prefixes), digit separators
// (1'000'000), escaped quotes, block comments and spliced line comments
// all tokenize correctly — each of those once silently swallowed or
// miscounted code in the ad-hoc predecessor.

#include <initializer_list>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace dagt::analyze {

enum class TokenKind : unsigned char {
  kIdent,   // identifier or keyword
  kPunct,   // single punctuation char, or "::"
  kNumber,  // one pp-number, digit separators kept in text
  kString,  // string literal; text is the contents (quotes stripped)
};

struct Token {
  std::string text;
  int line = 0;
  TokenKind kind = TokenKind::kPunct;
};

/// The lexed view of one file.
struct LexedFile {
  std::vector<Token> tokens;
  std::vector<std::pair<int, std::string>> directives;  // (line, raw text)
  std::map<int, std::string> commentByLine;
};

LexedFile lex(const std::string& text);

// -- Character / token helpers shared by the rules ---------------------------

bool isIdentStart(char c);
bool isIdentChar(char c);

/// True when `toks[i].text == want` and the token is code (never matches a
/// string literal whose contents happen to equal `want`).
bool tokenIs(const std::vector<Token>& toks, std::size_t i, const char* want);

/// Token sequence match starting at i; string-literal tokens never match.
bool seqAt(const std::vector<Token>& toks, std::size_t i,
           std::initializer_list<const char*> seq);

bool nextIs(const std::vector<Token>& toks, std::size_t i, const char* want);

bool startsWith(const std::string& s, const std::string& prefix);
bool endsWith(const std::string& s, const std::string& suffix);

}  // namespace dagt::analyze
