#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "lexer.hpp"

namespace dagt::lint {

namespace {

// ---------------------------------------------------------------------------
// Rule scoping
// ---------------------------------------------------------------------------

bool isOpKernel(const std::string& path) {
  return startsWith(path, "src/tensor/ops_") && endsWith(path, ".cpp");
}

bool isHotHeader(const std::string& path) {
  return path == "src/tensor/ops_common.hpp" || path == "src/common/parallel.hpp";
}

bool isKernelTierFile(const std::string& path) {
  return startsWith(path, "src/tensor/kernels/");
}

/// Raw x86 SIMD surface: _mm_/_mm256_/_mm512_ intrinsic calls and the
/// __m128/__m256/__m512 register types.
bool isRawSimdIdent(const std::string& t) {
  if (startsWith(t, "_mm")) {
    return t.size() > 3 &&
           (t[3] == '_' || std::isdigit(static_cast<unsigned char>(t[3])));
  }
  if (startsWith(t, "__m")) {
    return t.size() > 3 && std::isdigit(static_cast<unsigned char>(t[3]));
  }
  return false;
}

/// Kernel tier translation units: the files that build a KernelTable
/// (kernels_scalar.cpp, kernels_avx2.cpp, ...). dispatch.cpp and the
/// headers are not tables.
bool isKernelTierTU(const std::string& path) {
  return startsWith(path, "src/tensor/kernels/kernels_") &&
         endsWith(path, ".cpp");
}

/// Fused composite entries of the KernelTable declaration: function-pointer
/// members `void (*fusedX)(...)` whose name starts with "fused". These are
/// the expression compiler's lowering targets, so a tier that forgets one
/// would crash (or silently fall back) the first time a program replays.
std::vector<std::string> collectFusedTableMembers(const LexedFile& lexed) {
  std::vector<std::string> members;
  const auto& toks = lexed.tokens;
  for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
    if (tokenIs(toks, i, "(") && tokenIs(toks, i + 1, "*") &&
        toks[i + 2].kind == TokenKind::kIdent &&
        startsWith(toks[i + 2].text, "fused") && tokenIs(toks, i + 3, ")")) {
      members.push_back(toks[i + 2].text);
    }
  }
  return members;
}

bool isGuardedByScope(const std::string& path) {
  return (startsWith(path, "src/serve/") && endsWith(path, ".hpp")) ||
         (startsWith(path, "src/retrieval/") && endsWith(path, ".hpp")) ||
         path == "src/tensor/storage.hpp" ||
         path == "src/core/batch_prefetcher.hpp";
}

bool isLoggingExempt(const std::string& path) {
  return !startsWith(path, "src/") || startsWith(path, "src/common/logging");
}

bool isRngExempt(const std::string& path) {
  return !startsWith(path, "src/") || startsWith(path, "src/common/rng");
}

// ---------------------------------------------------------------------------
// Suppressions: "dagt-lint: allow(rule)" on the finding's line or the line
// directly above.
// ---------------------------------------------------------------------------

std::map<int, std::set<std::string>> parseAllows(const LexedFile& lexed) {
  std::map<int, std::set<std::string>> allows;
  for (const auto& [line, body] : lexed.commentByLine) {
    std::size_t at = body.find("dagt-lint:");
    while (at != std::string::npos) {
      std::size_t open = body.find("allow(", at);
      if (open == std::string::npos) break;
      const std::size_t close = body.find(')', open);
      if (close == std::string::npos) break;
      std::string rule = body.substr(open + 6, close - open - 6);
      rule.erase(std::remove_if(rule.begin(), rule.end(),
                                [](char c) {
                                  return std::isspace(
                                      static_cast<unsigned char>(c));
                                }),
                 rule.end());
      allows[line].insert(rule);
      at = body.find("dagt-lint:", close);
    }
  }
  return allows;
}

// ---------------------------------------------------------------------------
// Per-file scan state
// ---------------------------------------------------------------------------

struct GuardedByInfo {
  std::map<std::string, int> mutexDeclLine;      // mutex member -> decl line
  std::map<std::string, int> guardedByFirstUse;  // mutex name -> comment line
  std::vector<std::pair<std::string, int>> unknownRefs;
};

/// Mutex members: the token pattern `std :: mutex <ident> ;`.
/// GUARDED_BY references come from the comment channel.
GuardedByInfo collectGuardedBy(const LexedFile& lexed) {
  GuardedByInfo info;
  const auto& toks = lexed.tokens;
  for (std::size_t i = 0; i + 4 < toks.size(); ++i) {
    if (seqAt(toks, i, {"std", "::", "mutex"}) &&
        toks[i + 3].kind == TokenKind::kIdent && tokenIs(toks, i + 4, ";")) {
      info.mutexDeclLine.emplace(toks[i + 3].text, toks[i + 3].line);
    }
  }
  for (const auto& [line, body] : lexed.commentByLine) {
    std::size_t at = body.find("GUARDED_BY(");
    while (at != std::string::npos) {
      const std::size_t close = body.find(')', at);
      if (close == std::string::npos) break;
      const std::string name = body.substr(at + 11, close - at - 11);
      if (info.mutexDeclLine.count(name)) {
        info.guardedByFirstUse.emplace(name, line);
      } else {
        info.unknownRefs.emplace_back(name, line);
      }
      at = body.find("GUARDED_BY(", close);
    }
  }
  return info;
}

/// True when the token stream acquires `mutexName` through any of the
/// std lock idioms: lock_guard / unique_lock / scoped_lock construction
/// naming it, or a direct <name>.lock() call.
bool acquiresMutex(const std::vector<Token>& toks,
                   const std::string& mutexName) {
  static const std::set<std::string> lockTypes = {
      "lock_guard", "unique_lock", "scoped_lock", "shared_lock"};
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind == TokenKind::kIdent && lockTypes.count(toks[i].text)) {
      // The mutex appears within the constructor argument list a few
      // tokens later: `std::lock_guard<std::mutex> lock(mutexName);`.
      const std::size_t limit = std::min(toks.size(), i + 16);
      for (std::size_t k = i + 1; k < limit; ++k) {
        if (tokenIs(toks, k, mutexName.c_str())) return true;
        if (tokenIs(toks, k, ";")) break;
      }
    }
    if (tokenIs(toks, i, mutexName.c_str()) && nextIs(toks, i, ".") &&
        seqAt(toks, i + 2, {"lock", "("})) {
      return true;
    }
  }
  return false;
}

}  // namespace

std::string Finding::render() const {
  std::ostringstream os;
  os << path << ':' << line << ": " << rule << ' ' << message;
  return os.str();
}

std::vector<Finding> lintFiles(const std::vector<SourceFile>& files) {
  std::vector<Finding> findings;

  // Lex everything once up front; guarded-by pairs headers with sources.
  std::map<std::string, LexedFile> lexedByPath;
  for (const auto& file : files) lexedByPath.emplace(file.path, lex(file.text));

  // The fused-kernel-registration rule needs the KernelTable declaration:
  // fused composite entries are collected from kernels.hpp when it is part
  // of the lint set (always true for lintTree; fixture sets provide a
  // trimmed impersonation).
  std::vector<std::string> fusedMembers;
  const auto kernelsHpp = lexedByPath.find("src/tensor/kernels/kernels.hpp");
  if (kernelsHpp != lexedByPath.end()) {
    fusedMembers = collectFusedTableMembers(kernelsHpp->second);
  }

  for (const auto& file : files) {
    const LexedFile& lexed = lexedByPath.at(file.path);
    const auto allows = parseAllows(lexed);
    const auto& toks = lexed.tokens;

    auto emit = [&](int line, const char* rule, std::string message) {
      const auto suppressedAt = [&](int l) {
        const auto it = allows.find(l);
        return it != allows.end() && it->second.count(rule);
      };
      if (suppressedAt(line) || suppressedAt(line - 1)) return;
      findings.push_back({file.path, line, rule, std::move(message)});
    };

    // -- pragma-once --------------------------------------------------------
    if (endsWith(file.path, ".hpp")) {
      bool hasPragmaOnce = false;
      for (const auto& [line, directive] : lexed.directives) {
        if (directive.find("pragma") != std::string::npos &&
            directive.find("once") != std::string::npos) {
          hasPragmaOnce = true;
          break;
        }
      }
      if (!hasPragmaOnce) {
        emit(1, "pragma-once", "header is missing #pragma once");
      }
    }

    // -- kernel-alloc -------------------------------------------------------
    if (isOpKernel(file.path)) {
      static const std::set<std::string> tensorAllocs = {
          "zeros", "ones", "full", "fromVector", "randn", "randu"};
      static const std::set<std::string> storageAllocs = {"allocate", "zeros",
                                                          "adopt"};
      static const std::set<std::string> cAllocs = {"malloc", "calloc",
                                                    "realloc"};
      for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token& t = toks[i];
        if (t.kind != TokenKind::kIdent) continue;
        if (t.text == "Tensor" && nextIs(toks, i, "::") && i + 2 < toks.size() &&
            tensorAllocs.count(toks[i + 2].text)) {
          emit(t.line, "kernel-alloc",
               "op kernels allocate outputs via makeOut/makeView "
               "(BufferPool), not Tensor::" +
                   toks[i + 2].text);
        }
        if (t.text == "Storage" && nextIs(toks, i, "::") &&
            i + 2 < toks.size() && storageAllocs.count(toks[i + 2].text)) {
          emit(t.line, "kernel-alloc",
               "op kernels allocate outputs via makeOut/makeView "
               "(BufferPool), not Storage::" +
                   toks[i + 2].text);
        }
        if (t.text == "new") {
          emit(t.line, "kernel-alloc",
               "op kernels must not allocate with `new`; route buffers "
               "through makeOut/makeView");
        }
        if (cAllocs.count(t.text) && nextIs(toks, i, "(")) {
          emit(t.line, "kernel-alloc",
               "op kernels must not call " + t.text +
                   "(); route buffers through makeOut/makeView");
        }
      }
    }

    // -- hot-header-std-function --------------------------------------------
    if (isHotHeader(file.path)) {
      for (std::size_t i = 0; i < toks.size(); ++i) {
        if (seqAt(toks, i, {"std", "::", "function"})) {
          emit(toks[i].line, "hot-header-std-function",
               "hot-path header must stay free of std::function (type-"
               "erased calls inside per-element loops); take a template "
               "parameter instead");
        }
      }
    }

    // -- intrinsics-outside-kernels -----------------------------------------
    // Raw SIMD belongs behind the dispatch table: the kernel TUs carry the
    // per-tier compile flags (-mavx2/-mfma with -ffp-contract=off) and the
    // rounding contract; an intrinsic anywhere else silently escapes both.
    if (!isKernelTierFile(file.path)) {
      for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind == TokenKind::kIdent && isRawSimdIdent(toks[i].text)) {
          emit(toks[i].line, "intrinsics-outside-kernels",
               "raw SIMD intrinsic '" + toks[i].text +
                   "' outside src/tensor/kernels/; call through "
                   "kernels::active() so dispatch and the rounding contract "
                   "stay in one place");
        }
      }
      static const std::set<std::string> simdHeaders = {
          "immintrin.h", "x86intrin.h", "emmintrin.h", "xmmintrin.h",
          "avxintrin.h", "smmintrin.h", "tmmintrin.h"};
      for (const auto& [line, directive] : lexed.directives) {
        if (directive.find("include") == std::string::npos) continue;
        for (const auto& header : simdHeaders) {
          if (directive.find(header) != std::string::npos) {
            emit(line, "intrinsics-outside-kernels",
                 "#include <" + header +
                     "> outside src/tensor/kernels/; SIMD code lives behind "
                     "the kernel dispatch table");
          }
        }
      }
    }

    // -- unseeded-rng -------------------------------------------------------
    if (!isRngExempt(file.path)) {
      static const std::set<std::string> bannedIdents = {
          "random_device", "mt19937", "mt19937_64", "default_random_engine",
          "minstd_rand"};
      for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token& t = toks[i];
        if (t.kind != TokenKind::kIdent) continue;
        if ((t.text == "rand" || t.text == "srand") && nextIs(toks, i, "(")) {
          emit(t.line, "unseeded-rng",
               t.text + "() bypasses the seeded dagt::Rng; draw from an "
                        "explicitly seeded Rng instead");
        }
        if (bannedIdents.count(t.text)) {
          emit(t.line, "unseeded-rng",
               "std::" + t.text +
                   " bypasses the seeded dagt::Rng; draw from an "
                   "explicitly seeded Rng instead");
        }
      }
    }

    // -- guarded-by ---------------------------------------------------------
    if (isGuardedByScope(file.path)) {
      const GuardedByInfo info = collectGuardedBy(lexed);
      for (const auto& [name, line] : info.mutexDeclLine) {
        if (!info.guardedByFirstUse.count(name)) {
          emit(line, "guarded-by",
               "mutex '" + name +
                   "' has no field annotated // GUARDED_BY(" + name + ")");
        }
      }
      for (const auto& [name, line] : info.unknownRefs) {
        emit(line, "guarded-by-unknown",
             "GUARDED_BY(" + name +
                 ") names no std::mutex member declared in this header");
      }
      // Cross-check: the companion .cpp (or the header's own inline code)
      // must acquire each annotated mutex at least once.
      const std::string cppPath =
          file.path.substr(0, file.path.size() - 4) + ".cpp";
      const auto cppIt = lexedByPath.find(cppPath);
      for (const auto& [name, line] : info.guardedByFirstUse) {
        const bool locked =
            acquiresMutex(toks, name) ||
            (cppIt != lexedByPath.end() &&
             acquiresMutex(cppIt->second.tokens, name));
        if (!locked) {
          emit(line, "guarded-by-unlocked",
               "mutex '" + name + "' guards fields but is never locked in " +
                   (cppIt != lexedByPath.end() ? cppPath
                                               : "this header (no " + cppPath +
                                                     " in the lint set)"));
        }
      }
    }

    // -- stdout-logging -----------------------------------------------------
    if (!isLoggingExempt(file.path)) {
      static const std::set<std::string> printers = {"printf", "fprintf",
                                                     "puts", "putchar"};
      for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token& t = toks[i];
        if (t.kind != TokenKind::kIdent) continue;
        if (t.text == "std" && nextIs(toks, i, "::") && i + 2 < toks.size() &&
            (toks[i + 2].text == "cout" || toks[i + 2].text == "cerr")) {
          emit(t.line, "stdout-logging",
               "library code logs through src/common/logging, not std::" +
                   toks[i + 2].text);
        }
        if (printers.count(t.text) && nextIs(toks, i, "(")) {
          emit(t.line, "stdout-logging",
               "library code logs through src/common/logging, not " + t.text +
                   "()");
        }
      }
    }

    // -- fused-kernel-registration ------------------------------------------
    // A tier TU that zero-seeds its table (`KernelTable x{};`) must assign
    // every fused composite entry declared in kernels.hpp: the expression
    // compiler lowers straight to these slots, so a forgotten registration
    // is a null call the first time a compiled program replays on that
    // tier. Tables seeded by copying another tier (`KernelTable x =
    // avx2Table();`) inherit the base tier's registrations and only
    // override what they specialize.
    if (isKernelTierTU(file.path) && !fusedMembers.empty()) {
      int zeroSeedLine = -1;
      for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (tokenIs(toks, i, "KernelTable") &&
            toks[i + 1].kind == TokenKind::kIdent && tokenIs(toks, i + 2, "{")) {
          zeroSeedLine = toks[i].line;
          break;
        }
      }
      if (zeroSeedLine != -1) {
        for (const std::string& member : fusedMembers) {
          bool assigned = false;
          for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
            if (tokenIs(toks, i, ".") &&
                tokenIs(toks, i + 1, member.c_str()) &&
                tokenIs(toks, i + 2, "=")) {
              assigned = true;
              break;
            }
          }
          if (!assigned) {
            emit(zeroSeedLine, "fused-kernel-registration",
                 "tier table never assigns fused kernel '" + member +
                     "'; register every fused composite for this tier (or "
                     "seed the table from another tier's table)");
          }
        }
      }
    }

    // -- trace-macro-only ---------------------------------------------------
    if (!startsWith(file.path, "src/obs/")) {
      for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if ((tokenIs(toks, i, ".") || tokenIs(toks, i, "::")) &&
            tokenIs(toks, i + 1, "emit") && tokenIs(toks, i + 2, "(")) {
          emit(toks[i + 1].line, "trace-macro-only",
               "TraceRegistry::emit is called directly only inside src/obs/; "
               "everywhere else use DAGT_TRACE_SCOPE/DAGT_TRACE_INSTANT so "
               "DAGT_TRACING=0 compiles the site out");
        }
        if (seqAt(toks, i, {"-", ">", "emit", "("})) {
          emit(toks[i + 2].line, "trace-macro-only",
               "TraceRegistry::emit is called directly only inside src/obs/; "
               "everywhere else use DAGT_TRACE_SCOPE/DAGT_TRACE_INSTANT so "
               "DAGT_TRACING=0 compiles the site out");
        }
      }
    }
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return findings;
}

std::vector<Finding> lintTree(const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<SourceFile> files;
  for (const char* top : {"src", "tools", "bench", "examples", "tests"}) {
    const fs::path dir = fs::path(root) / top;
    if (!fs::exists(dir)) continue;
    for (auto it = fs::recursive_directory_iterator(dir);
         it != fs::recursive_directory_iterator(); ++it) {
      if (it->is_directory()) {
        const std::string name = it->path().filename().string();
        // Build trees and the intentionally-bad lint/analyze fixtures are
        // not part of the linted surface.
        if (startsWith(name, "build") || name == "lint_fixtures" ||
            name == "analyze_fixtures") {
          it.disable_recursion_pending();
        }
        continue;
      }
      const std::string ext = it->path().extension().string();
      if (ext != ".hpp" && ext != ".cpp") continue;
      std::ifstream in(it->path(), std::ios::binary);
      std::ostringstream contents;
      contents << in.rdbuf();
      files.push_back({fs::relative(it->path(), root).generic_string(),
                       contents.str()});
    }
  }
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.path < b.path;
            });
  return lintFiles(files);
}

}  // namespace dagt::lint
