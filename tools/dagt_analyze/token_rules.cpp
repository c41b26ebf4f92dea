// Token rules: project conventions checked on one TU's tokens, directives
// and path. Each rule is scoped by the file's repo-relative path.

#include <cctype>
#include <set>

#include "rules.hpp"

namespace dagt::analyze {

namespace {

bool isOpKernel(const std::string& path) {
  return startsWith(path, "src/tensor/ops_") && endsWith(path, ".cpp");
}

bool isHotHeader(const std::string& path) {
  return path == "src/tensor/ops_common.hpp";
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

/// Library code: src/ outside `exempt` (CLI, tools, benches, examples and
/// tests are never library code).
bool isLibraryOutside(const std::string& path, const char* exempt) {
  return startsWith(path, "src/") && !startsWith(path, exempt);
}

}  // namespace

void tokenRules(const std::string& path, const LexedFile& lexed,
                std::vector<Finding>& out) {
  const auto& toks = lexed.tokens;
  auto emit = [&](int line, const char* rule, std::string message) {
    out.push_back({rule, path, line, std::move(message)});
  };

  // -- pragma-once ------------------------------------------------------------
  if (endsWith(path, ".hpp")) {
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

  // -- kernel-alloc -----------------------------------------------------------
  if (isOpKernel(path)) {
    static const std::set<std::string> tensorAllocs = {
        "zeros", "ones", "full", "fromVector", "randn", "randu"};
    static const std::set<std::string> storageAllocs = {"allocate", "zeros",
                                                        "adopt"};
    static const std::set<std::string> cAllocs = {"malloc", "calloc",
                                                  "realloc"};
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokenKind::kIdent) continue;
      const std::set<std::string>* allocs =
          t.text == "Tensor"    ? &tensorAllocs
          : t.text == "Storage" ? &storageAllocs
                                : nullptr;
      if (allocs != nullptr && nextIs(toks, i, "::") && i + 2 < toks.size() &&
          allocs->count(toks[i + 2].text)) {
        emit(t.line, "kernel-alloc",
             "op kernels allocate outputs via makeOut/makeView "
             "(BufferPool), not " +
                 t.text + "::" + toks[i + 2].text);
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

  // -- hot-header-std-function ------------------------------------------------
  if (isHotHeader(path)) {
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (seqAt(toks, i, {"std", "::", "function"})) {
        emit(toks[i].line, "hot-header-std-function",
             "hot-path header must stay free of std::function (type-"
             "erased calls inside per-element loops); take a template "
             "parameter instead");
      }
    }
  }

  // -- intrinsics-outside-kernels ---------------------------------------------
  // Raw SIMD belongs behind the dispatch table: the kernel TUs carry the
  // per-tier compile flags (-mavx2/-mfma with -ffp-contract=off) and the
  // rounding contract; an intrinsic anywhere else silently escapes both.
  if (!startsWith(path, "src/tensor/kernels/")) {
    for (const Token& t : toks) {
      if (t.kind == TokenKind::kIdent && isRawSimdIdent(t.text)) {
        emit(t.line, "intrinsics-outside-kernels",
             "raw SIMD intrinsic '" + t.text +
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

  // -- unseeded-rng -----------------------------------------------------------
  if (isLibraryOutside(path, "src/common/rng")) {
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

  // -- stdout-logging ---------------------------------------------------------
  if (isLibraryOutside(path, "src/common/logging")) {
    static const std::set<std::string> printers = {"printf", "fprintf", "puts",
                                                   "putchar"};
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

  // -- trace-macro-only -------------------------------------------------------
  if (!startsWith(path, "src/obs/")) {
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      const bool member = tokenIs(toks, i, ".") || tokenIs(toks, i, "::") ||
                          (tokenIs(toks, i, ">") && i > 0 &&
                           tokenIs(toks, i - 1, "-"));
      if (member && tokenIs(toks, i + 1, "emit") && tokenIs(toks, i + 2, "(")) {
        emit(toks[i + 1].line, "trace-macro-only",
             "TraceRegistry::emit is called directly only inside src/obs/; "
             "everywhere else use DAGT_TRACE_SCOPE/DAGT_TRACE_INSTANT so "
             "DAGT_TRACING=0 compiles the site out");
      }
    }
  }
}

}  // namespace dagt::analyze
