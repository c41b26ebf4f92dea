// Self-test for dagt-lint: every rule must fire exactly once on its fixture
// in tests/lint_fixtures/, suppression comments must be honored, and a clean
// file must produce no findings. The fixtures are never compiled — they are
// read from disk and linted under the virtual path of the file they
// impersonate (rule scoping keys on the path, not the real location).

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lexer.hpp"
#include "lint.hpp"

#ifndef DAGT_LINT_FIXTURE_DIR
#error "DAGT_LINT_FIXTURE_DIR must point at tests/lint_fixtures"
#endif

namespace dagt::lint {
namespace {

std::string readFixture(const std::string& name) {
  const std::string path = std::string(DAGT_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open lint fixture: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<Finding> lintFixture(const std::string& virtualPath,
                                 const std::string& fixtureName) {
  return lintFiles({{virtualPath, readFixture(fixtureName)}});
}

int countRule(const std::vector<Finding>& findings, const std::string& rule) {
  int n = 0;
  for (const auto& f : findings) {
    if (f.rule == rule) ++n;
  }
  return n;
}

std::string renderAll(const std::vector<Finding>& findings) {
  std::string out;
  for (const auto& f : findings) {
    out += f.render() + "\n";
  }
  return out;
}

TEST(DagtLint, KernelAllocFiresOnceAndHonorsAllow) {
  const auto findings =
      lintFixture("src/tensor/ops_fixture.cpp", "kernel_alloc.cpp");
  EXPECT_EQ(countRule(findings, "kernel-alloc"), 1) << renderAll(findings);
  EXPECT_EQ(findings.size(), 1u) << renderAll(findings);
  EXPECT_EQ(findings[0].line, 8);
}

TEST(DagtLint, KernelAllocScopedToOpKernels) {
  // The same contents outside src/tensor/ops_*.cpp must not fire.
  const auto findings =
      lintFixture("src/core/trainer_fixture.cpp", "kernel_alloc.cpp");
  EXPECT_EQ(countRule(findings, "kernel-alloc"), 0) << renderAll(findings);
}

TEST(DagtLint, HotHeaderStdFunctionFiresOnceAndHonorsAllow) {
  const auto findings =
      lintFixture("src/tensor/ops_common.hpp", "hot_header_function.hpp");
  EXPECT_EQ(countRule(findings, "hot-header-std-function"), 1)
      << renderAll(findings);
  EXPECT_EQ(findings.size(), 1u) << renderAll(findings);
  EXPECT_EQ(findings[0].line, 10);
}

TEST(DagtLint, HotHeaderRuleScopedToHotHeaders) {
  const auto findings =
      lintFixture("src/serve/callbacks.hpp", "hot_header_function.hpp");
  EXPECT_EQ(countRule(findings, "hot-header-std-function"), 0)
      << renderAll(findings);
}

TEST(DagtLint, PragmaOnceFiresOnHeaderWithoutIt) {
  const auto findings =
      lintFixture("src/nn/fixture.hpp", "missing_pragma.hpp");
  EXPECT_EQ(countRule(findings, "pragma-once"), 1) << renderAll(findings);
  EXPECT_EQ(findings.size(), 1u) << renderAll(findings);
  EXPECT_EQ(findings[0].line, 1);
}

TEST(DagtLint, PragmaOnceIgnoresSourceFiles) {
  const auto findings =
      lintFixture("src/nn/fixture.cpp", "missing_pragma.hpp");
  EXPECT_EQ(countRule(findings, "pragma-once"), 0) << renderAll(findings);
}

TEST(DagtLint, UnseededRngFiresOnceAndHonorsAllow) {
  const auto findings =
      lintFixture("src/core/fixture.cpp", "unseeded_rng.cpp");
  EXPECT_EQ(countRule(findings, "unseeded-rng"), 1) << renderAll(findings);
  EXPECT_EQ(findings.size(), 1u) << renderAll(findings);
  EXPECT_EQ(findings[0].line, 9);
}

TEST(DagtLint, UnseededRngExemptInsideRngSubsystem) {
  const auto findings =
      lintFixture("src/common/rng/fixture.cpp", "unseeded_rng.cpp");
  EXPECT_EQ(countRule(findings, "unseeded-rng"), 0) << renderAll(findings);
}

TEST(DagtLint, GuardedByFamilyFiresOncePerRule) {
  const auto findings = lintFiles(
      {{"src/serve/fixture.hpp", readFixture("guarded_by.hpp")},
       {"src/serve/fixture.cpp", readFixture("guarded_by.cpp")}});
  EXPECT_EQ(countRule(findings, "guarded-by"), 1) << renderAll(findings);
  EXPECT_EQ(countRule(findings, "guarded-by-unknown"), 1)
      << renderAll(findings);
  EXPECT_EQ(countRule(findings, "guarded-by-unlocked"), 1)
      << renderAll(findings);
  EXPECT_EQ(findings.size(), 3u) << renderAll(findings);
}

TEST(DagtLint, GuardedByUnlockedClearedByHeaderWithoutCompanion) {
  // Without the companion .cpp the idle and locked mutexes are both never
  // acquired, so two unlocked findings surface.
  const auto findings = lintFiles(
      {{"src/serve/fixture.hpp", readFixture("guarded_by.hpp")}});
  EXPECT_EQ(countRule(findings, "guarded-by-unlocked"), 2)
      << renderAll(findings);
}

TEST(DagtLint, GuardedByScopedToServeAndStorage) {
  const auto findings = lintFiles(
      {{"src/nn/fixture.hpp", readFixture("guarded_by.hpp")},
       {"src/nn/fixture.cpp", readFixture("guarded_by.cpp")}});
  EXPECT_EQ(findings.size(), 0u) << renderAll(findings);
}

TEST(DagtLint, StdoutLoggingFiresOnceAndHonorsAllow) {
  const auto findings = lintFixture("src/eval/fixture.cpp", "stdout.cpp");
  EXPECT_EQ(countRule(findings, "stdout-logging"), 1) << renderAll(findings);
  EXPECT_EQ(findings.size(), 1u) << renderAll(findings);
  EXPECT_EQ(findings[0].line, 11);
}

TEST(DagtLint, StdoutLoggingExemptOutsideSrc) {
  for (const std::string& path :
       {std::string("tools/report.cpp"), std::string("bench/report.cpp"),
        std::string("src/common/logging/fixture.cpp")}) {
    const auto findings = lintFixture(path, "stdout.cpp");
    EXPECT_EQ(countRule(findings, "stdout-logging"), 0)
        << path << "\n" << renderAll(findings);
  }
}

TEST(DagtLint, TraceMacroOnlyFiresOnceAndHonorsAllow) {
  const auto findings =
      lintFixture("src/serve/fixture.cpp", "trace_emit.cpp");
  EXPECT_EQ(countRule(findings, "trace-macro-only"), 1)
      << renderAll(findings);
  EXPECT_EQ(findings.size(), 1u) << renderAll(findings);
  EXPECT_EQ(findings[0].line, 11);
}

TEST(DagtLint, TraceMacroOnlyExemptInsideObs) {
  const auto findings =
      lintFixture("src/obs/trace_fixture.cpp", "trace_emit.cpp");
  EXPECT_EQ(countRule(findings, "trace-macro-only"), 0)
      << renderAll(findings);
}

TEST(DagtLint, IntrinsicsOutsideKernelsFiresAndHonorsAllow) {
  const auto findings =
      lintFixture("src/core/simd_fixture.cpp", "raw_intrinsics.cpp");
  // Line 5: the <immintrin.h> include. Line 9: __m256 + _mm256_loadu_ps.
  // The _mm256_setzero_ps on line 13 sits under an allow comment.
  EXPECT_EQ(countRule(findings, "intrinsics-outside-kernels"), 3)
      << renderAll(findings);
  EXPECT_EQ(findings.size(), 3u) << renderAll(findings);
  EXPECT_EQ(findings[0].line, 5);
  EXPECT_EQ(findings[1].line, 9);
  EXPECT_EQ(findings[2].line, 9);
}

TEST(DagtLint, IntrinsicsAllowedInsideKernelTierFiles) {
  const auto findings = lintFixture("src/tensor/kernels/kernels_fixture.cpp",
                                    "raw_intrinsics.cpp");
  EXPECT_EQ(countRule(findings, "intrinsics-outside-kernels"), 0)
      << renderAll(findings);
}

TEST(DagtLint, FusedKernelRegistrationFiresOnMissingTierEntry) {
  // The fixture TU zero-seeds a table and forgets fusedGemmEpilogueRows;
  // the trimmed kernels.hpp impersonation supplies the member list.
  const auto findings = lintFiles(
      {{"src/tensor/kernels/kernels.hpp",
        readFixture("fused_registration.hpp")},
       {"src/tensor/kernels/kernels_newtier.cpp",
        readFixture("fused_registration.cpp")}});
  EXPECT_EQ(countRule(findings, "fused-kernel-registration"), 1)
      << renderAll(findings);
  EXPECT_EQ(findings.size(), 1u) << renderAll(findings);
  EXPECT_EQ(findings[0].path, "src/tensor/kernels/kernels_newtier.cpp");
  EXPECT_NE(findings[0].message.find("fusedGemmEpilogueRows"),
            std::string::npos);
}

TEST(DagtLint, FusedKernelRegistrationSkipsCopySeededTables) {
  // A tier built by copying another tier's table inherits its fused
  // registrations — no finding even though nothing is assigned here.
  const std::string copyOnlyTier =
      "namespace dagt::tensor::kernels {\n"
      "const KernelTable& fixtureTable() {\n"
      "  static const KernelTable t = [] {\n"
      "    KernelTable x = otherTable();\n"
      "    x.gemmRows = nullptr;\n"
      "    return x;\n"
      "  }();\n"
      "  return t;\n"
      "}\n"
      "}  // namespace dagt::tensor::kernels\n";
  const auto findings = lintFiles(
      {{"src/tensor/kernels/kernels.hpp",
        readFixture("fused_registration.hpp")},
       {"src/tensor/kernels/kernels_fixturetier.cpp", copyOnlyTier}});
  EXPECT_EQ(countRule(findings, "fused-kernel-registration"), 0)
      << renderAll(findings);
}

TEST(DagtLint, CleanFixtureProducesNoFindings) {
  const auto findings =
      lintFixture("src/serve/clean_fixture.hpp", "clean.hpp");
  EXPECT_EQ(findings.size(), 0u) << renderAll(findings);
}

// ---------------------------------------------------------------------------
// Tokenizer regressions: each fixture encodes a construct that once
// desynchronized the ad-hoc lexer (raw strings swallowing code, spliced
// line comments leaking tokens, digit separators opening bogus char
// literals). The markers pin exact line numbers after the construct.
// ---------------------------------------------------------------------------

const Token* findToken(const LexedFile& lexed, const std::string& text,
                       TokenKind kind) {
  for (const auto& t : lexed.tokens) {
    if (t.kind == kind && t.text == text) return &t;
  }
  return nullptr;
}

TEST(DagtLexer, RawStringsStayOpaqueAndCountLines) {
  const LexedFile lexed = lex(readFixture("tokenizer_raw_string.cpp"));
  // Literal contents never become code tokens...
  EXPECT_EQ(findToken(lexed, "malloc", TokenKind::kIdent), nullptr);
  EXPECT_EQ(findToken(lexed, "_mm256_loadu_ps", TokenKind::kIdent), nullptr);
  // ...but are recoverable as positioned string tokens.
  const Token* plain =
      findToken(lexed, "new malloc( rand() _mm256_loadu_ps", TokenKind::kString);
  ASSERT_NE(plain, nullptr);
  EXPECT_EQ(plain->line, 5);
  const Token* delimited = findToken(
      lexed, "contains )\" quote-close inside", TokenKind::kString);
  ASSERT_NE(delimited, nullptr);
  EXPECT_EQ(delimited->line, 6);
  const Token* multi =
      findToken(lexed, "first\nsecond\nthird", TokenKind::kString);
  ASSERT_NE(multi, nullptr);
  EXPECT_EQ(multi->line, 7);
  // Line counting survives the multi-line body.
  const Token* marker = findToken(lexed, "marker_after_raw", TokenKind::kIdent);
  ASSERT_NE(marker, nullptr);
  EXPECT_EQ(marker->line, 12);
  // And no rule fires on literal contents even under the strictest path.
  const auto findings = lintFixture("src/tensor/ops_fixture.cpp",
                                    "tokenizer_raw_string.cpp");
  EXPECT_EQ(findings.size(), 0u) << renderAll(findings);
}

TEST(DagtLexer, LineCommentSpliceContinuesComment) {
  const LexedFile lexed = lex(readFixture("tokenizer_splice.cpp"));
  // The spliced physical line is comment text, not code.
  EXPECT_EQ(findToken(lexed, "hidden_by_splice", TokenKind::kIdent), nullptr);
  const auto comment = lexed.commentByLine.find(5);
  ASSERT_NE(comment, lexed.commentByLine.end());
  EXPECT_NE(comment->second.find("hidden_by_splice"), std::string::npos);
  const Token* marker = findToken(lexed, "after_splice", TokenKind::kIdent);
  ASSERT_NE(marker, nullptr);
  EXPECT_EQ(marker->line, 7);
  // The rand() hidden behind the splice must not trip unseeded-rng.
  const auto findings =
      lintFixture("src/core/splice_fixture.cpp", "tokenizer_splice.cpp");
  EXPECT_EQ(countRule(findings, "unseeded-rng"), 0) << renderAll(findings);
}

TEST(DagtLexer, DigitSeparatorsStayInsideOneNumber) {
  const LexedFile lexed = lex(readFixture("tokenizer_digit_sep.cpp"));
  EXPECT_NE(findToken(lexed, "1'000'000", TokenKind::kNumber), nullptr);
  EXPECT_NE(findToken(lexed, "0xFF'00", TokenKind::kNumber), nullptr);
  EXPECT_NE(findToken(lexed, "1.5e+10", TokenKind::kNumber), nullptr);
  EXPECT_NE(findToken(lexed, "0x1.8p-3", TokenKind::kNumber), nullptr);
  const Token* marker =
      findToken(lexed, "marker_after_numbers", TokenKind::kIdent);
  ASSERT_NE(marker, nullptr);
  EXPECT_EQ(marker->line, 12);
  // Positive control: the rand() after the separators is real code and
  // still visible to the rule engine at its true line.
  const auto findings =
      lintFixture("src/core/sep_fixture.cpp", "tokenizer_digit_sep.cpp");
  ASSERT_EQ(countRule(findings, "unseeded-rng"), 1) << renderAll(findings);
  EXPECT_EQ(findings[0].line, 9);
}

TEST(DagtLint, FindingRenderFormat) {
  Finding f;
  f.path = "src/a.cpp";
  f.line = 12;
  f.rule = "kernel-alloc";
  f.message = "msg";
  EXPECT_EQ(f.render(), "src/a.cpp:12: kernel-alloc msg");
}

}  // namespace
}  // namespace dagt::lint
