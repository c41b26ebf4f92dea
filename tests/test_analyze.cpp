// dagt-analyze self-tests. Every rule fires exactly once on its seeded
// fixture and stays quiet on a clean twin, allow() suppresses, the lexer
// keeps its regressions, fact extraction stays byte-stable on a golden
// two-TU project, and each drift row fires on a mini checkout with one
// documented name removed. The token-rule tests keep the DagtLint suite
// name of the standalone linter they were written for.
//
// Fixtures live in tests/analyze_fixtures/ and are never compiled. They are
// analyzed under *virtual* paths (e.g. src/serve/...) because rule scoping
// keys on the repo location of a file, not its on-disk home.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analyze.hpp"

#ifndef DAGT_ANALYZE_FIXTURE_DIR
#error "DAGT_ANALYZE_FIXTURE_DIR must point at tests/analyze_fixtures"
#endif

namespace dagt::analyze {
namespace {

std::string fixturePath(const std::string& name) {
  return std::string(DAGT_ANALYZE_FIXTURE_DIR) + "/" + name;
}

std::string readFixture(const std::string& name) {
  std::ifstream in(fixturePath(name), std::ios::binary);
  if (!in) throw std::runtime_error("cannot open fixture: " + name);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Analyze fixtures under virtual paths: {virtualPath, fixtureFile}.
std::vector<Finding> analyze(
    const std::vector<std::pair<std::string, std::string>>& files) {
  std::vector<SourceFile> sources;
  for (const auto& [virtualPath, fixture] : files) {
    sources.push_back({virtualPath, readFixture(fixture)});
  }
  return analyzeFiles(sources);
}

std::vector<Finding> lintFixture(const std::string& virtualPath,
                                 const std::string& fixtureName) {
  return analyze({{virtualPath, fixtureName}});
}

int countRule(const std::vector<Finding>& findings, const std::string& rule) {
  int n = 0;
  for (const auto& f : findings) {
    if (f.rule == rule) ++n;
  }
  return n;
}

std::map<std::string, int> countByRule(const std::vector<Finding>& findings) {
  std::map<std::string, int> counts;
  for (const auto& f : findings) counts[f.rule] += 1;
  return counts;
}

std::string renderAll(const std::vector<Finding>& findings) {
  std::string out;
  for (const auto& f : findings) {
    out += f.render() + "\n";
  }
  return out;
}

// -- token rules -------------------------------------------------------------

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
  const auto findings = analyzeFiles(
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
  const auto findings = analyzeFiles(
      {{"src/serve/fixture.hpp", readFixture("guarded_by.hpp")}});
  EXPECT_EQ(countRule(findings, "guarded-by-unlocked"), 2)
      << renderAll(findings);
}

TEST(DagtLint, GuardedByFamilyRunsRepoWide) {
  // No path scope: the same pair outside src/serve/ fires the same three.
  const auto findings = analyzeFiles(
      {{"src/nn/fixture.hpp", readFixture("guarded_by.hpp")},
       {"src/nn/fixture.cpp", readFixture("guarded_by.cpp")}});
  EXPECT_EQ(findings.size(), 3u) << renderAll(findings);
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

// -- cross-TU passes ---------------------------------------------------------

TEST(AnalyzeLockOrder, CycleFiresExactlyOnce) {
  const auto findings = analyze({{"src/fixture/cycle_bad.cpp", "cycle_bad.cpp"}});
  ASSERT_EQ(findings.size(), 1u) << renderAll(findings);
  EXPECT_EQ(findings[0].rule, "lock-order-cycle");
  EXPECT_NE(findings[0].message.find("Engine::a_"), std::string::npos);
  EXPECT_NE(findings[0].message.find("Engine::b_"), std::string::npos);
}

TEST(AnalyzeLockOrder, ConsistentOrderIsQuiet) {
  const auto findings =
      analyze({{"src/fixture/cycle_clean.cpp", "cycle_clean.cpp"}});
  EXPECT_TRUE(findings.empty()) << renderAll(findings);
}

TEST(AnalyzeLockOrder, AmbiguousOwnerFiresExactlyOnce) {
  const auto findings =
      analyze({{"src/fixture/ambiguous_bad.cpp", "ambiguous_bad.cpp"}});
  ASSERT_EQ(findings.size(), 1u) << renderAll(findings);
  EXPECT_EQ(findings[0].rule, "lock-order-ambiguous");
  EXPECT_NE(findings[0].message.find("left->mutex_"), std::string::npos);
}

TEST(AnalyzeLockOrder, MutexAnnotationResolvesAmbiguity) {
  const auto findings =
      analyze({{"src/fixture/ambiguous_clean.cpp", "ambiguous_clean.cpp"}});
  EXPECT_TRUE(findings.empty()) << renderAll(findings);
}

TEST(AnalyzeLockOrder, DeclaredOrderViolationFires) {
  const auto findings =
      analyze({{"src/fixture/violation_bad.cpp", "violation_bad.cpp"}});
  ASSERT_EQ(findings.size(), 1u) << renderAll(findings);
  EXPECT_EQ(findings[0].rule, "lock-order-violation");
}

TEST(AnalyzePool, EachLifetimeViolationFiresOnce) {
  const auto findings = analyze({{"src/serve/pool_bad.cpp", "pool_bad.cpp"}});
  const auto counts = countByRule(findings);
  EXPECT_EQ(findings.size(), 3u) << renderAll(findings);
  EXPECT_EQ(counts.at("pool-raw-acquire"), 1);
  EXPECT_EQ(counts.at("pool-manual-release"), 1);
  EXPECT_EQ(counts.at("pool-foreign-buffer"), 1);
}

TEST(AnalyzePool, DoubleReleaseFiresOnceInsidePool) {
  const auto findings =
      analyze({{"src/tensor/storage.cpp", "pool_double.cpp"}});
  ASSERT_EQ(findings.size(), 1u) << renderAll(findings);
  EXPECT_EQ(findings[0].rule, "pool-double-release");
  EXPECT_NE(findings[0].message.find("chunk"), std::string::npos);
}

TEST(AnalyzePool, MakeOutPathIsQuiet) {
  const auto findings =
      analyze({{"src/serve/pool_clean.cpp", "pool_clean.cpp"}});
  EXPECT_TRUE(findings.empty()) << renderAll(findings);
}

TEST(AnalyzeGuardedBy, GapFiresExactlyOnce) {
  const auto findings =
      analyze({{"src/fixture/guarded_bad.cpp", "guarded_bad.cpp"}});
  ASSERT_EQ(findings.size(), 1u) << renderAll(findings);
  EXPECT_EQ(findings[0].rule, "guarded-by-gap");
  EXPECT_NE(findings[0].message.find("Cache::values_"), std::string::npos);
}

TEST(AnalyzeGuardedBy, AnnotationSilencesGap) {
  const auto findings =
      analyze({{"src/fixture/guarded_clean.cpp", "guarded_clean.cpp"}});
  EXPECT_TRUE(findings.empty()) << renderAll(findings);
}

TEST(AnalyzeGuardedBy, AllowSuppressesOnMutationLine) {
  const auto findings =
      analyze({{"src/fixture/guarded_allowed.cpp", "guarded_allowed.cpp"}});
  EXPECT_TRUE(findings.empty()) << renderAll(findings);
}

TEST(AnalyzeGuardedBy, TypoedAnnotationFiresExactlyOnce) {
  const auto findings =
      analyze({{"src/fixture/guarded_typo.cpp", "guarded_typo.cpp"}});
  ASSERT_EQ(findings.size(), 1u) << renderAll(findings);
  EXPECT_EQ(findings[0].rule, "guarded-by-unknown");
  EXPECT_NE(findings[0].message.find("queueMutx_"), std::string::npos);
}

TEST(AnalyzeKernelTable, MissingSlotFiresExactlyOnce) {
  const auto findings =
      analyze({{"src/fixture/kernels.hpp", "kernels.hpp"},
               {"src/fixture/kernels_partial.cpp", "kernels_partial.cpp"}});
  ASSERT_EQ(findings.size(), 1u) << renderAll(findings);
  EXPECT_EQ(findings[0].rule, "kernel-table-complete");
  EXPECT_NE(findings[0].message.find("'scale'"), std::string::npos);
}

TEST(AnalyzeKernelTable, MissingFusedSlotFiresExactlyOnce) {
  // The expression compiler lowers straight to the fused* slots, so a tier
  // that forgets one calls a null pointer on its first compiled replay.
  const auto findings =
      analyze({{"src/fixture/kernels.hpp", "kernels.hpp"},
               {"src/fixture/kernels_unfused.cpp", "kernels_unfused.cpp"}});
  ASSERT_EQ(findings.size(), 1u) << renderAll(findings);
  EXPECT_EQ(findings[0].rule, "kernel-table-complete");
  EXPECT_NE(findings[0].message.find("'fusedEwRows'"), std::string::npos);
}

TEST(AnalyzeKernelTable, CompleteTableIsQuiet) {
  const auto findings =
      analyze({{"src/fixture/kernels.hpp", "kernels.hpp"},
               {"src/fixture/kernels_complete.cpp", "kernels_complete.cpp"}});
  EXPECT_TRUE(findings.empty()) << renderAll(findings);
}

// -- docs drift --------------------------------------------------------------

/// The mini checkout in drift/ (paths relative to it) plus a
/// docs/static-analysis.md naming every rule id, as the real page must.
std::vector<SourceFile> driftCheckout() {
  namespace fs = std::filesystem;
  const fs::path root = fixturePath("drift");
  std::vector<SourceFile> files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const std::string path = fs::relative(entry.path(), root).generic_string();
    files.push_back({path, readFixture("drift/" + path)});
  }
  std::string page;
  for (const Rule& rule : ruleTable()) {
    page += "`" + std::string(rule.id) + "`\n";
  }
  files.push_back({"docs/static-analysis.md", page});
  return files;
}

/// Drop every backticked mention of `name` from the page at `path`.
void undocument(std::vector<SourceFile>& files, const std::string& path,
                const std::string& name) {
  for (auto& file : files) {
    if (file.path != path) continue;
    const std::string quoted = "`" + name + "`";
    for (auto at = file.text.find(quoted); at != std::string::npos;
         at = file.text.find(quoted)) {
      file.text.erase(at, quoted.size());
    }
  }
}

void dropFile(std::vector<SourceFile>& files, const std::string& path) {
  std::erase_if(files, [&](const SourceFile& f) { return f.path == path; });
}

TEST(AnalyzeDrift, DocumentedNamesAreQuiet) {
  const auto findings = analyzeFiles(driftCheckout(), true);
  EXPECT_TRUE(findings.empty()) << renderAll(findings);
}

TEST(AnalyzeDrift, UndocumentedSpanAndKnobEachFireOnce) {
  auto files = driftCheckout();
  undocument(files, "docs/observability.md", "serve/fixture");
  undocument(files, "docs/performance.md", "DAGT_FIXTURE_KNOB");
  const auto findings = analyzeFiles(files, true);
  const auto counts = countByRule(findings);
  EXPECT_EQ(findings.size(), 2u) << renderAll(findings);
  EXPECT_EQ(counts.at("span-drift"), 1);
  EXPECT_EQ(counts.at("knob-drift"), 1);
  for (const auto& f : findings) {
    EXPECT_TRUE(f.message.find("serve/fixture") != std::string::npos ||
                f.message.find("DAGT_FIXTURE_KNOB") != std::string::npos)
        << f.render();
  }
}

TEST(AnalyzeDrift, KnobReadThroughAnyHelperFiresOnce) {
  // engine.cpp reads DAGT_FIXTURE_WRAPPED through anyHelper(), not getenv.
  auto files = driftCheckout();
  undocument(files, "docs/performance.md", "DAGT_FIXTURE_WRAPPED");
  const auto findings = analyzeFiles(files, true);
  ASSERT_EQ(findings.size(), 1u) << renderAll(findings);
  EXPECT_EQ(findings[0].rule, "knob-drift");
  EXPECT_EQ(findings[0].path, "src/serve/engine.cpp");
}

TEST(AnalyzeDrift, EachRowFiresOnceForOneUndocumentedName) {
  struct Case {
    const char* row;
    const char* page;
    const char* name;
  };
  const Case cases[] = {
      // The page still says fixture_requests in prose between two spans.
      {"metric-drift", "docs/metrics-reference.md", "fixture_requests"},
      {"metric-drift", "docs/metrics-reference.md",
       "fixture_spans.<name>.count"},
      {"span-drift", "docs/observability.md", "retrieval/fixture_probe"},
      {"knob-drift", "docs/performance.md", "DAGT_RETRIEVAL_FIXTURE_K"},
      {"tier-drift", "docs/performance.md", "fixture_tier"},
      {"option-drift", "docs/performance.md", "DAGT_FIXTURE_OPTION"},
      {"bench-drift", "docs/performance.md", "bench_fixture"},
      {"command-drift", "docs/whatif.md", "nudge"},
      {"rule-drift", "docs/static-analysis.md", "pragma-once"},
      {"retrieval-drift", "docs/retrieval.md", "DAGT_RETRIEVAL_FIXTURE_K"},
      {"retrieval-drift", "docs/retrieval.md", "retrieval/fixture_probe"},
      {"retrieval-drift", "docs/retrieval.md", "retrieval_fixture_hits"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.page) + " without `" + c.name + "`");
    auto files = driftCheckout();
    undocument(files, c.page, c.name);
    const auto findings = analyzeFiles(files, true);
    ASSERT_EQ(findings.size(), 1u) << renderAll(findings);
    EXPECT_EQ(findings[0].rule, c.row);
  }
}

TEST(AnalyzeDrift, MissingPageFiresOnce) {
  auto files = driftCheckout();
  dropFile(files, "docs/whatif.md");
  const auto findings = analyzeFiles(files, true);
  ASSERT_EQ(findings.size(), 1u) << renderAll(findings);
  EXPECT_EQ(findings[0].rule, "command-drift");
  EXPECT_NE(findings[0].message.find("does not exist"), std::string::npos);
}

TEST(AnalyzeDrift, LostGeneratedMarkersFireOnce) {
  auto files = driftCheckout();
  for (auto& file : files) {
    if (file.path != "docs/metrics-reference.md") continue;
    file.text.erase(file.text.find("BEGIN GENERATED"), 5);
  }
  const auto findings = analyzeFiles(files, true);
  ASSERT_EQ(findings.size(), 1u) << renderAll(findings);
  EXPECT_EQ(findings[0].rule, "metric-drift");
  EXPECT_NE(findings[0].message.find("GENERATED"), std::string::npos);
}

TEST(AnalyzeDrift, EmptyRegistryFiresOnce) {
  // Without the command table the what-if row extracts nothing: a broken
  // extraction must not pass as "every name documented".
  auto files = driftCheckout();
  dropFile(files, "src/whatif/edit_script.cpp");
  auto findings = analyzeFiles(files, true);
  ASSERT_EQ(findings.size(), 1u) << renderAll(findings);
  EXPECT_EQ(findings[0].rule, "command-drift");
  EXPECT_NE(findings[0].message.find("extraction broke"), std::string::npos);

  // Each slice is guarded apart: without its one span the retrieval row
  // still extracts knobs and metric keys, and still fires.
  files = driftCheckout();
  for (auto& file : files) {
    if (file.path != "src/serve/engine.cpp") continue;
    const std::string span = "DAGT_TRACE_SCOPE(\"retrieval/fixture_probe\");";
    const std::size_t at = file.text.find(span);
    ASSERT_NE(at, std::string::npos);
    file.text.erase(at, span.size());
  }
  findings = analyzeFiles(files, true);
  ASSERT_EQ(findings.size(), 1u) << renderAll(findings);
  EXPECT_EQ(findings[0].rule, "retrieval-drift");
  EXPECT_NE(findings[0].message.find("'retrieval/'"), std::string::npos);
  EXPECT_NE(findings[0].message.find("extraction broke"), std::string::npos);
}

// -- golden fact extraction --------------------------------------------------

std::string goldenDump() {
  std::string dump;
  for (const char* name : {"mini_engine.hpp", "mini_engine.cpp"}) {
    const std::string virtualPath = std::string("golden/") + name;
    dump += serializeFacts(
        extractFacts(virtualPath, lex(readFixture(virtualPath))));
  }
  return dump;
}

TEST(AnalyzeGolden, FactExtractionMatchesCommittedDump) {
  const std::string dump = goldenDump();
  const std::string goldenFile = fixturePath("golden/golden_facts.txt");
  if (std::getenv("DAGT_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(goldenFile, std::ios::binary);
    out << dump;
    GTEST_SKIP() << "regenerated " << goldenFile;
  }
  std::ifstream in(goldenFile, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden dump; run with DAGT_UPDATE_GOLDEN=1 to create it";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(dump, expected.str());
}

TEST(AnalyzeGolden, GoldenFactsCoverEveryChannel) {
  // Guards against the extractor silently losing a fact family: the mini
  // project deliberately exercises each record kind that applies to it.
  const std::string dump = goldenDump();
  for (const char* record : {"mutex\t", "guard\t", "fn\t", "acq\t", "mut\t",
                             "span\t", "env\t"}) {
    EXPECT_NE(dump.find(record), std::string::npos)
        << "no '" << record << "' record in golden dump:\n" << dump;
  }
}

}  // namespace
}  // namespace dagt::analyze
