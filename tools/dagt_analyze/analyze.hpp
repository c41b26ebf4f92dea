#pragma once

// dagt-analyze: the repo's static checker. One walk over a checkout lexes
// every C++ file once; three rule families run on what it finds:
//
//   token rules   per-file conventions on one TU's tokens (token_rules.cpp)
//   passes        cross-TU analysis over the merged facts (passes.cpp)
//   drift rows    every registry name must appear on its docs page
//                 (drift.cpp)
//
// The rule table in analyze.cpp is canonical and docs/static-analysis.md
// must name every id in it (the `rule-drift` row).
//
// Suppression: `// dagt-analyze: allow(<rule-id>)` on the finding's line or
// the line above it.

#include <string>
#include <vector>

#include "facts.hpp"
#include "lexer.hpp"

namespace dagt::analyze {

/// One input file. `path` is the repo-relative path (forward slashes) that
/// rule scoping keys on; tests give fixtures the path of the file they
/// impersonate.
struct SourceFile {
  std::string path;
  std::string text;
};

struct Finding {
  std::string rule;
  std::string path;
  int line = 0;
  std::string message;

  /// "file:line: rule-id message" — the grep-able report line.
  std::string render() const;
};

/// Registries the drift rows check against docs pages.
enum class Registry {
  kMetricKeys,  // .set("...") in src/serve/metrics.*
  kSpans,       // DAGT_TRACE_SCOPE / DAGT_TRACE_INSTANT names
  kKnobs,       // DAGT_* env knob reads
  kTiers,       // kTierNames initializer
  kOptions,     // option(DAGT_*) / set(DAGT_*) in CMakeLists.txt
  kBenches,     // dagt_bench(bench_*) / add_executable(bench_*)
  kCommands,    // kWhatifCommands initializer
  kRuleIds,     // every id in ruleTable()
};

struct Rule {
  const char* id;
  // Drift rows only: the page that must name every entry of `registry`,
  // and the GENERATED section of it the names must sit in (metric keys
  // match as a path segment there).
  const char* page = nullptr;
  Registry registry = Registry::kMetricKeys;
  const char* section = nullptr;
};

/// The canonical rule table, in report order.
const std::vector<Rule>& ruleTable();

/// Run every rule over `files`: C++ sources (.hpp/.cpp), CMakeLists.txt
/// files and docs pages, keyed by repo-relative path. The drift rows need a
/// whole checkout, so they run only with `checkDocs`. Findings are sorted
/// by (path, line, rule, message) and already filtered through allow().
std::vector<Finding> analyzeFiles(const std::vector<SourceFile>& files,
                                  bool checkDocs = false);

}  // namespace dagt::analyze
