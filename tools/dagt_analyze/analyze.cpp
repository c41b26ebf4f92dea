// The rule table and analyzeFiles(): one walk lexes each C++ file once,
// runs the token rules and extracts facts and drift names, then the
// cross-TU passes and drift rows run and allow() filters the lot.

#include "analyze.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "rules.hpp"

namespace dagt::analyze {

namespace {

using R = Registry;

const std::vector<Rule> kRules = {
    // Token rules (token_rules.cpp).
    {"kernel-alloc"},
    {"hot-header-std-function"},
    {"pragma-once"},
    {"intrinsics-outside-kernels"},
    {"unseeded-rng"},
    {"stdout-logging"},
    {"trace-macro-only"},
    // Cross-TU passes (passes.cpp).
    {"lock-order-cycle"},
    {"lock-order-ambiguous"},
    {"lock-order-violation"},
    {"pool-raw-acquire"},
    {"pool-manual-release"},
    {"pool-foreign-buffer"},
    {"pool-double-release"},
    {"guarded-by"},
    {"guarded-by-unknown"},
    {"guarded-by-unlocked"},
    {"guarded-by-gap"},
    {"kernel-table-complete"},
    // Drift rows (drift.cpp): page, registry, GENERATED section.
    {"metric-drift", "docs/metrics-reference.md", R::kMetricKeys,
     "serve-metrics-keys"},
    {"span-drift", "docs/observability.md", R::kSpans},
    {"knob-drift", "docs/performance.md", R::kKnobs},
    {"tier-drift", "docs/performance.md", R::kTiers},
    {"option-drift", "docs/performance.md", R::kOptions},
    {"bench-drift", "docs/performance.md", R::kBenches},
    {"command-drift", "docs/whatif.md", R::kCommands},
    {"rule-drift", "docs/static-analysis.md", R::kRuleIds},
};

}  // namespace

const std::vector<Rule>& ruleTable() { return kRules; }

std::string Finding::render() const {
  return path + ":" + std::to_string(line) + ": " + rule + " " + message;
}

std::vector<Finding> analyzeFiles(const std::vector<SourceFile>& files,
                                  bool checkDocs) {
  std::vector<Finding> findings;
  std::vector<TuFacts> tus;
  Registries names;
  for (const SourceFile& file : files) {
    if (endsWith(file.path, ".hpp") || endsWith(file.path, ".cpp")) {
      const LexedFile lexed = lex(file.text);
      tus.push_back(extractFacts(file.path, lexed));
      tokenRules(file.path, lexed, findings);
      collectNames(tus.back(), lexed, names);
    } else if (endsWith(file.path, "CMakeLists.txt")) {
      collectCmakeNames(file, names);
    }
  }
  crossTuPasses(tus, findings);
  if (checkDocs) driftRows(std::move(names), files, findings);

  // allow(<id>) on the finding's line or the line above.
  std::map<std::string, std::map<int, std::set<std::string>>> allows;
  for (const auto& tu : tus) {
    for (const auto& a : tu.annotations) {
      if (a.kind == "allow") allows[tu.path][a.line].insert(a.value);
    }
  }
  const auto allowed = [&](const Finding& f) {
    const auto it = allows.find(f.path);
    if (it == allows.end()) return false;
    for (int probe : {f.line, f.line - 1}) {
      const auto at = it->second.find(probe);
      if (at != it->second.end() && at->second.count(f.rule) != 0) return true;
    }
    return false;
  };
  findings.erase(std::remove_if(findings.begin(), findings.end(), allowed),
                 findings.end());
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
  return findings;
}

}  // namespace dagt::analyze
