// Drift rows: each row of the rule table with a page names the registries
// (or registry slices) that page must document. A name is documented when
// it appears backticked on the page; metric keys must sit in the page's
// GENERATED section, where a key may also be one segment of a backticked
// path (`trace_spans.<name>.count`). A missing page, lost GENERATED
// markers or a registry slice that extracts nothing are findings too.

#include <algorithm>
#include <sstream>

#include "rules.hpp"

namespace dagt::analyze {

namespace {

const char* noun(Registry registry) {
  static const char* const kNouns[] = {  // in Registry order
      "metric key",   "trace span",   "env knob",        "kernel tier",
      "CMake option", "bench target", "what-if command", "rule id"};
  return kNouns[static_cast<int>(registry)];
}

void add(Registries& names, Registry registry, const std::string& name,
         const std::string& path, int line) {
  if (!name.empty()) names[registry].emplace(name, Site{path, line});
}

/// The leading string literal of each element of `name`'s braced
/// initializer: `name[...] = {"a", ...}` or `name[...] = {{"a", ...}, ...}`.
std::vector<const Token*> initializerNames(const std::vector<Token>& toks,
                                           const char* name) {
  std::vector<const Token*> out;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!tokenIs(toks, i, name)) continue;
    std::size_t k = i + 1;
    if (tokenIs(toks, k, "[")) {
      while (k < toks.size() && !tokenIs(toks, k, "]")) ++k;
      ++k;
    }
    if (!seqAt(toks, k, {"=", "{"})) continue;
    int depth = 1;
    bool elementStart = true;
    for (k += 2; k < toks.size() && depth > 0; ++k) {
      if (elementStart && depth == 1) {
        if (toks[k].kind == TokenKind::kString) out.push_back(&toks[k]);
        if (tokenIs(toks, k, "{") && k + 1 < toks.size() &&
            toks[k + 1].kind == TokenKind::kString) {
          out.push_back(&toks[k + 1]);
        }
      }
      elementStart = depth == 1 && tokenIs(toks, k, ",");
      if (tokenIs(toks, k, "{")) ++depth;
      if (tokenIs(toks, k, "}")) --depth;
    }
    break;
  }
  return out;
}

bool isIdentName(const std::string& s) {
  return std::all_of(s.begin(), s.end(), isIdentChar);
}

/// `key` inside a backticked span on some line of `text`, alone or as a
/// segment between non-identifier characters (`trace_spans.<name>.count`).
/// Prose between two spans does not count.
bool namesSegment(const std::string& text, const std::string& key) {
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    std::size_t close = 0;
    for (std::size_t open = line.find('`'); open != std::string::npos;
         open = line.find('`', close + 1)) {
      close = line.find('`', open + 1);
      if (close == std::string::npos) break;
      const std::string span = line.substr(open + 1, close - open - 1);
      for (std::size_t p = span.find(key); p != std::string::npos;
           p = span.find(key, p + 1)) {
        const std::size_t q = p + key.size();
        if ((p == 0 || !isIdentChar(span[p - 1])) &&
            (q == span.size() || !isIdentChar(span[q]))) {
          return true;
        }
      }
    }
  }
  return false;
}

}  // namespace

void collectNames(const TuFacts& facts, const LexedFile& lexed,
                  Registries& names) {
  const std::string& path = facts.path;
  if (startsWith(path, "tests/")) return;  // tests may trace and read freely
  for (const auto& s : facts.spans) {
    add(names, Registry::kSpans, s.name, path, s.line);
  }
  for (const auto& e : facts.envs) {
    add(names, Registry::kKnobs, e.name, path, e.line);
  }
  const auto& toks = lexed.tokens;
  if (startsWith(path, "src/serve/metrics.")) {
    for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
      if (seqAt(toks, i, {".", "set", "("}) &&
          toks[i + 3].kind == TokenKind::kString &&
          isIdentName(toks[i + 3].text)) {
        add(names, Registry::kMetricKeys, toks[i + 3].text, path,
            toks[i].line);
      }
    }
  }
  for (const Token* t : initializerNames(toks, "kTierNames")) {
    add(names, Registry::kTiers, t->text, path, t->line);
  }
  for (const Token* t : initializerNames(toks, "kWhatifCommands")) {
    add(names, Registry::kCommands, t->text, path, t->line);
  }
}

void collectCmakeNames(const SourceFile& file, Registries& names) {
  struct Pattern {
    const char* call;
    const char* prefix;
    Registry registry;
  };
  static const Pattern kPatterns[] = {
      {"option(", "DAGT_", Registry::kOptions},
      {"set(", "DAGT_", Registry::kOptions},
      {"dagt_bench(", "bench_", Registry::kBenches},
      {"add_executable(", "bench_", Registry::kBenches}};
  const std::string& text = file.text;
  for (const Pattern& p : kPatterns) {
    const std::string needle = std::string(p.call) + p.prefix;
    for (std::size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + 1)) {
      const std::size_t begin = at + std::string(p.call).size();
      std::size_t end = begin;
      while (end < text.size() && isIdentChar(text[end])) ++end;
      const int line = 1 + static_cast<int>(std::count(
                               text.begin(), text.begin() + at, '\n'));
      add(names, p.registry, text.substr(begin, end - begin), file.path, line);
    }
  }
}

void driftRows(Registries names, const std::vector<SourceFile>& files,
               std::vector<Finding>& out) {
  for (const Rule& rule : ruleTable()) {
    add(names, Registry::kRuleIds, rule.id, "", 0);
  }
  for (const Rule& row : ruleTable()) {
    if (row.page == nullptr) continue;
    const std::string page = row.page;
    const auto fail = [&](const std::string& message) {
      out.push_back({row.id, page, 1, message});
    };

    const auto file = std::find_if(files.begin(), files.end(),
                                   [&](const SourceFile& f) {
                                     return f.path == page;
                                   });
    std::string text;
    bool pageOk = false;  // the page exists (with its GENERATED markers)
    if (file == files.end()) {
      fail(page + " does not exist");
    } else if (row.section == nullptr) {
      text = file->text;
      pageOk = true;
    } else {
      const std::size_t begin =
          file->text.find("BEGIN GENERATED: " + std::string(row.section));
      const std::size_t end = file->text.find(
          "END GENERATED: " + std::string(row.section), begin);
      if (begin == std::string::npos || end == std::string::npos) {
        fail(page + " lost its GENERATED: " + row.section + " markers");
      } else {
        text = file->text.substr(begin, end - begin);
        pageOk = true;
      }
    }

    for (const Slice& slice : row.slices) {
      bool extracted = false;
      for (const auto& [name, site] : names[slice.registry]) {
        if (!startsWith(name, slice.prefix)) continue;
        extracted = true;
        if (!pageOk) continue;
        const bool documented =
            row.section != nullptr
                ? namesSegment(text, name)
                : text.find("`" + name + "`") != std::string::npos;
        if (documented) continue;
        const bool sited = !site.path.empty();  // rule ids have no site
        out.push_back({row.id, sited ? site.path : page, sited ? site.line : 1,
                       std::string(noun(slice.registry)) + " '" + name +
                           "' is not documented in " + page});
      }
      if (!extracted) {
        const std::string prefix = slice.prefix;
        fail(std::string("no ") + noun(slice.registry) +
             (prefix.empty() ? "" : " starting with '" + prefix + "'") +
             " extracted from the checkout (extraction broke?)");
      }
    }
  }
}

}  // namespace dagt::analyze
