#pragma once

// The three rule families behind analyzeFiles(); private to the checker.

#include <map>
#include <string>
#include <vector>

#include "analyze.hpp"

namespace dagt::analyze {

void tokenRules(const std::string& path, const LexedFile& lexed,
                std::vector<Finding>& out);

void crossTuPasses(const std::vector<TuFacts>& tus, std::vector<Finding>& out);

/// Drift registries: registry -> name -> the first site that names it.
struct Site {
  std::string path;
  int line = 0;
};
using Registries = std::map<Registry, std::map<std::string, Site>>;

void collectNames(const TuFacts& facts, const LexedFile& lexed,
                  Registries& names);
void collectCmakeNames(const SourceFile& file, Registries& names);

/// Check every drift row; pages are looked up by path in `files`.
void driftRows(Registries names, const std::vector<SourceFile>& files,
               std::vector<Finding>& out);

}  // namespace dagt::analyze
