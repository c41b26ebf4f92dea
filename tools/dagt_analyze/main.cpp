// dagt_analyze [ROOT] — run every rule over a repo checkout (default: the
// current directory). The walk reads the root CMakeLists.txt; C++ sources
// and CMakeLists.txt under src/, tools/, bench/, examples/ and tests/
// (build trees and tests/analyze_fixtures/ excluded); and the docs/ pages.
// Prints one line per finding. Exit codes: 0 clean, 1 findings, 2 usage or
// IO error.

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "analyze.hpp"

namespace {

namespace fs = std::filesystem;
using dagt::analyze::SourceFile;

SourceFile readSource(const fs::path& root, const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "dagt_analyze: cannot read " << path.string() << '\n';
    std::exit(2);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return {fs::relative(path, root).generic_string(), text.str()};
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 2 || (argc == 2 && argv[1][0] == '-')) {
    std::cerr << "usage: dagt_analyze [ROOT]\n";
    return 2;
  }
  const fs::path root = argc == 2 ? argv[1] : ".";
  std::vector<SourceFile> files;
  if (fs::exists(root / "CMakeLists.txt")) {
    files.push_back(readSource(root, root / "CMakeLists.txt"));
  }
  for (const std::string top : {"src", "tools", "bench", "examples", "tests",
                                "docs"}) {
    if (!fs::exists(root / top)) continue;
    for (auto it = fs::recursive_directory_iterator(root / top);
         it != fs::recursive_directory_iterator(); ++it) {
      const fs::path& path = it->path();
      const std::string name = path.filename().string();
      if (it->is_directory()) {
        if (name.rfind("build", 0) == 0 || name == "analyze_fixtures") {
          it.disable_recursion_pending();
        }
        continue;
      }
      const std::string ext = path.extension().string();
      if (top == "docs" ? ext == ".md"
                        : ext == ".hpp" || ext == ".cpp" ||
                              name == "CMakeLists.txt") {
        files.push_back(readSource(root, path));
      }
    }
  }
  if (files.empty()) {
    std::cerr << "dagt_analyze: nothing to analyze under '" << root.string()
              << "'\n";
    return 2;
  }
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.path < b.path;
            });

  const auto findings = dagt::analyze::analyzeFiles(files, /*checkDocs=*/true);
  for (const auto& finding : findings) std::cout << finding.render() << '\n';
  std::cout << "dagt_analyze: " << files.size() << " file(s), "
            << findings.size() << " finding(s)\n";
  return findings.empty() ? 0 : 1;
}
