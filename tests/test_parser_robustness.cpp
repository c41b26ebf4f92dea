// Parser robustness suite (label "robustness"). Every file format the
// serving stack reads is written from a real design and bundle, then fed
// back through its reader after seeded mutations: truncation, a token
// replaced by NaN / inf / huge / negative / empty text, a dropped line and
// a duplicated line. Each case must end in a clean parse, a CheckError, or
// (for what-if edit scripts) failed commands — never another exception
// type, and never undefined behavior. Built as its own binary so the ASan
// stage of tools/verify.sh can build and run it alone:
//
//   cmake -B build-asan -S . -DDAGT_SANITIZE="address;undefined"
//   cmake --build build-asan --target dagt_robustness_tests
//   ./build-asan/tests/dagt_robustness_tests

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <typeinfo>
#include <unistd.h>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "designgen/design_suite.hpp"
#include "features/design_data.hpp"
#include "netlist/cell_library.hpp"
#include "netlist/io.hpp"
#include "place/placer.hpp"
#include "serve/feature_service.hpp"
#include "serve/model_bundle.hpp"
#include "serve/prediction_engine.hpp"
#include "whatif/edit_script.hpp"
#include "whatif/whatif_session.hpp"

namespace dagt {
namespace {

namespace fs = std::filesystem;

constexpr int kCasesPerFormat = 50;

// -- Mutations ----------------------------------------------------------------

const char* const kBadTokens[] = {
    "nan",  "-nan", "inf",        "-inf",       "1e39",
    "1e30", "-1",   "2147483647", "-2147483648", "99999999999999999999",
    "0",    "",     "x"};

std::vector<std::string> splitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string joinLines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) out += line + '\n';
  return out;
}

std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.uniformInt(std::uint64_t{n}));
}

std::vector<std::string> tokensOf(const std::string& line) {
  std::istringstream in(line);
  return {std::istream_iterator<std::string>(in),
          std::istream_iterator<std::string>()};
}

std::string joinTokens(const std::vector<std::string>& tokens) {
  std::string line;
  for (const std::string& token : tokens) {
    line += (line.empty() ? "" : " ") + token;
  }
  return line;
}

/// One seeded mutation of a line-oriented text file.
std::string mutateText(const std::string& text, Rng& rng) {
  std::vector<std::string> lines = splitLines(text);
  if (lines.empty()) return text;
  const std::size_t at = pick(rng, lines.size());
  switch (pick(rng, 4)) {
    case 0:  // truncate anywhere, mid-token included
      return text.substr(0, pick(rng, text.size()));
    case 1: {  // replace one token of one line
      std::vector<std::string> tokens = tokensOf(lines[at]);
      if (tokens.empty()) tokens.emplace_back();
      tokens[pick(rng, tokens.size())] =
          kBadTokens[pick(rng, std::size(kBadTokens))];
      lines[at] = joinTokens(tokens);
      break;
    }
    case 2:
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at));
      break;
    default:
      lines.insert(lines.begin() +
                       static_cast<std::ptrdiff_t>(pick(rng, lines.size())),
                   lines[at]);
      break;
  }
  return joinLines(lines);
}

/// The binary counterpart for the weights file: truncate, overwrite one
/// 4- or 8-byte word with a NaN / inf / huge bit pattern (tensor values and
/// the u64 count headers alike), drop a byte range, or duplicate one.
std::string mutateBytes(const std::string& bytes, Rng& rng) {
  std::string out = bytes;
  const std::size_t at = pick(rng, out.size());
  const std::size_t span = 1 + pick(rng, 64);
  switch (pick(rng, 4)) {
    case 0:
      return out.substr(0, at);
    case 1: {
      const float floats[] = {std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity(),
                              std::numeric_limits<float>::max()};
      const std::uint64_t words[] = {~std::uint64_t{0},
                                     std::uint64_t{1} << 62, 0};
      const std::size_t word = at / 4 * 4;
      if (pick(rng, 2) == 0 && word + 4 <= out.size()) {
        const float f = floats[pick(rng, std::size(floats))];
        std::memcpy(&out[word], &f, sizeof(f));
      } else if (word + 8 <= out.size()) {
        const std::uint64_t w = words[pick(rng, std::size(words))];
        std::memcpy(&out[word], &w, sizeof(w));
      }
      return out;
    }
    case 2:
      return out.erase(at, span);
    default:
      return out.insert(at, out.substr(at, span));
  }
}

// -- Fixtures -----------------------------------------------------------------

const fs::path& workDir() {
  // Per-process: ctest runs each case as its own process, concurrently.
  static const fs::path dir = [] {
    const fs::path d = fs::temp_directory_path() /
                       ("dagt_robustness_" + std::to_string(::getpid()));
    fs::create_directories(d);
    return d;
  }();
  return dir;
}

std::string readFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

fs::path writeFile(const fs::path& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  out << contents;
  return path;
}

struct Design {
  designgen::DesignSuite suite{0.2f};
  netlist::TechNode node = netlist::TechNode::k7nm;
  netlist::CellLibrary lib = netlist::CellLibrary::makeNode(node);
  netlist::Netlist nl;
  place::PlacementResult placement;

  Design() : nl(suite.buildNetlist(suite.entry("or1200"), lib)) {
    place::PlacerConfig config;
    config.seed ^= suite.entry("or1200").spec.seed;
    placement = place::Placer::place(nl, config);
  }
};

const Design& design() {
  static const Design* d = new Design();
  return *d;
}

/// A tiny untrained dac23 bundle: the readers, not the model, are on trial.
const fs::path& bundleDir() {
  static const fs::path dir = [] {
    serve::BundleManifest manifest;
    manifest.modelKind = "dac23";
    manifest.variant = "shared";
    manifest.strategy = "robustness";
    manifest.targetNode = netlist::TechNode::k7nm;
    const features::DataConfig data;
    manifest.vocabularyNodes = data.nodes;
    manifest.pinFeatureDim = features::DataPipeline(data).featureDim();
    manifest.model.gnnHidden = 16;
    manifest.model.cnnBaseChannels = 4;
    manifest.model.cnnDim = 8;
    manifest.model.headHidden = 16;
    manifest.model.imageResolution = data.imageResolution;
    manifest.features = data.features;
    const fs::path d = workDir() / "bundle";
    serve::ModelBundle::save(*serve::ModelBundle::instantiate(manifest),
                             manifest, d.string());
    return d;
  }();
  return dir;
}

/// Outcome tally; any exception other than CheckError fails the case.
struct Tally {
  int clean = 0;
  int checkErrors = 0;

  void run(const std::string& what, int index,
           const std::function<void()>& parse) {
    try {
      parse();
      ++clean;
    } catch (const CheckError&) {
      ++checkErrors;
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << " case " << index << ": "
                    << typeid(e).name() << ": " << e.what();
    }
  }

  /// Both outcomes must occur, or the mutator is not exercising the reader.
  void expectBothOutcomes(const std::string& what) const {
    EXPECT_GT(clean, 0) << what << ": no mutation parsed cleanly";
    EXPECT_GT(checkErrors, 0) << what << ": no mutation was rejected";
  }
};

// -- Readers ------------------------------------------------------------------

TEST(ParserRobustness, LibraryMutationsParseOrThrowCheckError) {
  std::ostringstream out;
  netlist::io::writeLibrary(design().lib, out);
  const std::string text = out.str();
  std::ostringstream nl;
  netlist::io::writeNetlist(design().nl, nl);
  Rng rng(101);
  Tally tally;
  for (int i = 0; i < kCasesPerFormat; ++i) {
    const fs::path path =
        writeFile(workDir() / "case.dagtlib", mutateText(text, rng));
    // A library is read to resolve a netlist against (`dagt stats` / `sta`
    // / `opt`), so a cleanly parsed one must also read the design cleanly
    // or with a CheckError.
    tally.run("dagtlib", i, [&] {
      const netlist::CellLibrary lib =
          netlist::io::readLibraryFile(path.string());
      std::istringstream in(nl.str());
      (void)netlist::io::readNetlist(in, lib);
    });
  }
  tally.expectBothOutcomes("dagtlib");
}

TEST(ParserRobustness, LibraryCellArityMustMatchItsFunction) {
  // The arity sizes every instance's pin block, so a count the function
  // does not have must stop at the reader: 2147483647 inputs would make
  // Netlist::addCell allocate gigabytes per cell.
  std::ostringstream out;
  netlist::io::writeLibrary(design().lib, out);
  const std::vector<std::string> lines = splitLines(out.str());
  // lines[2] is the first cell: "cell <name> <function> <inputs> ...".
  std::vector<std::string> cell = tokensOf(lines.at(2));
  ASSERT_EQ(cell.at(0), "cell");
  for (const char* arity : {"0", "3", "2147483647"}) {
    cell.at(3) = arity;
    std::vector<std::string> bad = lines;
    bad[2] = joinTokens(cell);
    std::istringstream in(joinLines(bad));
    EXPECT_THROW((void)netlist::io::readLibrary(in), CheckError) << arity;
  }
}

TEST(ParserRobustness, NetlistMutationsParseOrThrowCheckError) {
  std::ostringstream out;
  netlist::io::writeNetlist(design().nl, out);
  const std::string text = out.str();
  Rng rng(202);
  Tally tally;
  for (int i = 0; i < kCasesPerFormat; ++i) {
    const fs::path path =
        writeFile(workDir() / "case.dagtnl", mutateText(text, rng));
    tally.run("dagtnl", i, [&] {
      (void)netlist::io::readNetlistFile(path.string(), design().lib);
    });
  }
  tally.expectBothOutcomes("dagtnl");
}

TEST(ParserRobustness, PlacementMutationsParseOrThrowCheckError) {
  const fs::path original = workDir() / "original.dagtpl";
  serve::writePlacementFile(design().placement, original.string());
  const std::string text = readFile(original);
  Rng rng(303);
  Tally tally;
  for (int i = 0; i < kCasesPerFormat; ++i) {
    const fs::path path =
        writeFile(workDir() / "case.dagtpl", mutateText(text, rng));
    tally.run("dagtpl", i,
              [&] { (void)serve::readPlacementFile(path.string()); });
  }
  tally.expectBothOutcomes("dagtpl");
}

TEST(ParserRobustness, BundleManifestMutationsLoadOrThrowCheckError) {
  const std::string manifest = readFile(bundleDir() / "manifest.dagtmf");
  const fs::path dir = workDir() / "manifest_case";
  fs::create_directories(dir);
  fs::copy_file(bundleDir() / "weights.dagtprm", dir / "weights.dagtprm",
                fs::copy_options::overwrite_existing);
  Rng rng(404);
  Tally tally;
  for (int i = 0; i < kCasesPerFormat; ++i) {
    writeFile(dir / "manifest.dagtmf", mutateText(manifest, rng));
    tally.run("manifest", i,
              [&] { (void)serve::ModelBundle::load(dir.string()); });
  }
  tally.expectBothOutcomes("manifest");
}

TEST(ParserRobustness, BundleWeightsMutationsLoadOrThrowCheckError) {
  const std::string weights = readFile(bundleDir() / "weights.dagtprm");
  const fs::path dir = workDir() / "weights_case";
  fs::create_directories(dir);
  fs::copy_file(bundleDir() / "manifest.dagtmf", dir / "manifest.dagtmf",
                fs::copy_options::overwrite_existing);
  Rng rng(505);
  Tally tally;
  for (int i = 0; i < kCasesPerFormat; ++i) {
    writeFile(dir / "weights.dagtprm", mutateBytes(weights, rng));
    tally.run("weights", i,
              [&] { (void)serve::ModelBundle::load(dir.string()); });
  }
  tally.expectBothOutcomes("weights");
}

TEST(ParserRobustness, EditScriptMutationsRunOrFailCommands) {
  // One session absorbs every mutated script, so later cases also start
  // from states earlier ones left behind (moved cells, buffers, commits).
  serve::EngineConfig config;
  config.batching = false;
  serve::PredictionEngine engine(config);
  engine.addBundleFromDir(bundleDir().string());
  whatif::WhatIfSession session(engine, "or1200", design().nl, design().node,
                                design().placement);
  const std::string script =
      "resize 5 up\n"
      "query all\n"
      "move 12 40 60\n"
      "query 3\n"
      "buffer 7\n"
      "sync\n"
      "commit\n"
      "resize 9 down\n"
      "query 0\n"
      "revert\n"
      "stats\n";
  Rng rng(606);
  int scriptsWithFailures = 0;
  Tally tally;
  for (int i = 0; i < kCasesPerFormat; ++i) {
    std::istringstream in(mutateText(script, rng));
    std::ostringstream out;
    tally.run("edit script", i, [&] {
      if (whatif::runScript(session, in, out, /*echo=*/false) > 0) {
        ++scriptsWithFailures;
      }
    });
  }
  EXPECT_GT(scriptsWithFailures, 0) << "no mutated command failed";
  // The session must still answer after every mutation it absorbed.
  EXPECT_EQ(session.predictAll().size(),
            static_cast<std::size_t>(session.numEndpoints()));
}

}  // namespace
}  // namespace dagt
