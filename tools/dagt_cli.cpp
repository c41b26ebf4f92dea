// dagt — command-line front end to the library.
//
//   dagt gen <design> [--scale S] [--nl out.dagtnl] [--lib out.dagtlib]
//       [--pl out.dagtpl]
//       Generate a named suite design, map it to its node, place it
//       (with the same placement stream the training pipeline uses) and
//       write the netlist / library / placement interchange files.
//
//   dagt stats <netlist.dagtnl> <lib.dagtlib>
//       Table-1 style statistics of a netlist file.
//
//   dagt sta <netlist.dagtnl> <lib.dagtlib> [--routed]
//       Static timing analysis: worst arrival, slack summary against an
//       auto-derived constraint, and the critical-path report.
//
//   dagt opt <netlist.dagtnl> <lib.dagtlib> [--out optimized.dagtnl]
//       Timing optimization (sizing + buffering); reports the improvement.
//
//   dagt train [--scale S] [--epochs E] [--strategy NAME]
//       Train a predictor on the paper's split and print test R^2 rows.
//
//   dagt export [--scale S] [--epochs E] [--strategy NAME] [--out DIR]
//       [--emit DIR]
//       Train like `train`, then save the predictor as a deployable model
//       bundle (manifest + weights) under DIR. --emit additionally writes
//       the test designs' netlist/placement/library interchange files so
//       `dagt predict` can be exercised immediately.
//
//   dagt predict <bundle> <netlist.dagtnl> <lib.dagtlib> [--pl F]
//       [--endpoints I,J,...] [--batch N] [--wait-us U] [--dump]
//       [--metrics-json F]
//       Load a bundle into the serving engine, prepare the design's
//       pre-routing features, run the whole-design GNN once (the engine
//       memoizes it per snapshot) and answer arrival-time queries, each
//       of which then costs a row gather, the CNN and the head. Without
//       --endpoints, predicts every endpoint (bit-exact with the
//       trainer's in-process predictions) and prints a summary; with it,
//       serves the listed endpoints through the batching queue. Serving
//       metrics are printed afterwards (--metrics-json writes them as
//       JSON). Serving latency is measured by `python3 perfbench/run.py
//       --workload point_query --seed 1 --seconds 30 --trace 0` from the
//       repo root.
//
//   dagt whatif <bundle> <netlist.dagtnl> <lib.dagtlib> [--pl F]
//       [--edits FILE] [--repl] [--metrics-json F]
//       Interactive what-if timing: load the design into the serving
//       engine once, then apply ECO edits (cell resize/move, fanout
//       buffering) and re-predict incrementally — only the edit's dirty
//       cone is re-extracted and re-run through the GNN. --edits replays
//       a command file (one command per line, # comments); --repl drops
//       into the interactive loop afterwards (or on its own). Commands:
//       resize, move, buffer, query, sync, commit, revert, stats, help,
//       quit — see docs/whatif.md. Exits nonzero if any scripted command
//       failed.
//
//   dagt trace <command> [args...] [--trace-out F]
//       Run any of the commands above with tracing enabled; writes the
//       Chrome trace_event JSON to F (default dagt_trace.json — load it
//       at chrome://tracing or ui.perfetto.dev) and prints the self-time
//       profile and span coverage. See docs/observability.md.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "common/table.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "core/trainer.hpp"
#include "features/design_data.hpp"
#include "netlist/io.hpp"
#include "place/layout_maps.hpp"
#include "place/placer.hpp"
#include "serve/feature_service.hpp"
#include "serve/model_bundle.hpp"
#include "serve/prediction_engine.hpp"
#include "sta/sta_engine.hpp"
#include "sta/timing_optimizer.hpp"
#include "sta/timing_report.hpp"
#include "whatif/edit_script.hpp"
#include "whatif/whatif_session.hpp"

namespace {

using namespace dagt;

/// The integer flags and the least value each accepts.
const std::map<std::string, std::int32_t> kIntFlagMinimum = {
    {"epochs", 1}, {"batch", 1}, {"wait-us", 0}};

/// A whole decimal number that fits in 32 bits; nullopt for anything else
/// (NaN, a fraction, an exponent, out of range).
std::optional<std::int32_t> parseInt32(const std::string& text) {
  std::int32_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end) return std::nullopt;
  return value;
}

/// The flags that take a finite number above 0.
const std::set<std::string> kPositiveFlags = {"scale"};

/// A finite decimal number above 0 that fits a float; nullopt for anything
/// else (NaN, an infinity, 0, a negative, out of range, trailing text).
std::optional<float> parsePositiveFloat(const std::string& text) {
  float value = 0.0f;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end || !std::isfinite(value) ||
      !(value > 0.0f)) {
    return std::nullopt;
  }
  return value;
}

/// Flag parser with per-subcommand validation: positional args plus
/// --key value / --key=value pairs. Valued flags always consume the next
/// token (so negative numbers like `--shift -0.5` parse unambiguously);
/// boolean flags (declared with a trailing '!') never do. Unknown flags,
/// malformed integer flags (kIntFlagMinimum) and positive-number flags
/// (kPositiveFlags) that are not a finite number above 0 are errors, so a
/// bad value stops a command before it does any work.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;
  std::string error;  // non-empty => parse failed

  /// spec: valued flag names, boolean flags suffixed with '!'.
  static Args parse(int argc, char** argv,
                    const std::vector<std::string>& spec) {
    std::set<std::string> valued, boolean;
    for (const auto& s : spec) {
      if (!s.empty() && s.back() == '!') {
        boolean.insert(s.substr(0, s.size() - 1));
      } else {
        valued.insert(s);
      }
    }
    Args args;
    for (int i = 2; i < argc; ++i) {
      const std::string token = argv[i];
      if (token.rfind("--", 0) != 0) {
        args.positional.push_back(token);
        continue;
      }
      std::string key = token.substr(2);
      std::string value;
      bool inlineValue = false;
      const auto eq = key.find('=');
      if (eq != std::string::npos) {
        value = key.substr(eq + 1);
        key = key.substr(0, eq);
        inlineValue = true;
      }
      if (boolean.count(key)) {
        if (inlineValue) {
          args.error = "flag --" + key + " takes no value";
          return args;
        }
        args.flags[key] = "1";
        continue;
      }
      if (!valued.count(key)) {
        std::string known;
        for (const auto& s : spec) {
          known += known.empty() ? "--" : ", --";
          known += s.back() == '!' ? s.substr(0, s.size() - 1) : s;
        }
        args.error = "unknown flag --" + key +
                     (known.empty() ? " (this command takes no flags)"
                                    : "; valid flags: " + known);
        return args;
      }
      if (!inlineValue) {
        if (i + 1 >= argc) {
          args.error = "flag --" + key + " expects a value";
          return args;
        }
        value = argv[++i];
      }
      const auto minimum = kIntFlagMinimum.find(key);
      if (minimum != kIntFlagMinimum.end()) {
        const auto parsed = parseInt32(value);
        if (!parsed || *parsed < minimum->second) {
          args.error = "flag --" + key + " expects a whole number in [" +
                       std::to_string(minimum->second) + ", " +
                       std::to_string(INT32_MAX) + "], got '" + value + "'";
          return args;
        }
      }
      if (kPositiveFlags.count(key) && !parsePositiveFloat(value)) {
        args.error = "flag --" + key +
                     " expects a finite number above 0, got '" + value + "'";
        return args;
      }
      args.flags[key] = value;
    }
    return args;
  }

  std::string flagOr(const std::string& key, std::string fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  /// A flag of kPositiveFlags, whose value parse() has checked.
  float positiveFlag(const std::string& key, float fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback
                             : parsePositiveFloat(it->second).value();
  }
  /// An integer flag of kIntFlagMinimum, whose value parse() has checked.
  std::int32_t intFlag(const std::string& key, std::int32_t fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : parseInt32(it->second).value();
  }
  bool has(const std::string& key) const { return flags.count(key) > 0; }
};

int usage() {
  std::fprintf(stderr,
               "usage: dagt <gen|stats|sta|opt|train|export|predict|whatif|"
               "trace> [args]\n"
               "run 'dagt' with a command to see its flags in the header "
               "of tools/dagt_cli.cpp\n");
  return 2;
}

int cmdGen(const Args& args) {
  if (args.positional.empty()) return usage();
  const std::string name = args.positional[0];
  const float scale = args.positiveFlag("scale", 1.0f);

  const designgen::DesignSuite suite(scale);
  const auto& entry = suite.entry(name);
  const auto lib = netlist::CellLibrary::makeNode(entry.node);
  auto nl = suite.buildNetlist(entry, lib);
  // Match the training pipeline's per-design placement stream so that a
  // generated file reproduces the exact features a trained model saw.
  place::PlacerConfig placer;
  placer.seed ^= entry.spec.seed;
  const auto placement = place::Placer::place(nl, placer);

  const std::string nlPath = args.flagOr("nl", name + ".dagtnl");
  const std::string libPath = args.flagOr(
      "lib", netlist::techNodeName(entry.node) + ".dagtlib");
  const std::string plPath = args.flagOr("pl", name + ".dagtpl");
  netlist::io::writeNetlistFile(nl, nlPath);
  netlist::io::writeLibraryFile(lib, libPath);
  serve::writePlacementFile(placement, plPath);
  const auto stats = nl.stats();
  std::printf("%s @ %s: %lld pins, %lld endpoints, die %.1fx%.1f um\n",
              name.c_str(), netlist::techNodeName(entry.node).c_str(),
              static_cast<long long>(stats.numPins),
              static_cast<long long>(stats.numEndpoints),
              placement.dieArea.width(), placement.dieArea.height());
  std::printf("wrote %s, %s and %s\n", nlPath.c_str(), libPath.c_str(),
              plPath.c_str());
  return 0;
}

int cmdStats(const Args& args) {
  if (args.positional.size() < 2) return usage();
  const auto lib = netlist::io::readLibraryFile(args.positional[1]);
  const auto nl = netlist::io::readNetlistFile(args.positional[0], lib);
  const auto s = nl.stats();
  TextTable table({"design", "tech node", "#pin", "#edp", "#e_n", "#e_c"});
  table.addRow({nl.name(), netlist::techNodeName(lib.node()),
                std::to_string(s.numPins), std::to_string(s.numEndpoints),
                std::to_string(s.numNetEdges),
                std::to_string(s.numCellEdges)});
  std::printf("%s", table.render().c_str());
  return 0;
}

int cmdSta(const Args& args) {
  if (args.positional.size() < 2) return usage();
  const auto lib = netlist::io::readLibraryFile(args.positional[1]);
  const auto nl = netlist::io::readNetlistFile(args.positional[0], lib);

  sta::TimingResult timing;
  if (args.has("routed")) {
    // Routed model needs a congestion map; derive the die from locations.
    Rect die{{0, 0}, {0, 0}};
    for (netlist::PinId p = 0; p < nl.numPins(); ++p) {
      die.expand(nl.pinLocation(p));
    }
    place::PlacementResult placement;
    placement.dieArea = die;
    const place::LayoutMaps maps(nl, placement, 32);
    timing = sta::StaEngine::run(
        nl, &maps, sta::RouteConfig{sta::WireModel::kRouted, 1.0f, 0.15f});
  } else {
    timing = sta::StaEngine::run(
        nl, nullptr,
        sta::RouteConfig{sta::WireModel::kPreRouting, 0.0f, 0.0f});
  }

  const auto constraints =
      sta::TimingConstraints::fromEstimate(timing.worstArrival);
  const auto slack = sta::computeSlack(nl, timing, constraints);
  std::printf("worst arrival %.1f ps over %zu endpoints\n",
              timing.worstArrival, slack.endpoints.size());
  std::printf("auto constraint: clock %.1f ps -> WNS %.1f ps, TNS %.1f ps, "
              "%lld violations\n",
              constraints.clockPeriod, slack.worstNegativeSlack,
              slack.totalNegativeSlack,
              static_cast<long long>(slack.violatingEndpoints));
  const auto path = sta::traceCriticalPath(nl, timing);
  std::printf("%s", sta::formatPathReport(nl, path).c_str());
  return 0;
}

int cmdOpt(const Args& args) {
  if (args.positional.size() < 2) return usage();
  const auto lib = netlist::io::readLibraryFile(args.positional[1]);
  auto nl = netlist::io::readNetlistFile(args.positional[0], lib);

  Rect die{{0, 0}, {0, 0}};
  for (netlist::PinId p = 0; p < nl.numPins(); ++p) {
    die.expand(nl.pinLocation(p));
  }
  place::PlacementResult placement;
  placement.dieArea = die;
  const place::LayoutMaps maps(nl, placement, 32);
  const auto report = sta::TimingOptimizer::optimize(nl, maps);
  std::printf("resized %d cells, inserted %d buffers: worst arrival "
              "%.1f -> %.1f ps\n",
              report.cellsResized, report.buffersInserted,
              report.worstArrivalBefore, report.worstArrivalAfter);
  if (args.has("out")) {
    netlist::io::writeNetlistFile(nl, args.flagOr("out", "optimized.dagtnl"));
    std::printf("wrote %s\n", args.flagOr("out", "optimized.dagtnl").c_str());
  }
  return 0;
}

// -- Shared training path of `train` and `export` ----------------------------

core::Strategy parseStrategy(const std::string& name, bool* ok) {
  *ok = true;
  if (name == "advonly") return core::Strategy::kAdvOnly;
  if (name == "simplemerge") return core::Strategy::kSimpleMerge;
  if (name == "paramshare") return core::Strategy::kParamShare;
  if (name == "ptft") return core::Strategy::kPretrainFinetune;
  if (name == "ours") return core::Strategy::kOurs;
  *ok = false;
  return core::Strategy::kOurs;
}

/// The paper's split, built once: 7nm target + 130nm sources for training,
/// five 7nm designs held out for test.
struct PaperSplit {
  features::DataConfig dataConfig;
  std::unique_ptr<features::DataPipeline> pipeline;
  std::vector<features::DesignData> train;
  std::vector<features::DesignData> test;
  std::unique_ptr<core::TimingDataset> trainSet;
  std::unique_ptr<core::TimingDataset> testSet;
};

std::unique_ptr<PaperSplit> buildPaperSplit(float scale) {
  auto split = std::make_unique<PaperSplit>();
  split->dataConfig.designScale = scale;
  split->pipeline =
      std::make_unique<features::DataPipeline>(split->dataConfig);
  for (const char* n :
       {"smallboom", "jpeg", "linkruncca", "spiMaster", "usbf_device"}) {
    split->train.push_back(split->pipeline->build(n));
  }
  for (const char* n : {"arm9", "chacha", "hwacha", "or1200", "sha3"}) {
    split->test.push_back(split->pipeline->build(n));
  }
  auto pointers = [](const std::vector<features::DesignData>& v) {
    std::vector<const features::DesignData*> p;
    for (const auto& d : v) p.push_back(&d);
    return p;
  };
  split->trainSet =
      std::make_unique<core::TimingDataset>(pointers(split->train));
  split->testSet =
      std::make_unique<core::TimingDataset>(pointers(split->test));
  split->trainSet->restrictEndpoints(split->train.front(), 48, 99);
  return split;
}

struct TrainedModel {
  std::unique_ptr<PaperSplit> split;
  std::unique_ptr<core::TimingModel> model;
  core::TrainConfig config;
  core::Strategy strategy = core::Strategy::kOurs;
  core::TrainStats stats;
};

TrainedModel trainOnPaperSplit(const Args& args) {
  Log::threshold() = LogLevel::kInfo;
  TrainedModel out;
  const float scale = args.positiveFlag("scale", 0.5f);
  bool ok = false;
  out.strategy = parseStrategy(args.flagOr("strategy", "ours"), &ok);
  DAGT_CHECK_MSG(ok, "unknown strategy '" << args.flagOr("strategy", "ours")
                                          << "' (advonly, simplemerge, "
                                             "paramshare, ptft, ours)");
  out.split = buildPaperSplit(scale);
  out.config.epochs = args.intFlag("epochs", 24);
  out.config.learningRate = 5e-3f;
  const core::Trainer trainer(*out.split->trainSet, out.config);
  out.model = trainer.train(out.strategy, &out.stats);
  return out;
}

void printEvalTable(const TrainedModel& trained) {
  TextTable table({"design", "R2", "runtime (s)"});
  for (const auto& eval :
       core::evaluateModel(*trained.model, *trained.split->testSet)) {
    table.addRow({eval.design, TextTable::num(eval.r2),
                  TextTable::num(eval.runtimeSeconds)});
  }
  std::printf("%s trained in %.1fs\n%s",
              core::strategyName(trained.strategy).c_str(),
              trained.stats.trainSeconds, table.render().c_str());
}

int cmdTrain(const Args& args) {
  const TrainedModel trained = trainOnPaperSplit(args);
  printEvalTable(trained);
  return 0;
}

int cmdExport(const Args& args) {
  const TrainedModel trained = trainOnPaperSplit(args);
  printEvalTable(trained);

  serve::BundleManifest manifest;
  manifest.strategy = core::strategyName(trained.strategy);
  manifest.targetNode = netlist::TechNode::k7nm;
  manifest.vocabularyNodes = trained.split->dataConfig.nodes;
  manifest.pinFeatureDim = trained.split->pipeline->featureDim();
  manifest.model = trained.config.model;
  manifest.model.imageResolution = trained.split->dataConfig.imageResolution;
  manifest.features = trained.split->dataConfig.features;

  const std::string outDir = args.flagOr("out", "dagt_bundle");
  serve::ModelBundle::save(*trained.model, manifest, outDir);
  std::printf("exported %s bundle to %s/\n",
              core::strategyName(trained.strategy).c_str(), outDir.c_str());

  if (args.has("emit")) {
    const std::string emitDir = args.flagOr("emit", "designs");
    std::filesystem::create_directories(emitDir);
    std::set<netlist::TechNode> nodesSeen;
    for (const auto& design : trained.split->test) {
      const auto base = std::filesystem::path(emitDir) / design.name;
      netlist::io::writeNetlistFile(design.netlist,
                                    base.string() + ".dagtnl");
      serve::writePlacementFile(design.placement, base.string() + ".dagtpl");
      nodesSeen.insert(design.node);
    }
    for (const auto node : nodesSeen) {
      const auto libPath = std::filesystem::path(emitDir) /
                           (netlist::techNodeName(node) + ".dagtlib");
      netlist::io::writeLibraryFile(trained.split->pipeline->library(node),
                                    libPath.string());
    }
    std::printf("emitted %zu test designs to %s/\n",
                trained.split->test.size(), emitDir.c_str());
  }
  return 0;
}

int cmdPredict(const Args& args) {
  if (args.positional.size() < 3) return usage();
  const std::string bundleDir = args.positional[0];
  const std::string nlPath = args.positional[1];
  const std::string libPath = args.positional[2];

  serve::EngineConfig config;
  config.maxBatch = args.intFlag("batch", 64);
  config.maxWaitUs = args.intFlag("wait-us", 200);
  serve::PredictionEngine engine(config);
  engine.addBundleFromDir(bundleDir);

  const std::int64_t numEndpoints = engine.loadDesign(
      "design", nlPath, libPath, args.flagOr("pl", ""));
  std::printf("loaded %s: %lld endpoints (node %s, %s bundle)\n",
              nlPath.c_str(), static_cast<long long>(numEndpoints),
              netlist::techNodeName(engine.nodes().front()).c_str(),
              engine.manifest(engine.nodes().front()).strategy.c_str());

  if (args.has("endpoints")) {
    std::vector<std::int64_t> endpoints;
    std::stringstream ss(args.flagOr("endpoints", ""));
    std::string item;
    while (std::getline(ss, item, ',')) {
      char* end = nullptr;
      const std::int64_t e = std::strtoll(item.c_str(), &end, 10);
      DAGT_CHECK_MSG(end != item.c_str() && *end == '\0',
                     "--endpoints: '" << item << "' is not an integer");
      endpoints.push_back(e);
    }
    DAGT_CHECK_MSG(!endpoints.empty(), "--endpoints list is empty");
    const auto arrivals = engine.predictEndpoints("design", endpoints);
    TextTable table({"endpoint", "predicted arrival (ps)"});
    for (std::size_t i = 0; i < endpoints.size(); ++i) {
      table.addRow({std::to_string(endpoints[i]),
                    TextTable::exact(arrivals[i])});
    }
    std::printf("%s", table.render().c_str());
  } else {
    const auto arrivals = engine.predictDesign("design");
    float worst = 0.0f;
    std::int64_t worstIdx = 0;
    double mean = 0.0;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      mean += arrivals[i];
      if (arrivals[i] > worst) {
        worst = arrivals[i];
        worstIdx = static_cast<std::int64_t>(i);
      }
    }
    if (!arrivals.empty()) mean /= static_cast<double>(arrivals.size());
    std::printf("predicted sign-off arrival: mean %.1f ps, worst %.1f ps "
                "(endpoint %lld)\n",
                mean, worst, static_cast<long long>(worstIdx));
    if (args.has("dump")) {
      TextTable table({"endpoint", "predicted arrival (ps)"});
      for (std::size_t i = 0; i < arrivals.size(); ++i) {
        table.addRow({std::to_string(i), TextTable::exact(arrivals[i])});
      }
      std::printf("%s", table.render().c_str());
    }
  }

  const auto metrics = engine.metrics();
  std::printf("%s", metrics.renderTable().c_str());
  if (args.has("metrics-json")) {
    writeJsonFile(metrics.toJson(), args.flagOr("metrics-json", ""));
  }
  return 0;
}

int cmdWhatif(const Args& args) {
  if (args.positional.size() < 3) return usage();
  const std::string bundleDir = args.positional[0];
  const std::string nlPath = args.positional[1];
  const std::string libPath = args.positional[2];

  // The netlist must resolve against the same deterministic per-node
  // library the engine's FeatureService reconstructs (cell-type ids feed
  // the gate-type one-hot). Declared before the engine so every netlist
  // copy the serving stack retains dies first.
  const auto fileLib = netlist::io::readLibraryFile(libPath);
  const auto lib = netlist::CellLibrary::makeNode(fileLib.node());

  serve::PredictionEngine engine;
  engine.addBundleFromDir(bundleDir);
  auto nl = netlist::io::readNetlistFile(nlPath, lib);

  place::PlacementResult placement;
  if (args.has("pl")) {
    placement = serve::readPlacementFile(args.flagOr("pl", ""));
  } else {
    Rect die{{0, 0}, {0, 0}};
    for (netlist::PinId p = 0; p < nl.numPins(); ++p) {
      die.expand(nl.pinLocation(p));
    }
    placement.dieArea = die;
  }

  whatif::WhatIfSession session(engine, "design", std::move(nl),
                                fileLib.node(), placement);
  std::printf("loaded %s: %lld endpoints, %lld cells, %lld nets (node %s, "
              "%s bundle)\n",
              nlPath.c_str(), static_cast<long long>(session.numEndpoints()),
              static_cast<long long>(session.netlist().numCells()),
              static_cast<long long>(session.netlist().numNets()),
              netlist::techNodeName(engine.nodes().front()).c_str(),
              engine.manifest(engine.nodes().front()).strategy.c_str());

  int failures = 0;
  if (args.has("edits")) {
    const std::string editsPath = args.flagOr("edits", "");
    std::ifstream in(editsPath);
    DAGT_CHECK_MSG(in.good(), "cannot open edit file " << editsPath);
    failures = whatif::runScript(session, in, std::cout, /*echo=*/true);
  }
  if (args.has("repl") || !args.has("edits")) {
    whatif::runRepl(session, std::cin, std::cout);
  }

  const auto metrics = session.metrics();
  std::printf("%s", metrics.renderTable().c_str());
  if (args.has("metrics-json")) {
    writeJsonFile(metrics.toJson(), args.flagOr("metrics-json", ""));
  }
  if (failures > 0) {
    std::fprintf(stderr, "whatif: %d command(s) failed\n", failures);
    return 1;
  }
  return 0;
}

/// Parse argv for the named subcommand and run it. argv[1] must be the
/// command; `trace` recurses through here for the wrapped command.
int dispatch(int argc, char** argv) {
  static const std::map<std::string,
                        std::pair<std::vector<std::string>, int (*)(const Args&)>>
      commands = {
          {"gen", {{"scale", "nl", "lib", "pl"}, cmdGen}},
          {"stats", {{}, cmdStats}},
          {"sta", {{"routed!"}, cmdSta}},
          {"opt", {{"out"}, cmdOpt}},
          {"train", {{"scale", "epochs", "strategy"}, cmdTrain}},
          {"export", {{"scale", "epochs", "strategy", "out", "emit"},
                      cmdExport}},
          {"predict", {{"pl", "endpoints", "batch", "wait-us", "dump!",
                        "metrics-json"},
                       cmdPredict}},
          {"whatif", {{"pl", "edits", "repl!", "metrics-json"}, cmdWhatif}},
      };
  const std::string command = argv[1];
  const auto it = commands.find(command);
  if (it == commands.end()) return usage();
  const Args args = Args::parse(argc, argv, it->second.first);
  if (!args.error.empty()) {
    std::fprintf(stderr, "dagt %s: %s\n", command.c_str(),
                 args.error.c_str());
    return 2;
  }
  try {
    return it->second.second(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

/// `dagt trace <cmd> [args...] [--trace-out F]` — run any subcommand with
/// tracing runtime-enabled, then write the Chrome trace_event JSON (load
/// at chrome://tracing or ui.perfetto.dev) and print the self-time
/// profile plus span coverage of the measured wall time.
int cmdTrace(int argc, char** argv) {
#if !DAGT_TRACING
  std::fprintf(stderr,
               "dagt trace: this binary was built with -DDAGT_TRACING=OFF; "
               "rebuild with tracing compiled in\n");
  return 2;
#endif
  std::string traceOut = "dagt_trace.json";
  std::vector<char*> inner;
  inner.push_back(argv[0]);
  for (int i = 2; i < argc; ++i) {
    const std::string token = argv[i];
    if (token == "--trace-out") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "dagt trace: --trace-out expects a value\n");
        return 2;
      }
      traceOut = argv[++i];
      continue;
    }
    if (token.rfind("--trace-out=", 0) == 0) {
      traceOut = token.substr(std::strlen("--trace-out="));
      continue;
    }
    inner.push_back(argv[i]);
  }
  if (inner.size() < 2) {
    std::fprintf(stderr,
                 "usage: dagt trace <command> [args...] [--trace-out F]\n");
    return 2;
  }

  obs::TraceRegistry& registry = obs::TraceRegistry::global();
  registry.setEnabled(true);
  const std::uint64_t wallStartNs = registry.nowNs();
  int rc;
  // Root span named after the wrapped command; the string must stay alive
  // until collect() below (span names are stored by pointer).
  const std::string rootName = std::string("cli/") + inner[1];
  {
    obs::ScopedSpan root(rootName.c_str());
    rc = dispatch(static_cast<int>(inner.size()), inner.data());
  }
  registry.setEnabled(false);
  const std::uint64_t wallNs = registry.nowNs() - wallStartNs;

  const obs::TraceSnapshot snapshot = registry.collect();
  try {
    writeJsonFile(obs::chromeTraceJson(snapshot), traceOut);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dagt trace: %s\n", e.what());
    return 1;
  }
  const double wallUs = static_cast<double>(wallNs) / 1000.0;
  std::printf("%s", obs::renderProfile(obs::profileRows(snapshot),
                                       wallUs).c_str());
  std::printf("trace: %zu events (%llu dropped) -> %s\n",
              snapshot.events.size(),
              static_cast<unsigned long long>(snapshot.dropped),
              traceOut.c_str());
  std::printf("span coverage: %.1f%% of %.1f ms wall\n",
              100.0 * obs::spanCoverage(snapshot, wallNs), wallUs / 1000.0);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  if (std::string(argv[1]) == "trace") return cmdTrace(argc, argv);
  return dispatch(argc, argv);
}
