// Untimed scaffolding: the trained bundle and the serving designs'
// interchange files, built once per binary and reused by every run.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/check.hpp"
#include "core/trainer.hpp"
#include "features/design_data.hpp"
#include "netlist/io.hpp"
#include "serve/feature_service.hpp"
#include "serve/model_bundle.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace dagt;

/// The designs the serve workloads query (paper test designs).
const std::vector<std::string>& serveDesignNames() {
  static const std::vector<std::string> names = {"or1200", "hwacha", "sha3"};
  return names;
}

/// Bundle training: the paper's split (7nm smallboom with a 48-endpoint
/// budget plus the four 130nm sources), kOurs, fixed seed.
constexpr int kBundleEpochs = 30;

void writeLabels(const std::vector<float>& labels, const std::string& path) {
  std::ofstream out(path);
  DAGT_CHECK_MSG(out.good(), "cannot write " << path);
  char buf[32];
  for (const float v : labels) {
    std::snprintf(buf, sizeof(buf), "%.9g\n", static_cast<double>(v));
    out << buf;
  }
}

/// Identifies the running binary (size and modification time), so a
/// rebuilt program never serves a bundle trained by an older one.
std::string binaryStamp() {
  const fs::path self = fs::read_symlink("/proc/self/exe");
  return std::to_string(fs::file_size(self)) + ":" +
         std::to_string(
             fs::last_write_time(self).time_since_epoch().count());
}

std::string readStamp(const fs::path& path) {
  std::ifstream in(path);
  std::string stamp;
  std::getline(in, stamp);
  return stamp;
}

std::vector<float> readLabels(const std::string& path) {
  std::ifstream in(path);
  DAGT_CHECK_MSG(in.good(), "cannot read " << path);
  std::vector<float> labels;
  float v = 0.0f;
  while (in >> v) labels.push_back(v);
  return labels;
}

void buildCache(const fs::path& dir) {
  std::fprintf(stderr, "perfbench: building scaffolding in %s\n",
               dir.c_str());
  fs::create_directories(dir / "designs");
  features::DataConfig dataConfig;
  dataConfig.designScale = Scaffold::kScale;
  const features::DataPipeline pipeline(dataConfig);

  std::vector<features::DesignData> train;
  for (const char* name :
       {"smallboom", "jpeg", "linkruncca", "spiMaster", "usbf_device"}) {
    train.push_back(pipeline.build(name));
  }
  std::vector<const features::DesignData*> pointers;
  for (const auto& d : train) pointers.push_back(&d);
  core::TimingDataset trainSet(pointers);
  trainSet.restrictEndpoints(train.front(), 48, 99);

  core::TrainConfig config;
  config.epochs = kBundleEpochs;
  config.learningRate = 5e-3f;
  const core::Trainer trainer(trainSet, config);
  const auto model = trainer.train(core::Strategy::kOurs);

  serve::BundleManifest manifest;
  manifest.strategy = core::strategyName(core::Strategy::kOurs);
  manifest.targetNode = netlist::TechNode::k7nm;
  manifest.vocabularyNodes = dataConfig.nodes;
  manifest.pinFeatureDim = pipeline.featureDim();
  manifest.model = config.model;
  manifest.model.imageResolution = dataConfig.imageResolution;
  manifest.features = dataConfig.features;
  serve::ModelBundle::save(*model, manifest, (dir / "bundle").string());

  std::set<netlist::TechNode> nodes;
  for (const auto& name : serveDesignNames()) {
    const features::DesignData design = pipeline.build(name);
    const fs::path base = dir / "designs" / name;
    netlist::io::writeNetlistFile(design.netlist, base.string() + ".dagtnl");
    serve::writePlacementFile(design.placement, base.string() + ".dagtpl");
    writeLabels(design.labels, base.string() + ".labels");
    nodes.insert(design.node);
  }
  {
    features::DataConfig ecoConfig = dataConfig;
    ecoConfig.designScale = Scaffold::kEcoScale;
    const features::DataPipeline ecoPipeline(ecoConfig);
    const features::DesignData design = ecoPipeline.build("or1200");
    const fs::path base = dir / "designs" / Scaffold::kEcoDesign;
    netlist::io::writeNetlistFile(design.netlist, base.string() + ".dagtnl");
    serve::writePlacementFile(design.placement, base.string() + ".dagtpl");
    writeLabels(design.labels, base.string() + ".labels");
  }
  for (const auto node : nodes) {
    netlist::io::writeLibraryFile(
        pipeline.library(node),
        (dir / "designs" / (netlist::techNodeName(node) + ".dagtlib"))
            .string());
  }
  std::ofstream(dir / "complete") << binaryStamp() << "\n";
}

}  // namespace

Scaffold::Scaffold(const std::string& outDir) {
  const fs::path cache = fs::path(outDir) / "cache";
  if (!fs::exists(cache / "complete") ||
      readStamp(cache / "complete") != binaryStamp()) {
    const fs::path staging = fs::path(outDir) / "cache.partial";
    fs::remove_all(staging);
    buildCache(staging);
    fs::remove_all(cache);
    fs::rename(staging, cache);
  }
  bundleDir_ = (cache / "bundle").string();
  std::vector<std::string> names = serveDesignNames();
  names.push_back(kEcoDesign);
  for (const auto& name : names) {
    const fs::path base = cache / "designs" / name;
    ServeDesign design;
    design.name = name;
    design.netlistPath = base.string() + ".dagtnl";
    design.placementPath = base.string() + ".dagtpl";
    design.libraryPath = (cache / "designs" / "7nm.dagtlib").string();
    design.labels = readLabels(base.string() + ".labels");
    designs_.emplace(name, std::move(design));
  }
}

const ServeDesign& Scaffold::design(const std::string& name) const {
  const auto it = designs_.find(name);
  DAGT_CHECK_MSG(it != designs_.end(), "no serving design " << name);
  return it->second;
}

}  // namespace perfbench
