#include "serve/model_bundle.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace dagt::serve {

namespace {

constexpr const char* kManifestFile = "manifest.dagtmf";
constexpr const char* kWeightsFile = "weights.dagtprm";
/// Upper bound on every manifest width: far above any trained bundle (the
/// paper's GNN is 256 wide, its images 512 px), low enough that a corrupt
/// manifest cannot make instantiate() allocate gigabytes.
constexpr std::int64_t kMaxWidth = 4096;

/// The manifest is untrusted input: a malformed value is a CheckError,
/// never a std::stoll exception.
std::int64_t parseWidth(const std::string& key, const std::string& value) {
  std::int64_t out = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  DAGT_CHECK_MSG(ec == std::errc() && ptr == end && out >= 1 &&
                     out <= kMaxWidth,
                 "manifest key '" << key << "': '" << value
                                  << "' is not an integer in [1, "
                                  << kMaxWidth << "]");
  return out;
}

/// A finite, positive feature normalization scale.
float parseScale(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const float out = std::strtof(value.c_str(), &end);
  DAGT_CHECK_MSG(!value.empty() && end == value.c_str() + value.size() &&
                     std::isfinite(out) && out > 0.0f,
                 "manifest key '" << key << "': '" << value
                                  << "' is not a finite positive number");
  return out;
}

std::string joinNodes(const std::vector<netlist::TechNode>& nodes) {
  std::string out;
  for (const auto node : nodes) {
    if (!out.empty()) out += ',';
    out += netlist::techNodeName(node);
  }
  return out;
}

std::vector<netlist::TechNode> splitNodes(const std::string& joined) {
  std::vector<netlist::TechNode> nodes;
  std::stringstream ss(joined);
  std::string item;
  while (std::getline(ss, item, ',')) {
    nodes.push_back(netlist::techNodeFromName(item));
  }
  DAGT_CHECK_MSG(!nodes.empty(), "manifest has an empty vocabulary node list");
  return nodes;
}

}  // namespace

void ModelBundle::describeModel(const core::TimingModel& model,
                                BundleManifest* manifest) {
  if (const auto* dac23 = dynamic_cast<const core::Dac23Model*>(&model)) {
    manifest->modelKind = "dac23";
    manifest->variant = dac23->perNodeReadout() ? "per_node" : "shared";
    return;
  }
  if (const auto* ours = dynamic_cast<const core::OursModel*>(&model)) {
    manifest->modelKind = "ours";
    switch (ours->variant()) {
      case core::OursVariant::kFull: manifest->variant = "full"; break;
      case core::OursVariant::kDaOnly: manifest->variant = "da_only"; break;
      case core::OursVariant::kBayesOnly:
        manifest->variant = "bayes_only";
        break;
    }
    return;
  }
  DAGT_CHECK_MSG(false, "cannot bundle an unknown TimingModel subclass");
}

std::unique_ptr<core::TimingModel> ModelBundle::instantiate(
    const BundleManifest& manifest) {
  // Weight values are about to be overwritten by loadParameters; the seed
  // only shapes the throwaway init.
  Rng rng(1);
  if (manifest.modelKind == "dac23") {
    DAGT_CHECK_MSG(
        manifest.variant == "shared" || manifest.variant == "per_node",
        "unknown dac23 variant '" << manifest.variant << "'");
    return std::make_unique<core::Dac23Model>(
        manifest.pinFeatureDim, manifest.model,
        manifest.variant == "per_node", rng);
  }
  if (manifest.modelKind == "ours") {
    core::OursVariant variant;
    if (manifest.variant == "full") {
      variant = core::OursVariant::kFull;
    } else if (manifest.variant == "da_only") {
      variant = core::OursVariant::kDaOnly;
    } else if (manifest.variant == "bayes_only") {
      variant = core::OursVariant::kBayesOnly;
    } else {
      DAGT_CHECK_MSG(false,
                     "unknown ours variant '" << manifest.variant << "'");
    }
    return std::make_unique<core::OursModel>(manifest.pinFeatureDim,
                                             manifest.model, variant, rng);
  }
  DAGT_CHECK_MSG(false,
                 "unknown model kind '" << manifest.modelKind << "'");
}

void ModelBundle::save(const core::TimingModel& model,
                       BundleManifest manifest, const std::string& dir) {
  describeModel(model, &manifest);
  DAGT_CHECK_MSG(manifest.pinFeatureDim > 0,
                 "manifest.pinFeatureDim must be set before save");
  DAGT_CHECK_MSG(!manifest.vocabularyNodes.empty(),
                 "manifest.vocabularyNodes must be set before save");

  std::filesystem::create_directories(dir);
  const auto path = std::filesystem::path(dir);
  std::ofstream out(path / kManifestFile);
  DAGT_CHECK_MSG(out.good(),
                 "cannot open " << (path / kManifestFile).string());
  out << "dagt_bundle " << BundleManifest::kFormatVersion << '\n'
      << "model " << manifest.modelKind << '\n'
      << "variant " << manifest.variant << '\n'
      << "strategy " << manifest.strategy << '\n'
      << "target_node " << netlist::techNodeName(manifest.targetNode) << '\n'
      << "vocab_nodes " << joinNodes(manifest.vocabularyNodes) << '\n'
      << "pin_feature_dim " << manifest.pinFeatureDim << '\n'
      << "gnn_hidden " << manifest.model.gnnHidden << '\n'
      << "cnn_base_channels " << manifest.model.cnnBaseChannels << '\n'
      << "cnn_dim " << manifest.model.cnnDim << '\n'
      << "image_resolution " << manifest.model.imageResolution << '\n'
      << "head_hidden " << manifest.model.headHidden << '\n'
      << "distance_scale " << manifest.features.distanceScale << '\n'
      << "cap_scale " << manifest.features.capScale << '\n'
      << "fanout_scale " << manifest.features.fanoutScale << '\n';
  DAGT_CHECK_MSG(out.good(), "manifest write failed");
  out.close();

  // TimingModel::module() is non-const only because training mutates
  // parameters through it; serialization reads them.
  const_cast<core::TimingModel&>(model).module().saveParameters(
      (path / kWeightsFile).string());
}

ModelBundle ModelBundle::load(const std::string& dir) {
  const auto path = std::filesystem::path(dir);
  std::ifstream in(path / kManifestFile);
  DAGT_CHECK_MSG(in.good(), dir << " has no " << kManifestFile
                                << " (not a model bundle?)");
  std::map<std::string, std::string> kv;
  std::string key, value;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    ls >> key;
    std::getline(ls, value);
    if (!value.empty() && value.front() == ' ') value.erase(0, 1);
    kv[key] = value;
  }
  const auto get = [&](const std::string& k) -> const std::string& {
    const auto it = kv.find(k);
    DAGT_CHECK_MSG(it != kv.end(), "manifest is missing key '" << k << "'");
    return it->second;
  };
  DAGT_CHECK_MSG(
      get("dagt_bundle") == std::to_string(BundleManifest::kFormatVersion),
      "unsupported bundle format version " << get("dagt_bundle"));

  ModelBundle bundle;
  BundleManifest& m = bundle.manifest_;
  m.modelKind = get("model");
  m.variant = get("variant");
  m.strategy = get("strategy");
  m.targetNode = netlist::techNodeFromName(get("target_node"));
  m.vocabularyNodes = splitNodes(get("vocab_nodes"));
  const auto width = [&](const char* k) { return parseWidth(k, get(k)); };
  const auto scale = [&](const char* k) { return parseScale(k, get(k)); };
  m.pinFeatureDim = width("pin_feature_dim");
  m.model.gnnHidden = width("gnn_hidden");
  m.model.cnnBaseChannels = width("cnn_base_channels");
  m.model.cnnDim = width("cnn_dim");
  m.model.imageResolution = width("image_resolution");
  m.model.headHidden = width("head_hidden");
  m.features.distanceScale = scale("distance_scale");
  m.features.capScale = scale("cap_scale");
  m.features.fanoutScale = scale("fanout_scale");

  bundle.model_ = instantiate(m);
  bundle.model_->module().loadParameters((path / kWeightsFile).string());
  return bundle;
}

}  // namespace dagt::serve
