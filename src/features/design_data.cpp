#include "features/design_data.hpp"

#include "common/check.hpp"
#include "common/logging.hpp"
#include "sta/sta_engine.hpp"

namespace dagt::features {

using netlist::CellLibrary;
using netlist::TechNode;

DataPipeline::DataPipeline(DataConfig config)
    : config_(config), suite_(config.designScale) {
  DAGT_CHECK(!config_.nodes.empty());
  libraries_.resize(netlist::kNumTechNodes);
  std::vector<const CellLibrary*> libPtrs;
  for (const TechNode node : config_.nodes) {
    auto& slot = libraries_[static_cast<std::size_t>(node)];
    DAGT_CHECK_MSG(slot == nullptr, "duplicate node in DataConfig::nodes");
    slot = std::make_unique<CellLibrary>(CellLibrary::makeNode(node));
    libPtrs.push_back(slot.get());
  }
  vocab_ = std::make_unique<netlist::GateTypeVocabulary>(libPtrs);
  featureBuilder_ =
      std::make_unique<FeatureBuilder>(vocab_.get(), config_.features);
}

const CellLibrary& DataPipeline::library(TechNode node) const {
  const auto& slot = libraries_[static_cast<std::size_t>(node)];
  DAGT_CHECK_MSG(slot != nullptr, netlist::techNodeName(node)
                                      << " is not configured in this "
                                         "pipeline");
  return *slot;
}

DesignData DataPipeline::build(const std::string& designName) const {
  return buildCustom(suite_.entry(designName));
}

DesignData DataPipeline::buildCustom(
    const designgen::DesignEntry& entry) const {
  const CellLibrary& lib = library(entry.node);

  // 1. Synthesis stand-in: generate functionality, map to the node.
  const designgen::LogicNetwork logic =
      designgen::LogicNetwork::generate(entry.spec);
  logic.validate();
  DesignData data(designgen::TechMapper::map(logic, lib));
  data.name = entry.spec.name;
  data.node = entry.node;
  data.role = entry.role;

  // 2. Placement.
  place::PlacerConfig placer = config_.placer;
  placer.seed ^= entry.spec.seed;  // decorrelate placements across designs
  data.placement = place::Placer::place(data.netlist, placer);

  // 3. Pre-routing snapshot: layout images, pin graph, pin features, paths.
  data.maps = std::make_unique<place::LayoutMaps>(
      data.netlist, data.placement, config_.imageResolution);
  data.graph = std::make_shared<const PinGraph>(data.netlist);

  // Optimistic pre-routing STA (Elmore, no optimization) — the classic
  // look-ahead baseline, and a per-pin input feature of the extractor.
  const auto preTiming = sta::StaEngine::run(
      data.netlist, nullptr,
      sta::RouteConfig{sta::WireModel::kPreRouting, 0.0f, 0.0f});
  data.preRouteArrivals = preTiming.endpointArrivals(data.netlist);

  data.pinFeatures =
      PinFeatures(featureBuilder_->build(data.netlist, &preTiming));
  data.setPaths(PathExtractor::extract(data.netlist, data.maps.get()));
  data.stats = data.netlist.stats();

  // 4. Sign-off flow on a copy: timing optimization restructures the
  // netlist, then routed-model STA produces the ground-truth labels.
  {
    netlist::Netlist signoff = data.netlist;
    const auto endpointsBefore = signoff.endpoints();
    data.optimizerReport =
        sta::TimingOptimizer::optimize(signoff, *data.maps, config_.optimizer);
    const auto endpointsAfter = signoff.endpoints();
    DAGT_CHECK_MSG(endpointsBefore == endpointsAfter,
                   "optimization must preserve endpoints");
    // Re-extract congestion from the restructured placement for sign-off.
    const place::LayoutMaps signoffMaps(signoff, data.placement,
                                        config_.imageResolution);
    const auto signoffTiming =
        sta::StaEngine::run(signoff, &signoffMaps, config_.signoffRoute);
    data.labels = signoffTiming.endpointArrivals(signoff);
  }
  DAGT_CHECK(data.labels.size() == data.paths().size());

  DAGT_INFO << data.name << " (" << netlist::techNodeName(data.node)
            << "): " << data.stats.numPins << " pins, "
            << data.stats.numEndpoints << " endpoints, "
            << data.optimizerReport.cellsResized << " resized, "
            << data.optimizerReport.buffersInserted << " buffers";
  return data;
}

std::vector<DesignData> DataPipeline::buildRole(
    designgen::DesignRole role) const {
  std::vector<DesignData> result;
  for (const auto* entry : suite_.byRole(role)) {
    result.push_back(build(entry->spec.name));
  }
  return result;
}

}  // namespace dagt::features
