#pragma once

#include <memory>
#include <string>
#include <vector>

#include "designgen/design_suite.hpp"
#include "features/feature_builder.hpp"
#include "features/path_extractor.hpp"
#include "features/pin_features.hpp"
#include "features/pin_graph.hpp"
#include "netlist/netlist.hpp"
#include "place/layout_maps.hpp"
#include "place/placer.hpp"
#include "sta/timing_optimizer.hpp"
#include "tensor/tensor.hpp"

namespace dagt::features {

/// Knobs of the data-generation pipeline (the stand-in for the paper's
/// Genus + Innovus flow).
struct DataConfig {
  /// Global design-size multiplier (1.0 = benchmark scale).
  float designScale = 1.0f;
  /// Technology nodes participating in the experiment (ascending enum
  /// order). The default is the paper's 130nm -> 7nm pair; add k45nm for
  /// the multi-source-node extension.
  std::vector<netlist::TechNode> nodes = {netlist::TechNode::k130nm,
                                          netlist::TechNode::k7nm};
  std::int32_t imageResolution = 32;
  place::PlacerConfig placer;
  sta::OptimizerConfig optimizer;
  sta::RouteConfig signoffRoute{sta::WireModel::kRouted, 1.0f, 0.15f};
  FeatureConfig features;
};

/// Everything the learning stack needs about one design:
/// the *pre-routing* snapshot (netlist + placement + layout images + pin
/// graph + features) as model input, and the *sign-off* arrival times of
/// the optimized routed netlist as labels.
struct DesignData {
  std::string name;
  netlist::TechNode node = netlist::TechNode::k7nm;
  designgen::DesignRole role = designgen::DesignRole::kTest;

  /// Pre-routing snapshot (placed, un-optimized). Read by the training
  /// pipeline; a served snapshot leaves it empty (see serve::ServableDesign).
  netlist::Netlist netlist;
  place::PlacementResult placement;
  std::unique_ptr<place::LayoutMaps> maps;
  /// Shared so the incremental what-if path can alias the prior snapshot's
  /// graph instead of copying it (connectivity is identical across
  /// non-structural edits). Immutable once built.
  std::shared_ptr<const PinGraph> graph;
  /// [numPins, featureDim] in row blocks. A what-if snapshot shares every
  /// block its edit did not rewrite with its predecessor (see PinFeatures).
  PinFeatures pinFeatures;
  /// One TimingPath per endpoint. Shared for the same reason as `graph`:
  /// when no pin moved, every cone and mask footprint is unchanged and
  /// what-if snapshots alias one paths vector instead of deep-copying
  /// ~1k small vectors per edit.
  std::shared_ptr<const std::vector<TimingPath>> pathsPtr =
      std::make_shared<const std::vector<TimingPath>>();

  const std::vector<TimingPath>& paths() const { return *pathsPtr; }
  void setPaths(std::vector<TimingPath> paths) {
    pathsPtr = std::make_shared<const std::vector<TimingPath>>(
        std::move(paths));
  }

  /// Sign-off ground truth: arrival (ps) per endpoint after timing
  /// optimization + routing, ordered like netlist.endpoints().
  std::vector<float> labels;
  /// Optimistic pre-routing Elmore STA arrivals (the classic non-ML
  /// baseline of the paper's introduction), same order.
  std::vector<float> preRouteArrivals;

  sta::OptimizerReport optimizerReport;
  netlist::Netlist::Stats stats;

  std::int64_t numEndpoints() const {
    return static_cast<std::int64_t>(labels.size());
  }

  DesignData(netlist::Netlist nl) : netlist(std::move(nl)) {}
  DesignData(DesignData&&) = default;
  DesignData& operator=(DesignData&&) = default;
};

/// Runs the full synthetic EDA flow for designs of the suite. Owns the
/// cell libraries and the merged gate-type vocabulary; keep the pipeline
/// alive as long as any DesignData it produced.
class DataPipeline {
 public:
  explicit DataPipeline(DataConfig config = DataConfig{});

  const DataConfig& config() const { return config_; }
  const netlist::CellLibrary& library(netlist::TechNode node) const;
  const netlist::GateTypeVocabulary& vocabulary() const { return *vocab_; }
  const designgen::DesignSuite& suite() const { return suite_; }
  std::int64_t featureDim() const { return featureBuilder_->featureDim(); }

  /// Full flow for one named design:
  /// generate -> map -> place -> snapshot features -> optimize -> route ->
  /// sign-off STA labels.
  DesignData build(const std::string& designName) const;

  /// Same flow for a caller-supplied entry (multi-source-node extension:
  /// e.g. an extra source design at 45nm that is not part of the paper's
  /// Table-1 suite).
  DesignData buildCustom(const designgen::DesignEntry& entry) const;

  /// Convenience: build every design of a role.
  std::vector<DesignData> buildRole(designgen::DesignRole role) const;

 private:
  DataConfig config_;
  std::vector<std::unique_ptr<netlist::CellLibrary>> libraries_;  // by node
  std::unique_ptr<netlist::GateTypeVocabulary> vocab_;
  designgen::DesignSuite suite_;
  std::unique_ptr<FeatureBuilder> featureBuilder_;
};

}  // namespace dagt::features
