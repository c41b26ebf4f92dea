#include "features/feature_builder.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace dagt::features {

using netlist::Netlist;
using netlist::PinId;
using netlist::PinKind;

FeatureBuilder::FeatureBuilder(const netlist::GateTypeVocabulary* vocabulary,
                               FeatureConfig config)
    : vocabulary_(vocabulary), config_(config) {
  DAGT_CHECK(vocabulary_ != nullptr);
}

std::int64_t FeatureBuilder::featureDim() const {
  return kNumericFeatures + vocabulary_->size();
}

tensor::Tensor FeatureBuilder::build(
    const Netlist& nl, const sta::TimingResult* preRouteTiming) const {
  if (preRouteTiming != nullptr) {
    DAGT_CHECK_MSG(static_cast<std::int64_t>(
                       preRouteTiming->arrival.size()) == nl.numPins(),
                   "pre-route timing does not match the netlist");
  }
  const std::int64_t dim = featureDim();
  const std::int64_t numPins = nl.numPins();
  std::vector<float> data(static_cast<std::size_t>(numPins * dim), 0.0f);
  for (PinId p = 0; p < numPins; ++p) {
    fillRow(nl, preRouteTiming, p, data.data() + p * dim);
  }
  return tensor::Tensor::fromVector({numPins, dim}, std::move(data));
}

void FeatureBuilder::rebuildRows(const Netlist& nl,
                                 const sta::TimingResult* preRouteTiming,
                                 const std::vector<PinId>& pins,
                                 PinFeatures& features) const {
  const std::int64_t dim = featureDim();
  DAGT_CHECK_MSG(features.numPins() == nl.numPins() && features.dim() == dim,
                 "pin-feature matrix does not match the netlist");
  for (const PinId p : pins) {
    DAGT_CHECK(p >= 0 && p < nl.numPins());
    float* row = features.mutableRow(p);
    std::fill(row, row + dim, 0.0f);
    fillRow(nl, preRouteTiming, p, row);
  }
}

void FeatureBuilder::fillRow(const Netlist& nl,
                             const sta::TimingResult* preRouteTiming,
                             const PinId p, float* row) const {
  const auto node = nl.library().node();
  const auto& pin = nl.pin(p);

  // [0] net distance: Manhattan length of the incoming net segment
  // (sinks only; drivers get 0).
  if ((pin.kind == PinKind::kCellInput ||
       pin.kind == PinKind::kPrimaryOutput) &&
      pin.net != netlist::kInvalidId) {
    const PinId driver = nl.net(pin.net).driver;
    row[0] = manhattan(nl.pinLocation(driver), nl.pinLocation(p)) /
             config_.distanceScale;
  }

  // [1] driving strength of the owning cell (log-compressed).
  if (pin.cell != netlist::kInvalidId) {
    row[1] = std::log2(
        1.0f + static_cast<float>(nl.cellTypeOf(pin.cell).driveStrength));
  }

  // [2] pin capacitance.
  if (pin.kind == PinKind::kCellInput) {
    row[2] = nl.cellTypeOf(pin.cell).inputCap / config_.capScale;
  } else if (pin.kind == PinKind::kPrimaryOutput) {
    row[2] = 2.0f / config_.capScale;  // external port load
  }

  // [3..6] pin-kind indicator.
  switch (pin.kind) {
    case PinKind::kPrimaryInput: row[3] = 1.0f; break;
    case PinKind::kPrimaryOutput: row[4] = 1.0f; break;
    case PinKind::kCellInput: row[5] = 1.0f; break;
    case PinKind::kCellOutput: row[6] = 1.0f; break;
  }

  // [7] fanout of the driven net (drivers only).
  if ((pin.kind == PinKind::kCellOutput ||
       pin.kind == PinKind::kPrimaryInput) &&
      pin.net != netlist::kInvalidId) {
    row[7] = static_cast<float>(nl.net(pin.net).sinks.size()) /
             config_.fanoutScale;
  }

  // [8..10] pre-routing STA estimates (ns): raw arrival, log-compressed
  // arrival, log-compressed slew. Both the linear and the log view are
  // provided so the 10x node gap stays visible at either scale.
  if (preRouteTiming != nullptr) {
    const float arrNs =
        preRouteTiming->arrival[static_cast<std::size_t>(p)] * 1e-3f;
    const float slewNs =
        preRouteTiming->slew[static_cast<std::size_t>(p)] * 1e-3f;
    row[8] = arrNs * 0.1f;
    row[9] = std::log1p(arrNs);
    row[10] = std::log1p(slewNs * 10.0f);
  }

  // [11..] gate-type one-hot over the node-merged vocabulary.
  std::int64_t slot;
  if (pin.cell != netlist::kInvalidId) {
    slot = vocabulary_->indexOf(node, nl.cell(pin.cell).type);
  } else if (pin.kind == PinKind::kPrimaryInput) {
    slot = vocabulary_->primaryInputIndex();
  } else {
    slot = vocabulary_->primaryOutputIndex();
  }
  row[kNumericFeatures + slot] = 1.0f;
}

}  // namespace dagt::features
