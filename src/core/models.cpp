#include "core/models.hpp"

#include <cmath>

#include "common/check.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace dagt::core {

using tensor::Tensor;

namespace {

/// y + w0 * preRoute: the learnable pre-routing bypass shared by every
/// readout. w0 is initialized at 1 so the optimistic STA estimate is the
/// zeroth-order prediction and the network learns the correction.
Tensor applyBypass(const Tensor& y, const Tensor& preRouteNs,
                   const Tensor& w0) {
  const std::int64_t b = y.dim(0);
  const Tensor scaled = tensor::reshape(
      tensor::matmul(tensor::reshape(preRouteNs, {b, 1}),
                     tensor::reshape(w0, {1, 1})),
      {b});
  return tensor::add(y, scaled);
}

/// ns (label scale) -> ps.
std::vector<float> unscale(std::vector<float> predictionNs) {
  for (auto& v : predictionNs) v /= kLabelScale;
  return predictionNs;
}

}  // namespace

// ---------------------------------------------------------------------------
// TimingModel
// ---------------------------------------------------------------------------

std::vector<float> TimingModel::predictDesign(
    const TimingDataset& dataset, const features::DesignData& design,
    GraphMemo* graphMemo) const {
  DesignBatch batch = dataset.fullBatch(design);
  batch.graphMemo = graphMemo;
  return predictBatch(batch).mean;
}

TimingModel::Prediction TimingModel::predictDesignWithUncertainty(
    const TimingDataset& dataset, const features::DesignData& design) const {
  return predictBatch(dataset.fullBatch(design));
}

// ---------------------------------------------------------------------------
// Dac23Model
// ---------------------------------------------------------------------------

Dac23Model::Dac23Model(std::int64_t pinFeatureDim, const ModelConfig& config,
                       bool perNodeReadout, Rng& rng)
    : extractor_(pinFeatureDim, config, rng) {
  registerChild(extractor_);
  readout_ = std::make_unique<nn::Linear>(config.pathFeatureDim(), 1, rng);
  registerChild(*readout_);
  bypass_ = registerParameter(Tensor::ones({1}));
  if (perNodeReadout) {
    readoutTarget_ =
        std::make_unique<nn::Linear>(config.pathFeatureDim(), 1, rng);
    registerChild(*readoutTarget_);
    bypassTarget_ = registerParameter(Tensor::ones({1}));
  }
}

Tensor Dac23Model::forwardBatch(const DesignBatch& batch) const {
  DAGT_TRACE_SCOPE("model/forward");
  const Tensor u = [&] {
    DAGT_TRACE_SCOPE("model/extract");
    return extractor_.extract(batch);
  }();
  const nn::Linear* head = readout_.get();
  const Tensor* w0 = &bypass_;
  if (readoutTarget_ &&
      batch.design->node == netlist::TechNode::k7nm) {
    head = readoutTarget_.get();
    w0 = &bypassTarget_;
  }
  const Tensor raw = tensor::reshape(head->forward(u), {u.dim(0)});
  return applyBypass(raw, batch.preRouteNs, *w0);
}

TimingModel::Prediction Dac23Model::predictBatch(
    const DesignBatch& batch) const {
  tensor::NoGradGuard guard;
  Prediction out;
  out.mean = unscale(forwardBatch(batch).toVector());
  out.stddev.assign(out.mean.size(), 0.0f);
  return out;
}

// ---------------------------------------------------------------------------
// OursModel
// ---------------------------------------------------------------------------

OursModel::OursModel(std::int64_t pinFeatureDim, const ModelConfig& config,
                     OursVariant variant, Rng& rng)
    : config_(config),
      variant_(variant),
      extractor_(pinFeatureDim, config, rng),
      disentangler_(config.pathFeatureDim(), config.headHidden, rng) {
  registerChild(extractor_);
  registerChild(disentangler_);
  bypass_ = registerParameter(Tensor::ones({1}));
  if (usesBayesianHead()) {
    bayesHead_ = std::make_unique<BayesianHead>(config.pathFeatureDim(),
                                                config.headHidden, rng);
    registerChild(*bayesHead_);
  } else {
    detReadout_ =
        std::make_unique<nn::Linear>(config.pathFeatureDim(), 1, rng);
    registerChild(*detReadout_);
    detReadoutTarget_ =
        std::make_unique<nn::Linear>(config.pathFeatureDim(), 1, rng);
    registerChild(*detReadoutTarget_);
    bypassTarget_ = registerParameter(Tensor::ones({1}));
  }
}

OursModel::BatchForward OursModel::encode(const DesignBatch& batch) const {
  BatchForward out;
  {
    DAGT_TRACE_SCOPE("model/extract");
    out.u = extractor_.extract(batch);
  }
  DAGT_TRACE_SCOPE("model/disentangle");
  const auto split = disentangler_.forward(out.u);
  out.un = split.nodeDependent;
  out.ud = split.designDependent;
  return out;
}

Tensor OursModel::deterministicReadout(const Tensor& joint,
                                       const DesignBatch& batch) const {
  const bool target = batch.design->node == netlist::TechNode::k7nm;
  const nn::Linear& head = target ? *detReadoutTarget_ : *detReadout_;
  const Tensor& w0 = target ? bypassTarget_ : bypass_;
  const Tensor raw = tensor::reshape(head.forward(joint), {joint.dim(0)});
  return applyBypass(raw, batch.preRouteNs, w0);
}

OursModel::BatchForward OursModel::forward(const DesignBatch& batch,
                                           std::int32_t mcSamples,
                                           Rng& rng) const {
  DAGT_TRACE_SCOPE("model/forward");
  BatchForward out = encode(batch);
  const Tensor joint = tensor::concat1({out.un, out.ud});
  DAGT_TRACE_SCOPE("model/head");
  if (usesBayesianHead()) {
    out.q = bayesHead_->distribution(joint);
    auto prediction = bayesHead_->predict(joint, out.q, mcSamples, rng);
    out.prediction =
        applyBypass(prediction.mean, batch.preRouteNs, bypass_);
    out.samples.reserve(prediction.samples.size());
    for (const Tensor& sample : prediction.samples) {
      out.samples.push_back(
          applyBypass(sample, batch.preRouteNs, bypass_));
    }
  } else {
    out.prediction = deterministicReadout(joint, batch);
  }
  return out;
}

BayesianHead::WeightDistribution OursModel::prior(
    const Tensor& unThisNode, const Tensor& udAllNodes) const {
  DAGT_CHECK(usesBayesianHead());
  const std::int64_t half = config_.halfFeatureDim();
  const Tensor meanUn =
      tensor::reshape(tensor::meanDim0(unThisNode), {1, half});
  const Tensor meanUd =
      tensor::reshape(tensor::meanDim0(udAllNodes), {1, half});
  return bayesHead_->distribution(tensor::concat1({meanUn, meanUd}));
}

TimingModel::Prediction OursModel::predictBatch(
    const DesignBatch& batch) const {
  tensor::NoGradGuard guard;
  DAGT_TRACE_SCOPE("model/forward");
  const BatchForward split = encode(batch);
  const Tensor joint = tensor::concat1({split.un, split.ud});
  DAGT_TRACE_SCOPE("model/head");
  Prediction out;
  if (usesBayesianHead()) {
    // The closed-form predictive: the bypass shifts the mean, not the
    // variance, so sigma is the head's own.
    const BayesianHead::Predictive p = bayesHead_->predictive(joint);
    out.mean =
        unscale(applyBypass(p.mean, batch.preRouteNs, bypass_).toVector());
    out.stddev = p.variance.toVector();
    for (float& s : out.stddev) s = std::sqrt(s) / kLabelScale;  // ns -> ps
  } else {
    out.mean = unscale(deterministicReadout(joint, batch).toVector());
    out.stddev.assign(out.mean.size(), 0.0f);
  }
  return out;
}

}  // namespace dagt::core
