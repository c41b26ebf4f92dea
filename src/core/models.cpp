#include "core/models.hpp"

#include <cmath>

#include "common/check.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace dagt::core {

using tensor::Tensor;

namespace {

/// Deterministic per-design RNG for Monte-Carlo evaluation: predictions
/// must not depend on call order.
Rng evalRng(const features::DesignData& design) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : design.name) {
    h = (h ^ static_cast<std::uint64_t>(c)) * 0x100000001b3ULL;
  }
  return Rng(h);
}

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

std::vector<float> unscale(const Tensor& predictionNs) {
  std::vector<float> out = predictionNs.toVector();
  for (auto& v : out) v /= kLabelScale;
  return out;
}

}  // namespace

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

std::vector<float> Dac23Model::predictDesign(
    const TimingDataset& dataset, const features::DesignData& design,
    GraphMemo* graphMemo) {
  tensor::NoGradGuard guard;
  DesignBatch batch = dataset.fullBatch(design);
  batch.graphMemo = graphMemo;
  return unscale(forwardBatch(batch));
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

OursModel::BatchForward OursModel::forward(const DesignBatch& batch,
                                           std::int32_t mcSamples,
                                           Rng& rng) const {
  DAGT_TRACE_SCOPE("model/forward");
  BatchForward out;
  {
    DAGT_TRACE_SCOPE("model/extract");
    out.u = extractor_.extract(batch);
  }
  const auto split = [&] {
    DAGT_TRACE_SCOPE("model/disentangle");
    return disentangler_.forward(out.u);
  }();
  out.un = split.nodeDependent;
  out.ud = split.designDependent;
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
    const bool target = batch.design->node == netlist::TechNode::k7nm;
    const nn::Linear& head = target ? *detReadoutTarget_ : *detReadout_;
    const Tensor& w0 = target ? bypassTarget_ : bypass_;
    const Tensor raw =
        tensor::reshape(head.forward(joint), {joint.dim(0)});
    out.prediction = applyBypass(raw, batch.preRouteNs, w0);
  }
  return out;
}

Tensor OursModel::embed(const DesignBatch& batch) const {
  DAGT_CHECK_MSG(usesBayesianHead(), "embed() needs the Bayesian head");
  Tensor u;
  {
    DAGT_TRACE_SCOPE("model/extract");
    u = extractor_.extract(batch);
  }
  const auto split = [&] {
    DAGT_TRACE_SCOPE("model/disentangle");
    return disentangler_.forward(u);
  }();
  return tensor::concat1({split.nodeDependent, split.designDependent});
}

OursModel::HeadPrediction OursModel::headPredict(const Tensor& joint,
                                                 const Tensor& preRouteNs,
                                                 std::int32_t mcSamples,
                                                 Rng& rng) const {
  DAGT_CHECK_MSG(usesBayesianHead(), "headPredict() needs the Bayesian head");
  DAGT_TRACE_SCOPE("model/head");
  const BayesianHead::WeightDistribution q = bayesHead_->distribution(joint);
  const auto prediction = bayesHead_->predict(joint, q, mcSamples, rng);
  HeadPrediction out;
  out.predictionNs =
      applyBypass(prediction.mean, preRouteNs, bypass_).toVector();
  out.rawMeanNs = prediction.mean.toVector();
  const std::size_t n = out.rawMeanNs.size();
  out.sigmaPs.assign(n, 0.0f);
  // Population stddev over the raw samples (the bypass term cancels in
  // every deviation, so this matches the spread of the bypassed samples).
  for (const Tensor& sample : prediction.samples) {
    const std::vector<float> values = sample.toVector();
    for (std::size_t i = 0; i < n; ++i) {
      const float dev = values[i] - out.rawMeanNs[i];
      out.sigmaPs[i] += dev * dev;
    }
  }
  if (!prediction.samples.empty()) {
    for (auto& s : out.sigmaPs) {
      s = std::sqrt(s / static_cast<float>(prediction.samples.size())) /
          kLabelScale;  // ns -> ps
    }
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

std::vector<float> OursModel::predictDesign(
    const TimingDataset& dataset, const features::DesignData& design,
    GraphMemo* graphMemo) {
  tensor::NoGradGuard guard;
  Rng rng = evalRng(design);
  DesignBatch batch = dataset.fullBatch(design);
  batch.graphMemo = graphMemo;
  return unscale(forward(batch, kEvalMcSamples, rng).prediction);
}

OursModel::Uncertainty OursModel::predictDesignWithUncertainty(
    const TimingDataset& dataset, const features::DesignData& design,
    std::int32_t mcSamples) {
  DAGT_CHECK(mcSamples >= 2);
  tensor::NoGradGuard guard;
  Rng rng = evalRng(design);
  const auto forwardResult =
      forward(dataset.fullBatch(design), mcSamples, rng);

  Uncertainty out;
  out.mean = unscale(forwardResult.prediction);
  const std::size_t n = out.mean.size();
  out.stddev.assign(n, 0.0f);
  if (forwardResult.samples.empty()) return out;  // deterministic variant
  for (const auto& sample : forwardResult.samples) {
    const std::vector<float> values = unscale(sample);
    for (std::size_t i = 0; i < n; ++i) {
      const float dev = values[i] - out.mean[i];
      out.stddev[i] += dev * dev;
    }
  }
  for (auto& s : out.stddev) {
    s = std::sqrt(s / static_cast<float>(forwardResult.samples.size()));
  }
  return out;
}

}  // namespace dagt::core
