#include "core/bayesian_head.hpp"

#include "common/check.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"
#include "tensor/storage.hpp"

namespace dagt::core {

using tensor::Tensor;

BayesianHead::BayesianHead(std::int64_t featureDim, std::int64_t hidden,
                           Rng& rng)
    : featureDim_(featureDim),
      muNet_({featureDim, hidden, featureDim}, rng, nn::Activation::kRelu,
             nn::Activation::kNone),
      logvarNet_({featureDim, hidden, featureDim}, rng,
                 nn::Activation::kRelu, nn::Activation::kNone) {
  // The amortization MLPs are frozen at their seeded random init: the
  // extractor/disentangler learn *through* this fixed random readout
  // (extreme-learning-machine style), which is what the reproduction's
  // recorded accuracy was tuned around. Frozen registration keeps them out
  // of the optimizer while still serializing them, so a saved model
  // round-trips exactly.
  registerChild(muNet_, /*trainable=*/false);
  registerChild(logvarNet_, /*trainable=*/false);
  bias_ = registerParameter(Tensor::zeros({1}));
}

BayesianHead::WeightDistribution BayesianHead::distribution(
    const Tensor& u) const {
  DAGT_CHECK(u.ndim() == 2 && u.dim(1) == featureDim_);
  // Bound the log-variance to [-5, 1] (sigma in [0.08, 1.65]): keeps the
  // reparameterized samples and the closed-form KL numerically tame.
  const auto body = [&](const Tensor& in) -> WeightDistribution {
    const Tensor raw = logvarNet_.forward(in);
    const Tensor logvar =
        tensor::addScalar(tensor::mulScalar(tensor::tanhOp(raw), 3.0f), -2.0f);
    return {muNet_.forward(in), logvar};
  };
  if (tensor::expr::shouldFuse()) {
    tensor::expr::SigHash sig;
    sig.mixTrailingDims(u.shape());
    mixStateInto(sig);
    auto program = distPrograms_.getOrCompile(sig.h, u.dim(0), [&] {
      tensor::expr::Capture cap;
      const Tensor lu = cap.input(u);
      const WeightDistribution d = body(lu);
      return cap.compile({&d.mu, &d.logvar});
    });
    auto out = program->run({u});
    return {out[0], out[1]};
  }
  return body(u);
}

BayesianHead::Prediction BayesianHead::predict(const Tensor& u,
                                               const WeightDistribution& q,
                                               std::int32_t numSamples,
                                               Rng& rng) const {
  DAGT_CHECK(numSamples >= 1);
  // All K eps draws are hoisted ahead of the compute. The draws never
  // depend on the per-sample results, so the rng stream — and therefore
  // every eps tensor — is identical to the historical draw-inside-the-loop
  // order, with fusion on or off.
  std::vector<Tensor> eps;
  eps.reserve(static_cast<std::size_t>(numSamples));
  for (std::int32_t k = 0; k < numSamples; ++k) {
    eps.push_back(Tensor::randn(u.shape(), rng));
  }
  return predict(u, q, eps);
}

BayesianHead::Prediction BayesianHead::predict(
    const Tensor& u, const WeightDistribution& q,
    const std::vector<Tensor>& eps) const {
  DAGT_TRACE_SCOPE("bayes/predict");
  const auto numSamples = static_cast<std::int32_t>(eps.size());
  DAGT_CHECK(numSamples >= 1);
  DAGT_CHECK(u.shape() == q.mu.shape());
  const std::int64_t b = u.dim(0);
  // Fused path: the whole K-sample Monte-Carlo readout becomes one program
  // (inputs u, mu, logvar, eps_0..eps_{K-1}; outputs the K samples + mean).
  // K is part of the cache signature.
  if (tensor::expr::shouldFuse()) {
    tensor::expr::SigHash sig;
    sig.mixTrailingDims(u.shape());
    sig.mix(static_cast<std::uint64_t>(numSamples));
    mixStateInto(sig);
    auto program = predictPrograms_.getOrCompile(sig.h, b, [&] {
      tensor::expr::Capture cap;
      const Tensor lu = cap.input(u);
      const Tensor lmu = cap.input(q.mu);
      const Tensor llogvar = cap.input(q.logvar);
      std::vector<Tensor> leps;
      leps.reserve(eps.size());
      for (const Tensor& e : eps) leps.push_back(cap.input(e));
      const Tensor lstd = tensor::expOp(tensor::mulScalar(llogvar, 0.5f));
      std::vector<Tensor> samples;
      Tensor sum;
      for (std::int32_t k = 0; k < numSamples; ++k) {
        const Tensor w = tensor::add(lmu, tensor::mul(lstd, leps[k]));
        Tensor y = tensor::sumDim1(tensor::mul(w, lu));
        y = tensor::reshape(
            tensor::addBias(tensor::reshape(y, {b, 1}), bias_), {b});
        samples.push_back(y);
        sum = k == 0 ? y : tensor::add(sum, y);
      }
      const Tensor mean =
          tensor::mulScalar(sum, 1.0f / static_cast<float>(numSamples));
      std::vector<const Tensor*> outputs;
      for (const Tensor& s : samples) outputs.push_back(&s);
      outputs.push_back(&mean);
      return cap.compile(outputs);
    });
    std::vector<Tensor> programInputs{u, q.mu, q.logvar};
    for (const Tensor& e : eps) programInputs.push_back(e);
    std::vector<Tensor> values = program->run(programInputs);
    Prediction out;
    out.samples.assign(values.begin(), values.end() - 1);
    out.mean = values.back();
    return out;
  }
  // The K-sample Monte-Carlo loop below allocates several temporaries per
  // draw (w, partial sums); under inference they die each iteration, so a
  // workspace turns draws 2..K into pure buffer reuse. The returned
  // samples/mean keep their buffers alive past this scope via refcounts.
  tensor::Workspace workspace;
  const Tensor std = tensor::expOp(tensor::mulScalar(q.logvar, 0.5f));

  Prediction out;
  out.samples.reserve(static_cast<std::size_t>(numSamples));
  Tensor sum;
  for (std::int32_t k = 0; k < numSamples; ++k) {
    DAGT_TRACE_SCOPE("bayes/mc_sample");
    const Tensor w =
        tensor::add(q.mu, tensor::mul(std, eps[static_cast<std::size_t>(k)]));
    // \hat y_i = W_i . u + bias
    Tensor y = tensor::sumDim1(tensor::mul(w, u));
    y = tensor::reshape(
        tensor::addBias(tensor::reshape(y, {b, 1}), bias_), {b});
    out.samples.push_back(y);
    sum = k == 0 ? y : tensor::add(sum, y);
  }
  out.mean = tensor::mulScalar(sum, 1.0f / static_cast<float>(numSamples));
  return out;
}

}  // namespace dagt::core
