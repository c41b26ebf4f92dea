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
  const Tensor raw = logvarNet_.forward(u);
  const Tensor logvar =
      tensor::addScalar(tensor::mulScalar(tensor::tanhOp(raw), 3.0f), -2.0f);
  return {muNet_.forward(u), logvar};
}

Tensor BayesianHead::addOutputBias(const Tensor& y) const {
  const std::int64_t b = y.dim(0);
  return tensor::reshape(
      tensor::addBias(tensor::reshape(y, {b, 1}), bias_), {b});
}

BayesianHead::Prediction BayesianHead::predict(const Tensor& u,
                                               const WeightDistribution& q,
                                               std::int32_t numSamples,
                                               Rng& rng) const {
  DAGT_CHECK(numSamples >= 1);
  DAGT_CHECK(u.shape() == q.mu.shape());
  // All K eps draws are hoisted ahead of the compute. The draws never
  // depend on the per-sample results, so the rng stream — and therefore
  // every eps tensor — is identical to a draw-inside-the-loop order.
  std::vector<Tensor> eps;
  eps.reserve(static_cast<std::size_t>(numSamples));
  for (std::int32_t k = 0; k < numSamples; ++k) {
    eps.push_back(Tensor::randn(u.shape(), rng));
  }
  DAGT_TRACE_SCOPE("bayes/predict");
  // The loop allocates several temporaries per draw (w, partial sums); a
  // workspace turns draws 2..K into buffer reuse. The returned samples and
  // mean keep their buffers alive past this scope via refcounts.
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
    const Tensor y = addOutputBias(tensor::sumDim1(tensor::mul(w, u)));
    out.samples.push_back(y);
    sum = k == 0 ? y : tensor::add(sum, y);
  }
  out.mean = tensor::mulScalar(sum, 1.0f / static_cast<float>(numSamples));
  return out;
}

BayesianHead::Predictive BayesianHead::predictiveSums(
    const Tensor& u, const WeightDistribution& q) {
  DAGT_CHECK(u.ndim() == 2 && u.shape() == q.mu.shape() &&
             u.shape() == q.logvar.shape());
  // The mean is one Monte-Carlo sample's readout with W = mu; the
  // variance is Var[W . u] for independent W_j ~ N(mu_j, exp(logvar_j)).
  return {tensor::sumDim1(tensor::mul(q.mu, u)),
          tensor::sumDim1(
              tensor::mul(tensor::mul(tensor::expOp(q.logvar), u), u))};
}

BayesianHead::Predictive BayesianHead::predictive(const Tensor& u) const {
  DAGT_CHECK(u.ndim() == 2 && u.dim(1) == featureDim_);
  Predictive sums;
  if (tensor::expr::shouldFuse()) {
    tensor::expr::SigHash sig;
    sig.mixTrailingDims(u.shape());
    mixStateInto(sig);
    auto program = predictivePrograms_.getOrCompile(sig.h, u.dim(0), [&] {
      tensor::expr::Capture cap;
      const Tensor lu = cap.input(u);
      const Predictive s = predictiveSums(lu, distribution(lu));
      return cap.compile({&s.mean, &s.variance});
    });
    const std::vector<Tensor> values = program->run({u});
    sums = {values[0], values[1]};
  } else {
    sums = predictiveSums(u, distribution(u));
  }
  // The bias add reshapes, which would bake the row count into the
  // program, so it runs after the replay.
  return {addOutputBias(sums.mean), sums.variance};
}

}  // namespace dagt::core
