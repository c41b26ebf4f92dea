#pragma once

#include <vector>

#include "nn/layers.hpp"
#include "nn/module.hpp"

namespace dagt::core {

/// Bayesian timing-prediction head (paper Section 3.4, Figure 7).
///
/// The final readout weight W in R^{1 x m} is a distribution rather than a
/// point estimate. Two small MLPs amortize its diagonal-Gaussian
/// parameters:
///   q(W | G')  ~ N( mu([u^n, u^d]),  Sigma([u^n, u^d]) )      (Eq. 9)
///   p(W | N)   ~ N( mu(u~(N)),       Sigma(u~(N)) )           (Eq. 10)
/// where u~(N) is the dummy node-level feature built from the mean
/// node-dependent feature of the node and the pooled mean design-dependent
/// feature of both nodes. Training fits the ELBO with Monte-Carlo averages
/// over K reparameterized samples of W (Eq. 11). Inference needs no
/// samples: the readout is linear in W, so the predictive distribution of
/// \hat y is exactly Gaussian (predictive()).
class BayesianHead : public nn::Module {
 public:
  BayesianHead(std::int64_t featureDim, std::int64_t hidden, Rng& rng);

  /// Diagonal Gaussian over W: mean and log-variance, each [B, m].
  struct WeightDistribution {
    tensor::Tensor mu;
    tensor::Tensor logvar;
  };

  /// Amortized distribution parameters for a batch of (dummy) features.
  WeightDistribution distribution(const tensor::Tensor& u) const;

  /// Monte-Carlo prediction with K reparameterized weight samples (the
  /// training readout: the ELBO's likelihood term averages the samples).
  struct Prediction {
    tensor::Tensor mean;                  // [B] — the final \hat y
    std::vector<tensor::Tensor> samples;  // K x [B] — per-sample \hat y_i
  };
  Prediction predict(const tensor::Tensor& u, const WeightDistribution& q,
                     std::int32_t numSamples, Rng& rng) const;

  /// The inference readout: the exact predictive distribution of
  /// \hat y = W . u + bias under W ~ q = distribution(u),
  ///   mean     = sum_j mu_j u_j + bias
  ///   variance = sum_j exp(logvar_j) u_j^2
  /// Under fusion one row-polymorphic program from u to both sums
  /// (compiled once for every batch width), bitwise equal to the eager ops.
  struct Predictive {
    tensor::Tensor mean;      // [B]
    tensor::Tensor variance;  // [B]
  };
  Predictive predictive(const tensor::Tensor& u) const;

  std::int64_t featureDim() const { return featureDim_; }

 private:
  /// Both sums of predictive() before the output bias.
  static Predictive predictiveSums(const tensor::Tensor& u,
                                   const WeightDistribution& q);
  /// y + bias for y [B]: the scalar output bias of every readout.
  tensor::Tensor addOutputBias(const tensor::Tensor& y) const;

  std::int64_t featureDim_;
  nn::Mlp muNet_;
  nn::Mlp logvarNet_;
  tensor::Tensor bias_;  // deterministic scalar output bias
  mutable tensor::expr::ProgramCache predictivePrograms_;
};

}  // namespace dagt::core
