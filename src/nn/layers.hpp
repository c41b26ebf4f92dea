#pragma once

#include <vector>

#include "common/rng.hpp"
#include "nn/module.hpp"
#include "tensor/ops.hpp"

namespace dagt::nn {

/// Pointwise nonlinearity selector used by Linear / Mlp.
enum class Activation { kNone, kRelu, kLeakyRelu, kTanh, kSigmoid };

/// Apply the selected activation (kNone is the identity).
tensor::Tensor activate(const tensor::Tensor& t, Activation activation);

/// Fully connected layer: y = x W + b, optionally followed by an activation.
class Linear : public Module {
 public:
  /// Kaiming-uniform weight init scaled for the fan-in; zero bias.
  Linear(std::int64_t inFeatures, std::int64_t outFeatures, Rng& rng,
         Activation activation = Activation::kNone);

  /// x: [N, inFeatures] -> [N, outFeatures].
  tensor::Tensor forward(const tensor::Tensor& x) const;

  std::int64_t inFeatures() const { return inFeatures_; }
  std::int64_t outFeatures() const { return outFeatures_; }
  const tensor::Tensor& weight() const { return weight_; }
  const tensor::Tensor& bias() const { return bias_; }

 private:
  tensor::Tensor body(const tensor::Tensor& x) const;

  std::int64_t inFeatures_;
  std::int64_t outFeatures_;
  Activation activation_;
  tensor::Tensor weight_;  // [in, out]
  tensor::Tensor bias_;    // [out]
  // Compiled steady-state forwards, keyed by input width + parameter
  // storage (see Module::mixStateInto); one program serves every row count.
  mutable tensor::expr::ProgramCache programs_;
};

/// Multi-layer perceptron with a uniform hidden activation and a separate
/// output activation (the paper's MLP_d appends tanh; MLP_n does not).
class Mlp : public Module {
 public:
  /// dims = {in, hidden..., out}; requires at least {in, out}.
  Mlp(const std::vector<std::int64_t>& dims, Rng& rng,
      Activation hiddenActivation = Activation::kRelu,
      Activation outputActivation = Activation::kNone);

  tensor::Tensor forward(const tensor::Tensor& x) const;

 private:
  std::vector<std::unique_ptr<Linear>> layers_;
};

/// Layer normalization over the last dimension of a [N, D] tensor with
/// learnable per-feature gain and bias. Keeps recurrent level-by-level
/// sweeps (the timing GNN) numerically contractive.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(std::int64_t dim, float epsilon = 1e-5f);

  /// LayerNorm(x), followed by relu when `relu`, as an autograd op chain.
  /// KernelTable::layerNormRows, which tensor::gnnLevel runs, repeats its
  /// roundings bit for bit.
  tensor::Tensor forward(const tensor::Tensor& x, bool relu = false) const;

  const tensor::Tensor& gain() const { return gain_; }
  const tensor::Tensor& bias() const { return bias_; }
  float epsilon() const { return epsilon_; }

 private:
  std::int64_t dim_;
  float epsilon_;
  tensor::Tensor gain_;  // [D], init 1
  tensor::Tensor bias_;  // [D], init 0
};

/// 2-D convolution layer (NCHW) with optional activation.
class Conv2d : public Module {
 public:
  Conv2d(std::int64_t inChannels, std::int64_t outChannels,
         std::int64_t kernel, std::int64_t stride, std::int64_t padding,
         Rng& rng, Activation activation = Activation::kNone);

  tensor::Tensor forward(const tensor::Tensor& x) const;

 private:
  std::int64_t stride_;
  std::int64_t padding_;
  Activation activation_;
  tensor::Tensor weight_;  // [out, in, k, k]
  tensor::Tensor bias_;    // [out]
};

}  // namespace dagt::nn
