#include "nn/layers.hpp"

#include <cmath>

#include "common/check.hpp"

namespace dagt::nn {

using tensor::Tensor;

Tensor activate(const Tensor& t, Activation activation) {
  switch (activation) {
    case Activation::kNone: return t;
    case Activation::kRelu: return tensor::relu(t);
    case Activation::kLeakyRelu: return tensor::leakyRelu(t);
    case Activation::kTanh: return tensor::tanhOp(t);
    case Activation::kSigmoid: return tensor::sigmoid(t);
  }
  DAGT_CHECK_MSG(false, "unknown activation");
}

Linear::Linear(std::int64_t inFeatures, std::int64_t outFeatures, Rng& rng,
               Activation activation)
    : inFeatures_(inFeatures),
      outFeatures_(outFeatures),
      activation_(activation) {
  DAGT_CHECK(inFeatures >= 1 && outFeatures >= 1);
  const float bound =
      std::sqrt(6.0f / static_cast<float>(inFeatures));  // Kaiming-uniform
  weight_ = registerParameter(
      Tensor::randu({inFeatures, outFeatures}, rng, -bound, bound));
  bias_ = registerParameter(Tensor::zeros({outFeatures}));
}

Tensor Linear::body(const Tensor& x) const {
  return activate(tensor::addBias(tensor::matmul(x, weight_), bias_),
                  activation_);
}

Tensor Linear::forward(const Tensor& x) const {
  DAGT_CHECK_MSG(x.ndim() == 2 && x.dim(1) == inFeatures_,
                 "Linear: input [" << x.dim(0) << "," << x.dim(1)
                                   << "] expected cols " << inFeatures_);
  // Steady-state inference replays a compiled program: one fused
  // GEMM-with-epilogue launch instead of matmul + addBias + activation.
  if (tensor::expr::shouldFuse()) {
    tensor::expr::SigHash sig;
    sig.mixTrailingDims(x.shape());
    mixStateInto(sig);
    auto program = programs_.getOrCompile(sig.h, x.dim(0), [&] {
      tensor::expr::Capture cap;
      const Tensor lx = cap.input(x);
      const Tensor y = body(lx);
      return cap.compile({&y});
    });
    return program->runOne({x});
  }
  return body(x);
}

Mlp::Mlp(const std::vector<std::int64_t>& dims, Rng& rng,
         Activation hiddenActivation, Activation outputActivation) {
  DAGT_CHECK_MSG(dims.size() >= 2, "Mlp needs at least {in, out} dims");
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    const bool last = i + 2 == dims.size();
    layers_.push_back(std::make_unique<Linear>(
        dims[i], dims[i + 1], rng,
        last ? outputActivation : hiddenActivation));
    registerChild(*layers_.back());
  }
}

Tensor Mlp::forward(const Tensor& x) const {
  Tensor h = x;
  for (const auto& layer : layers_) h = layer->forward(h);
  return h;
}

LayerNorm::LayerNorm(std::int64_t dim, float epsilon)
    : dim_(dim), epsilon_(epsilon) {
  DAGT_CHECK(dim >= 1);
  gain_ = registerParameter(Tensor::ones({dim}));
  bias_ = registerParameter(Tensor::zeros({dim}));
}

Tensor LayerNorm::forward(const Tensor& x, bool relu) const {
  DAGT_CHECK_MSG(x.ndim() == 2 && x.dim(1) == dim_,
                 "LayerNorm: bad input shape");
  const Tensor mean = tensor::meanDim1(x);
  const Tensor centered = tensor::addColVec(x, tensor::neg(mean));
  const Tensor var = tensor::meanDim1(tensor::square(centered));
  const Tensor invStd = tensor::div(
      Tensor::ones({x.dim(0)}),
      tensor::sqrtOp(tensor::addScalar(var, epsilon_)));
  const Tensor normalized = tensor::mulColVec(centered, invStd);
  // Per-feature affine: gain * normalized + bias.
  const Tensor y = tensor::addBias(
      tensor::mul(normalized,
                  tensor::repeatRows(tensor::reshape(gain_, {1, dim_}),
                                     x.dim(0))),
      bias_);
  return relu ? tensor::relu(y) : y;
}

Conv2d::Conv2d(std::int64_t inChannels, std::int64_t outChannels,
               std::int64_t kernel, std::int64_t stride, std::int64_t padding,
               Rng& rng, Activation activation)
    : stride_(stride), padding_(padding), activation_(activation) {
  DAGT_CHECK(inChannels >= 1 && outChannels >= 1 && kernel >= 1);
  const float fanIn = static_cast<float>(inChannels * kernel * kernel);
  const float bound = std::sqrt(6.0f / fanIn);
  weight_ = registerParameter(Tensor::randu(
      {outChannels, inChannels, kernel, kernel}, rng, -bound, bound));
  bias_ = registerParameter(Tensor::zeros({outChannels}));
}

Tensor Conv2d::forward(const Tensor& x) const {
  return activate(tensor::conv2d(x, weight_, bias_, stride_, padding_),
                  activation_);
}

}  // namespace dagt::nn
