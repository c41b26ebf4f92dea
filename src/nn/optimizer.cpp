#include "nn/optimizer.hpp"

#include <cmath>

#include "common/check.hpp"
#include "tensor/expr.hpp"

namespace dagt::nn {

Adam::Adam(std::vector<tensor::Tensor> parameters, Options options)
    : parameters_(std::move(parameters)), options_(options) {
  m_.reserve(parameters_.size());
  v_.reserve(parameters_.size());
  for (const auto& p : parameters_) {
    DAGT_CHECK(p.defined() && p.requiresGrad());
    m_.emplace_back(static_cast<std::size_t>(p.numel()), 0.0f);
    v_.emplace_back(static_cast<std::size_t>(p.numel()), 0.0f);
  }
}

void Adam::step() {
  ++stepCount_;
  const float b1 = options_.beta1;
  const float b2 = options_.beta2;
  const float correction1 =
      1.0f - std::pow(b1, static_cast<float>(stepCount_));
  const float correction2 =
      1.0f - std::pow(b2, static_cast<float>(stepCount_));
  for (std::size_t i = 0; i < parameters_.size(); ++i) {
    auto& p = parameters_[i];
    const tensor::Tensor grad = p.grad();
    if (!grad.defined()) continue;  // parameter unused in this graph
    const float* g = grad.data();
    float* w = p.data();
    const std::size_t n = static_cast<std::size_t>(p.numel());
    for (std::size_t j = 0; j < n; ++j) {
      m_[i][j] = b1 * m_[i][j] + (1.0f - b1) * g[j];
      v_[i][j] = b2 * v_[i][j] + (1.0f - b2) * g[j] * g[j];
      const float mHat = m_[i][j] / correction1;
      const float vHat = v_[i][j] / correction2;
      float update = mHat / (std::sqrt(vHat) + options_.epsilon);
      if (options_.weightDecay > 0.0f) {
        update += options_.weightDecay * w[j];
      }
      w[j] -= options_.learningRate * update;
    }
  }
  tensor::expr::noteParametersWritten();
}

void Adam::zeroGrad() {
  for (auto& p : parameters_) p.zeroGrad();
}

float Adam::clipGradNorm(float maxNorm) {
  DAGT_CHECK(maxNorm > 0.0f);
  double total = 0.0;
  for (auto& p : parameters_) {
    const tensor::Tensor grad = p.grad();
    if (!grad.defined()) continue;
    const float* g = grad.data();
    for (std::int64_t j = 0; j < grad.numel(); ++j) {
      total += static_cast<double>(g[j]) * g[j];
    }
  }
  const float norm = static_cast<float>(std::sqrt(total));
  if (norm > maxNorm) {
    const float scale = maxNorm / (norm + 1e-12f);
    for (auto& p : parameters_) {
      if (!p.grad().defined()) continue;
      // Scale the underlying grad buffer in place.
      auto impl = p.impl();
      for (auto& g : impl->grad) g *= scale;
    }
  }
  return norm;
}

}  // namespace dagt::nn
