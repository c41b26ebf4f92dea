#pragma once

#include <vector>

#include "tensor/tensor.hpp"

namespace dagt::nn {

/// Adam optimizer (Kingma & Ba) over a fixed parameter list.
///
/// Holds first/second moment state per parameter; parameters are updated in
/// place from their accumulated gradients. Matches the paper's training
/// setup (Adam, lr 1e-4 at full scale).
class Adam {
 public:
  struct Options {
    float learningRate = 1e-3f;
    float beta1 = 0.9f;
    float beta2 = 0.999f;
    float epsilon = 1e-8f;
    float weightDecay = 0.0f;  // decoupled (AdamW-style) when > 0
  };

  Adam(std::vector<tensor::Tensor> parameters, Options options);

  /// Apply one update from the current gradients (missing grads are skipped).
  void step();

  /// Zero every parameter's gradient buffer.
  void zeroGrad();

  /// Clip gradients to the given global L2 norm; returns the pre-clip norm.
  float clipGradNorm(float maxNorm);

  float learningRate() const { return options_.learningRate; }
  void setLearningRate(float lr) { options_.learningRate = lr; }

 private:
  std::vector<tensor::Tensor> parameters_;
  Options options_;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
  std::int64_t stepCount_ = 0;
};

}  // namespace dagt::nn
