#pragma once

#include "nn/layers.hpp"
#include "nn/module.hpp"

namespace dagt::core {

/// CNN over the per-path masked layout image set X (paper Section 3.1):
/// three stride-2 conv stages, global average pooling, and a linear
/// projection to the layout-embedding width.
class PathCnn : public nn::Module {
 public:
  PathCnn(std::int64_t baseChannels, std::int64_t outDim, Rng& rng);

  /// images: [B, 3, R, R] -> [B, outDim]. R must be >= 8. Inference with
  /// fusion on replays one program compiled for every B: the conv stack as
  /// one convReluPoolRows kernel, then the projection's fused GEMM.
  /// Training and DAGT_FUSION=0 run the eager conv2d chain, which that
  /// kernel matches bit for bit.
  tensor::Tensor forward(const tensor::Tensor& images) const;

  std::int64_t outDim() const { return outDim_; }

 private:
  tensor::Tensor body(const tensor::Tensor& images) const;

  std::int64_t outDim_;
  nn::Conv2d conv1_;
  nn::Conv2d conv2_;
  nn::Conv2d conv3_;
  nn::Linear project_;
  mutable tensor::expr::ProgramCache programs_;
};

}  // namespace dagt::core
