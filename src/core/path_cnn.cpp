#include "core/path_cnn.hpp"

#include "common/check.hpp"
#include "tensor/ops.hpp"

namespace dagt::core {

using tensor::Tensor;

PathCnn::PathCnn(std::int64_t baseChannels, std::int64_t outDim, Rng& rng)
    : outDim_(outDim),
      conv1_(3, baseChannels, 3, 2, 1, rng, nn::Activation::kRelu),
      conv2_(baseChannels, baseChannels * 2, 3, 2, 1, rng,
             nn::Activation::kRelu),
      conv3_(baseChannels * 2, baseChannels * 4, 3, 2, 1, rng,
             nn::Activation::kRelu),
      project_(baseChannels * 4, outDim, rng) {
  registerChild(conv1_);
  registerChild(conv2_);
  registerChild(conv3_);
  registerChild(project_);
}

Tensor PathCnn::body(const Tensor& images) const {
  Tensor h = conv1_.forward(images);
  h = conv2_.forward(h);
  h = conv3_.forward(h);
  return project_.forward(tensor::globalAvgPool(h));
}

Tensor PathCnn::forward(const Tensor& images) const {
  DAGT_CHECK(images.ndim() == 4);
  DAGT_CHECK_MSG(images.dim(1) == 3, "expected 3 layout channels");
  DAGT_CHECK_MSG(images.dim(2) >= 8 && images.dim(3) >= 8,
                 "image too small for three stride-2 stages");
  if (tensor::expr::shouldFuse()) {
    tensor::expr::SigHash sig;
    sig.mixTrailingDims(images.shape());
    mixStateInto(sig);
    auto program = programs_.getOrCompile(sig.h, images.dim(0), [&] {
      tensor::expr::Capture cap;
      const Tensor li = cap.input(images);
      const Tensor y = body(li);
      return cap.compile({&y});
    });
    return program->runOne({images});
  }
  return body(images);
}

}  // namespace dagt::core
