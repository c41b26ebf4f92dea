#include "core/disentangler.hpp"

#include "common/check.hpp"

namespace dagt::core {

Disentangler::Disentangler(std::int64_t featureDim, std::int64_t hidden,
                           Rng& rng)
    : halfDim_(featureDim / 2),
      nodeMlp_({featureDim, hidden, halfDim_}, rng, nn::Activation::kRelu,
               nn::Activation::kNone),
      designMlp_({featureDim, hidden, halfDim_}, rng, nn::Activation::kRelu,
                 nn::Activation::kTanh) {
  DAGT_CHECK_MSG(featureDim % 2 == 0, "feature dim must be even");
  registerChild(nodeMlp_);
  registerChild(designMlp_);
}

Disentangler::Split Disentangler::forward(const tensor::Tensor& u) const {
  // Steady-state inference compiles both heads into one two-output program:
  // four fused GEMM launches (two per MLP, each with its bias/activation
  // folded into the epilogue) and no intermediate graph bookkeeping.
  if (tensor::expr::shouldFuse()) {
    tensor::expr::SigHash sig;
    sig.mixTrailingDims(u.shape());
    mixStateInto(sig);
    auto program = programs_.getOrCompile(sig.h, u.dim(0), [&] {
      tensor::expr::Capture cap;
      const tensor::Tensor lu = cap.input(u);
      const tensor::Tensor node = nodeMlp_.forward(lu);
      const tensor::Tensor design = designMlp_.forward(lu);
      return cap.compile({&node, &design});
    });
    auto out = program->run({u});
    return {out[0], out[1]};
  }
  return {nodeMlp_.forward(u), designMlp_.forward(u)};
}

}  // namespace dagt::core
