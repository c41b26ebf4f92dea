#include "core/extractor.hpp"

#include "common/check.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace dagt::core {

using tensor::Tensor;

const TimingGnn::Output& GraphMemo::getOrFill(
    const features::DesignData& design,
    const std::function<TimingGnn::Output()>& sweep) {
  std::lock_guard<std::mutex> lock(fillMutex_);
  if (design_ == nullptr) {
    // The memo outlives the forward that fills it: a tape recorded here
    // would pin that forward's autograd graph.
    DAGT_CHECK_MSG(!tensor::NoGradGuard::gradEnabled(),
                   "GraphMemo filled with gradients enabled");
    output_ = sweep();
    design_ = &design;
    std::uint64_t total = 0;
    for (const Tensor& level : output_.levelEmbeddings) {
      total += static_cast<std::uint64_t>(level.numel()) * sizeof(float);
    }
    bytes_.store(total, std::memory_order_relaxed);
    if (sweeps_ != nullptr) sweeps_->fetch_add(1, std::memory_order_relaxed);
  }
  DAGT_CHECK_MSG(design_ == &design,
                 "GraphMemo asked for '" << design.name
                                         << "' but filled for another snapshot");
  return output_;
}

PathFeatureExtractor::PathFeatureExtractor(std::int64_t pinFeatureDim,
                                           const ModelConfig& config,
                                           Rng& rng)
    : config_(config),
      gnn_(pinFeatureDim, config.gnnHidden, rng),
      cnn_(config.cnnBaseChannels, config.cnnDim, rng) {
  registerChild(gnn_);
  registerChild(cnn_);
}

Tensor PathFeatureExtractor::extract(const DesignBatch& batch) const {
  DAGT_CHECK(batch.design != nullptr);
  const auto& design = *batch.design;

  // GNN over the whole design (once per snapshot with a memo), then the
  // batch's endpoint rows.
  const auto sweep = [&] {
    DAGT_TRACE_SCOPE("model/gnn");
    return gnn_.forward(*design.graph, design.pinFeatures);
  };
  TimingGnn::Output swept;
  const TimingGnn::Output* gnnOut = &swept;
  if (batch.graphMemo != nullptr) {
    gnnOut = &batch.graphMemo->getOrFill(design, sweep);
  } else {
    swept = sweep();
  }
  std::vector<netlist::PinId> endpointPins;
  endpointPins.reserve(batch.endpointIdx.size());
  for (const std::int64_t e : batch.endpointIdx) {
    endpointPins.push_back(
        design.paths()[static_cast<std::size_t>(e)].endpoint);
  }
  const Tensor graphEmb = TimingGnn::select(*gnnOut, endpointPins);

  // CNN over the batch of path-masked layout images.
  const Tensor layoutEmb = [&] {
    DAGT_TRACE_SCOPE("model/cnn");
    return cnn_.forward(batch.images);
  }();

  return tensor::concat1({graphEmb, layoutEmb});
}

}  // namespace dagt::core
