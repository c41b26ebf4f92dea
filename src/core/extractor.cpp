#include "core/extractor.hpp"

#include "common/check.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace dagt::core {

using tensor::Tensor;

GraphMemo::GraphMemo(Counters* counters,
                     std::shared_ptr<const GraphMemo> base)
    : counters_(counters), base_(std::move(base)) {
  DAGT_CHECK_MSG(
      base_ == nullptr || base_->filled_.load(std::memory_order_acquire),
      "GraphMemo base is not filled");
}

std::shared_ptr<const GraphMemo> GraphMemo::successorBase(
    const std::shared_ptr<GraphMemo>& memo) {
  if (memo == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(memo->fillMutex_);
  if (memo->filled_.load(std::memory_order_relaxed)) return memo;
  return memo->base_;
}

const TimingGnn::Output& GraphMemo::getOrFill(
    const features::DesignData& design, const TimingGnn& gnn) {
  std::lock_guard<std::mutex> lock(fillMutex_);
  if (!filled_.load(std::memory_order_relaxed)) {
    // The memo outlives the forward that fills it: a tape recorded here
    // would pin that forward's autograd graph.
    DAGT_CHECK_MSG(!tensor::NoGradGuard::gradEnabled(),
                   "GraphMemo filled with gradients enabled");
    std::int64_t rows = design.graph->numPins();
    {
      DAGT_TRACE_SCOPE("model/gnn");
      // The base is immutable since it published its fill (checked at
      // construction), so its fields are read without taking its mutex.
      if (base_ != nullptr) {
        output_ = gnn.forwardFrom(base_->output_, base_->pinFeatures_,
                                  *design.graph, design.pinFeatures, &rows);
      } else {
        output_ = gnn.forward(*design.graph, design.pinFeatures);
      }
    }
    pinFeatures_ = design.pinFeatures;
    graph_ = design.graph;
    std::uint64_t total = 0;
    for (const Tensor& level : output_.levelEmbeddings) {
      total += static_cast<std::uint64_t>(level.numel()) * sizeof(float);
    }
    bytes_.store(total, std::memory_order_relaxed);
    if (counters_ != nullptr) {
      counters_->fills.fetch_add(1, std::memory_order_relaxed);
      counters_->rowsComputed.fetch_add(static_cast<std::uint64_t>(rows),
                                        std::memory_order_relaxed);
    }
    filled_.store(true, std::memory_order_release);
    base_.reset();
  }
  DAGT_CHECK_MSG(
      graph_ == design.graph &&
          pinFeatures_.sharesEveryBlockWith(design.pinFeatures),
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
  TimingGnn::Output swept;
  const TimingGnn::Output* gnnOut = &swept;
  if (batch.graphMemo != nullptr) {
    gnnOut = &batch.graphMemo->getOrFill(design, gnn_);
  } else {
    DAGT_TRACE_SCOPE("model/gnn");
    swept = gnn_.forward(*design.graph, design.pinFeatures);
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
