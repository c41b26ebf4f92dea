#pragma once

#include <vector>

#include "features/pin_features.hpp"
#include "features/pin_graph.hpp"
#include "nn/layers.hpp"
#include "nn/module.hpp"

namespace dagt::core {

/// Timing-engine-inspired GNN (paper Section 3.1, after Guo et al. [3]):
/// one levelized sweep over the heterogeneous pin graph from primary
/// inputs to endpoints.
///
/// Per level L the embedding of its pins is
///   emb_L = relu( LayerNorm( X_L W_self
///               + mean-agg(net fanin) W_ns + max-agg(net fanin) W_nm
///               + mean-agg(cell fanin) W_cs + max-agg(cell fanin) W_cm ) )
/// where the aggregations gather source embeddings from *earlier levels* —
/// so a single sweep propagates information along arbitrarily deep timing
/// paths, exactly like an STA arrival pass (the max-aggregation mirrors the
/// max-plus semantics of arrival propagation). The shared LayerNorm keeps
/// the level-to-level recurrence contractive: without it, activations
/// compound exponentially over the tens of logic levels of a deep design.
class TimingGnn : public nn::Module {
 public:
  TimingGnn(std::int64_t inputDim, std::int64_t hidden, Rng& rng);

  /// Embeddings of every pin, stored per level (level order matches the
  /// PinGraph). Keep the PinGraph alive while using the output.
  struct Output {
    std::vector<tensor::Tensor> levelEmbeddings;
    const features::PinGraph* graph = nullptr;
  };

  /// pinFeatures: [numPins, inputDim] in pin-id order. Per-level scratch
  /// is sized once per call, so a level allocates only its (pooled)
  /// tensors; the same holds for forwardFrom.
  Output forward(const features::PinGraph& graph,
                 const features::PinFeatures& pinFeatures) const;

  /// forward(graph, pinFeatures) rebuilt from `base`, the forward() of
  /// `basePinFeatures` over `base.graph`, which may be another graph (a
  /// buffer insertion grows it, a revert shrinks it back). A row is a pure
  /// function of its pin's feature row, the pin's in-edge sources in order
  /// and which edge kinds enter its level, so a pin's row carries from the
  /// base by pin id unless the pin is new, one of those three differs, or a
  /// fanin is recomputed. Only that fanout cone is recomputed, level by
  /// level (the changed feature rows come from PinFeatures::changedRows,
  /// which skips the blocks the two share). A level without a cone row and
  /// with the base's pin list is `base`'s tensor. Each op of the level body
  /// is row-local (a GEMM row, a destination's segment in edge order, a
  /// LayerNorm row), so the result is bitwise equal to the full sweep.
  /// `rowsComputed`, when non-null, receives the cone's size in pins.
  /// Inference only: the output shares tensors with `base`.
  Output forwardFrom(const Output& base,
                     const features::PinFeatures& basePinFeatures,
                     const features::PinGraph& graph,
                     const features::PinFeatures& pinFeatures,
                     std::int64_t* rowsComputed = nullptr) const;

  /// Rows of the per-level embeddings for the given pins: [pins.size(), D].
  static tensor::Tensor select(const Output& output,
                               const std::vector<netlist::PinId>& pins);

  std::int64_t hidden() const { return hidden_; }

  /// The sweep's per-level body: embeddings [pins.size(), hidden] of `pins`
  /// (rows of `pinFeatures`) from their own features, gathered with
  /// PinFeatures::gather, and, per edge kind, the mean and max of their
  /// in-edge sources in `earlier` (the embeddings of every earlier level).
  /// An edge list's dstLocal indexes `pins`; a null list means the level
  /// has no edge of that kind, while a pin without edges in a non-null list
  /// aggregates zeros.
  ///
  /// With fusion on, the level is one tensor::gnnLevel call, for training
  /// and serving alike: one pass over each kind's in-edges (sources read in
  /// place), the five GEMMs with bias and residual epilogues, then the
  /// LayerNorm + relu kernel. Under autograd it records one tape node;
  /// outside it records nothing. DAGT_FUSION=0 runs the autograd op chain
  /// (gatherRowsMulti, segmentSum, mulColVec, segmentMax, Linear,
  /// LayerNorm, relu), the reference. The op equals the chain bitwise at
  /// every tier, in its values and, with the sweep read through select(),
  /// in every gradient. Public so that tests can drive one level over
  /// hand-built edges.
  tensor::Tensor levelBody(const features::PinFeatures& pinFeatures,
                           const std::vector<std::int64_t>& pins,
                           const std::vector<tensor::Tensor>& earlier,
                           const features::LevelEdges* netEdges,
                           const features::LevelEdges* cellEdges) const;

 private:
  void checkInputs(const features::PinGraph& graph,
                   const features::PinFeatures& pinFeatures) const;

  std::int64_t inputDim_;
  std::int64_t hidden_;
  nn::Linear self_;
  nn::Linear netSum_;
  nn::Linear netMax_;
  nn::Linear cellSum_;
  nn::Linear cellMax_;
  nn::LayerNorm norm_;
  // The children's weights, as tensor::gnnLevel takes them.
  tensor::GnnLevelWeights levelWeights_;
};

}  // namespace dagt::core
