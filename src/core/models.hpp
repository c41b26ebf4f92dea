#pragma once

#include <memory>
#include <vector>

#include "core/bayesian_head.hpp"
#include "core/dataset.hpp"
#include "core/disentangler.hpp"
#include "core/extractor.hpp"
#include "core/model_config.hpp"

namespace dagt::core {

/// Common interface of every trainable timing predictor: given a design's
/// pre-routing data, predict the sign-off arrival time (ps) per endpoint.
class TimingModel {
 public:
  virtual ~TimingModel() = default;
  /// The underlying parameter container (for optimizers / serialization).
  virtual nn::Module& module() = 0;

  /// Per-endpoint predictive distribution (ps): mean and standard
  /// deviation of the sign-off arrival.
  struct Prediction {
    std::vector<float> mean;
    std::vector<float> stddev;
  };
  /// The inference readout, shared by every read path (serve batches,
  /// full-design predicts, eval): one (mean, stddev) per batch row, in row
  /// order. Runs without autograd. A row's answer depends only on that
  /// row's inputs, never on the other rows of the batch. stddev is the
  /// Bayesian head's exact predictive spread, 0 for deterministic readouts.
  virtual Prediction predictBatch(const DesignBatch& batch) const = 0;

  /// Mean arrival predictions (ps) for all endpoints of a design, in
  /// endpoint order: predictBatch over the full-design batch. `graphMemo`
  /// (the serving engine's per-snapshot memo) replaces the GNN sweep once
  /// it is filled.
  std::vector<float> predictDesign(const TimingDataset& dataset,
                                   const features::DesignData& design,
                                   GraphMemo* graphMemo = nullptr) const;
  /// The full predictive distribution for all endpoints of a design. The
  /// spread is the Bayesian head's epistemic uncertainty: endpoints whose
  /// path feature is far from the training distribution get a wider
  /// weight posterior.
  Prediction predictDesignWithUncertainty(
      const TimingDataset& dataset, const features::DesignData& design) const;
};

/// The DAC'23 [4] baseline predictor: the multimodal path feature extractor
/// followed by a deterministic linear readout. With perNodeReadout, each
/// technology node owns a private readout layer while the extractor is
/// shared — the "parameter sharing" transfer baseline [7].
class Dac23Model : public TimingModel, public nn::Module {
 public:
  Dac23Model(std::int64_t pinFeatureDim, const ModelConfig& config,
             bool perNodeReadout, Rng& rng);

  /// Predictions in ns (label scale) for one batch.
  tensor::Tensor forwardBatch(const DesignBatch& batch) const;

  /// Whether this instance carries the per-node (ParamShare) readout pair.
  bool perNodeReadout() const { return readoutTarget_ != nullptr; }

  nn::Module& module() override { return *this; }
  Prediction predictBatch(const DesignBatch& batch) const override;

 private:
  PathFeatureExtractor extractor_;
  std::unique_ptr<nn::Linear> readout_;        // shared readout
  std::unique_ptr<nn::Linear> readoutTarget_;  // 7nm readout (ParamShare)
  tensor::Tensor bypass_;        // w0 of the pre-route bypass (shared head)
  tensor::Tensor bypassTarget_;  // w0 of the 7nm head (ParamShare)
};

/// Which parts of the proposed method are active — the paper's Figure 8
/// ablation axes.
enum class OursVariant {
  kFull,       // disentangle + align + Bayesian head
  kDaOnly,     // disentangle + align, deterministic readout
  kBayesOnly,  // Bayesian head, no alignment losses
};

/// The proposed model: extractor -> disentangler -> (alignment losses) ->
/// Bayesian readout. Alignment losses are computed by the Trainer from the
/// exposed disentangled features.
class OursModel : public TimingModel, public nn::Module {
 public:
  OursModel(std::int64_t pinFeatureDim, const ModelConfig& config,
            OursVariant variant, Rng& rng);

  OursVariant variant() const { return variant_; }
  /// Whether the trainer should add the contrastive + CMD losses.
  bool usesAlignmentLosses() const { return variant_ != OursVariant::kBayesOnly; }
  bool usesBayesianHead() const { return variant_ != OursVariant::kDaOnly; }

  /// Everything the trainer needs from one batch.
  struct BatchForward {
    tensor::Tensor u;   // [B, m]
    tensor::Tensor un;  // [B, m/2]
    tensor::Tensor ud;  // [B, m/2]
    tensor::Tensor prediction;             // [B] (ns)
    std::vector<tensor::Tensor> samples;   // K x [B]; empty for kDaOnly
    BayesianHead::WeightDistribution q;    // undefined for kDaOnly
  };
  /// The training forward: the Bayesian head's prediction is the
  /// Monte-Carlo average of mcSamples reparameterized readouts (Eq. 11).
  /// Inference uses predictBatch() instead.
  BatchForward forward(const DesignBatch& batch, std::int32_t mcSamples,
                       Rng& rng) const;

  /// Prior p(W|N) from the dummy node feature u~ (Eq. 10): the mean
  /// node-dependent feature of this node's paths and the pooled mean
  /// design-dependent feature across both nodes. Returns [1, m] params.
  BayesianHead::WeightDistribution prior(
      const tensor::Tensor& unThisNode,
      const tensor::Tensor& udAllNodes) const;

  nn::Module& module() override { return *this; }
  Prediction predictBatch(const DesignBatch& batch) const override;

 private:
  /// extractor -> disentangler: fills u, un and ud.
  BatchForward encode(const DesignBatch& batch) const;
  /// The kDaOnly per-node readout of joint rows (ns, bypass applied).
  tensor::Tensor deterministicReadout(const tensor::Tensor& joint,
                                      const DesignBatch& batch) const;

  ModelConfig config_;
  OursVariant variant_;
  PathFeatureExtractor extractor_;
  Disentangler disentangler_;
  std::unique_ptr<BayesianHead> bayesHead_;
  // kDaOnly: per-node deterministic readouts. A fixed linear layer cannot
  // modulate itself per input the way the Bayesian head does, so the
  // ablation inherits the per-node readout of the ParamShare baseline;
  // the full model's Bayesian head replaces both with one conditional W.
  std::unique_ptr<nn::Linear> detReadout_;        // source node (130nm)
  std::unique_ptr<nn::Linear> detReadoutTarget_;  // target node (7nm)
  tensor::Tensor bypass_;        // w0 of the pre-route bypass
  tensor::Tensor bypassTarget_;  // kDaOnly 7nm bypass
};

}  // namespace dagt::core
