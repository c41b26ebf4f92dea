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
  /// Arrival predictions (ps) for all endpoints of a design, in endpoint
  /// order. Deterministic across calls. `graphMemo` (the serving engine's
  /// per-snapshot memo) replaces the GNN sweep once it is filled.
  virtual std::vector<float> predictDesign(
      const TimingDataset& dataset, const features::DesignData& design,
      GraphMemo* graphMemo = nullptr) = 0;
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
  std::vector<float> predictDesign(const TimingDataset& dataset,
                                   const features::DesignData& design,
                                   GraphMemo* graphMemo = nullptr) override;

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
  BatchForward forward(const DesignBatch& batch, std::int32_t mcSamples,
                       Rng& rng) const;

  /// The joint disentangled embedding [B, m] of a batch: extractor ->
  /// disentangler -> concat, exactly the prefix of forward() before the
  /// head. A later headPredict() on these rows reproduces forward()'s
  /// prediction bit-for-bit — the split exists so the serving retrieval
  /// cache can embed once, probe its index, and run the head only on
  /// misses. Bayesian-head variants only.
  tensor::Tensor embed(const DesignBatch& batch) const;

  /// Head-only forward over precomputed joint embeddings (Bayesian-head
  /// variants only). With the same joint rows, preRouteNs and RNG state as
  /// a full forward(), predictionNs is bitwise identical to
  /// forward().prediction. rawMeanNs is the PRE-bypass head mean (what the
  /// retrieval cache stores, so a hit can re-apply the bypass against a
  /// newer revision's pre-route arrival); sigmaPs is the Monte-Carlo
  /// predictive stddev in ps (bypass-invariant: the bypass shifts every
  /// sample equally).
  struct HeadPrediction {
    std::vector<float> predictionNs;  // [B], bypass applied
    std::vector<float> rawMeanNs;     // [B], pre-bypass head mean
    std::vector<float> sigmaPs;       // [B], predictive stddev (ps)
  };
  HeadPrediction headPredict(const tensor::Tensor& joint,
                             const tensor::Tensor& preRouteNs,
                             std::int32_t mcSamples, Rng& rng) const;

  /// w0 of the shared pre-route bypass, for re-applying the bypass to a
  /// cached rawMeanNs: y = raw + w0 * preRouteNs (same two float roundings
  /// as the tensor-side applyBypass).
  float bypassW0() const { return bypass_.data()[0]; }

  /// Prior p(W|N) from the dummy node feature u~ (Eq. 10): the mean
  /// node-dependent feature of this node's paths and the pooled mean
  /// design-dependent feature across both nodes. Returns [1, m] params.
  BayesianHead::WeightDistribution prior(
      const tensor::Tensor& unThisNode,
      const tensor::Tensor& udAllNodes) const;

  nn::Module& module() override { return *this; }
  std::vector<float> predictDesign(const TimingDataset& dataset,
                                   const features::DesignData& design,
                                   GraphMemo* graphMemo = nullptr) override;

  /// Monte-Carlo predictive distribution per endpoint: mean and standard
  /// deviation (ps) of \hat y over the sampled readout weights. The spread
  /// is the Bayesian head's epistemic uncertainty — endpoints whose path
  /// feature is far from the training distribution sample more dispersed
  /// weights. Deterministic across calls. Only meaningful for variants
  /// with the Bayesian head (kDaOnly yields zero spread).
  struct Uncertainty {
    std::vector<float> mean;    // ps
    std::vector<float> stddev;  // ps
  };
  Uncertainty predictDesignWithUncertainty(
      const TimingDataset& dataset, const features::DesignData& design,
      std::int32_t mcSamples = 32);

  static constexpr std::int32_t kEvalMcSamples = 8;

 private:
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
