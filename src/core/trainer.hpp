#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "core/losses.hpp"
#include "core/models.hpp"

namespace dagt::core {

/// Training strategy — the rows of the paper's Table 2 plus the Figure 8
/// ablation variants. All DAC'23-based baselines share the same
/// architecture and differ only in how the two nodes' data is used.
enum class Strategy {
  kAdvOnly,           // DAC23, limited 7nm data only
  kSimpleMerge,       // DAC23, 130nm + 7nm naively merged
  kParamShare,        // DAC23, shared extractor + per-node readout [7]
  kPretrainFinetune,  // DAC23, pretrain on 130nm then finetune on 7nm [6]
  kOurs,              // disentangle + align + Bayesian head
  kOursDaOnly,        // ablation: alignment only, deterministic readout
  kOursBayesOnly,     // ablation: Bayesian head only, no alignment losses
};

std::string strategyName(Strategy strategy);

struct TrainConfig {
  std::int32_t epochs = 40;
  /// Finetuning epochs for kPretrainFinetune ("much fewer steps").
  std::int32_t finetuneEpochs = 16;
  float learningRate = 2e-3f;
  float finetuneLearningRate = 6e-4f;
  std::int64_t endpointCap = 128;  // paths sampled per design per step
  std::int32_t mcSamples = 4;      // K in Eq. 11
  float tau = 0.1f;                // contrastive temperature
  float gamma1 = 10.0f;            // node-contrastive weight (paper value)
  float gamma2 = 100.0f;           // CMD weight (paper value)
  int cmdMaxOrder = 5;             // CMD moment order cap (paper value)
  /// Weight on the KL term of the ELBO (1.0 = plain ELBO).
  float klWeight = 0.1f;
  float gradClip = 5.0f;
  std::uint64_t seed = 1234;
  ModelConfig model;
  bool verbose = false;
};

struct TrainStats {
  std::vector<float> epochLoss;
  double trainSeconds = 0.0;
};

/// Trains a timing predictor on the designs of a TimingDataset according
/// to a strategy. The dataset must contain the target-node training design
/// (role kTrainTarget) and, for transfer strategies, source-node designs.
///
/// Every strategy runs the same step loop on the calling thread: each step
/// draws its part of the schedule (shuffles, batches, forward seeds) from
/// the one seeded RNG stream, then runs the forward, backward and Adam
/// step. The loss curve and trained weights depend only on the config and
/// the data.
class Trainer {
 public:
  Trainer(const TimingDataset& trainData, TrainConfig config);

  std::unique_ptr<TimingModel> train(Strategy strategy,
                                     TrainStats* stats = nullptr) const;

 private:
  std::unique_ptr<TimingModel> trainBaseline(Strategy strategy,
                                             TrainStats* stats) const;
  std::unique_ptr<TimingModel> trainOurs(Strategy strategy,
                                         TrainStats* stats) const;

  const TimingDataset* data_;
  TrainConfig config_;
  std::int64_t pinFeatureDim_;
  std::vector<const features::DesignData*> sources_;
  std::vector<const features::DesignData*> targets_;
};

/// Per-design evaluation result (one cell group of Table 2).
struct DesignEval {
  std::string design;
  double r2 = 0.0;
  double runtimeSeconds = 0.0;
  std::vector<float> predictions;  // ps, endpoint order
};

/// Evaluate a trained model on every design of `testData`: R^2 of
/// predicted vs sign-off arrival, plus wall-clock inference runtime.
std::vector<DesignEval> evaluateModel(TimingModel& model,
                                      const TimingDataset& testData);

}  // namespace dagt::core
