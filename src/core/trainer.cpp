#include "core/trainer.hpp"

#include <algorithm>
#include <chrono>

#include "common/check.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "core/batch_prefetcher.hpp"
#include "nn/optimizer.hpp"
#include "obs/trace.hpp"
#include "tensor/storage.hpp"

namespace dagt::core {

using features::DesignData;
using tensor::Tensor;

std::string strategyName(Strategy strategy) {
  switch (strategy) {
    case Strategy::kAdvOnly: return "DAC23-AdvOnly";
    case Strategy::kSimpleMerge: return "DAC23-SimpleMerge";
    case Strategy::kParamShare: return "DAC23-ParamShare";
    case Strategy::kPretrainFinetune: return "DAC23-PT-FT";
    case Strategy::kOurs: return "Ours";
    case Strategy::kOursDaOnly: return "Ours-DA-only";
    case Strategy::kOursBayesOnly: return "Ours-Bayes-only";
  }
  DAGT_CHECK_MSG(false, "unknown strategy");
}

namespace {

double secondsSince(
    const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// One shard's share of a training step, fully materialized by the batch
/// producer: the producer owns every RNG draw (schedule shuffles, target
/// picks, path sampling, the forward seed), so step content is independent
/// of how — or on which thread — the shard is later executed.
struct ShardWork {
  DesignBatch batchS;
  DesignBatch batchT;  // transfer (Ours) steps only
  /// Seeds the Monte-Carlo forward stream for this shard (Ours only).
  std::uint64_t forwardSeed = 0;
};

struct PreparedStep {
  std::vector<ShardWork> shards;
};

/// Point every state tensor of `replica` at the master's weight storage.
/// Afterwards the replica shares weights (reads see every optimizer step)
/// but keeps private gradient buffers — the data-parallel shard contract.
template <typename ModelT>
void aliasStateToMaster(ModelT& replica, ModelT& master) {
  auto dst = replica.stateTensors();
  const auto src = master.stateTensors();
  DAGT_CHECK_MSG(dst.size() == src.size(),
                 "replica/master state tensor count mismatch");
  for (std::size_t i = 0; i < dst.size(); ++i) {
    dst[i].aliasDataFrom(src[i]);
  }
}

}  // namespace

Trainer::Trainer(const TimingDataset& trainData, TrainConfig config)
    : data_(&trainData), config_(config) {
  DAGT_CHECK(!trainData.designs().empty());
  pinFeatureDim_ = trainData.designs().front()->pinFeatures.dim();
  for (const auto* d : trainData.designs()) {
    DAGT_CHECK_MSG(d->pinFeatures.dim() == pinFeatureDim_,
                   "inconsistent pin feature dims across designs");
    if (d->role == designgen::DesignRole::kTrainSource) {
      sources_.push_back(d);
    } else if (d->role == designgen::DesignRole::kTrainTarget) {
      targets_.push_back(d);
    }
  }
  DAGT_CHECK_MSG(!targets_.empty(),
                 "training data lacks a target-node design");
}

std::unique_ptr<TimingModel> Trainer::train(Strategy strategy,
                                            TrainStats* stats) const {
  switch (strategy) {
    case Strategy::kAdvOnly:
    case Strategy::kSimpleMerge:
    case Strategy::kParamShare:
    case Strategy::kPretrainFinetune:
      return trainBaseline(strategy, stats);
    case Strategy::kOurs:
    case Strategy::kOursDaOnly:
    case Strategy::kOursBayesOnly:
      return trainOurs(strategy, stats);
  }
  DAGT_CHECK_MSG(false, "unknown strategy");
}

std::unique_ptr<TimingModel> Trainer::trainBaseline(Strategy strategy,
                                                    TrainStats* stats) const {
  const auto start = std::chrono::steady_clock::now();
  Rng rng(config_.seed);
  const bool perNodeReadout = strategy == Strategy::kParamShare;
  auto model = std::make_unique<Dac23Model>(pinFeatureDim_, config_.model,
                                            perNodeReadout, rng);

  nn::Adam::Options adamOpts;
  adamOpts.learningRate = config_.learningRate;
  nn::Adam adam(model->parameters(), adamOpts);

  const std::size_t shardCount =
      static_cast<std::size_t>(std::max<std::int32_t>(1, config_.gradShards));
  std::vector<std::unique_ptr<Dac23Model>> replicas;
  std::vector<std::vector<Tensor>> shardParams;
  if (shardCount > 1) {
    for (std::size_t s = 0; s < shardCount; ++s) {
      Rng initRng(0);  // replica weights are replaced by aliases below
      auto replica = std::make_unique<Dac23Model>(pinFeatureDim_,
                                                  config_.model,
                                                  perNodeReadout, initRng);
      aliasStateToMaster(*replica, *model);
      shardParams.push_back(replica->parameters());
      replicas.push_back(std::move(replica));
    }
  }

  // Phase plan: list of (designs, epochs, learning rate).
  struct Phase {
    std::vector<const DesignData*> designs;
    std::int32_t epochs;
    float lr;
  };
  std::vector<Phase> phases;
  std::vector<const DesignData*> all = sources_;
  all.insert(all.end(), targets_.begin(), targets_.end());
  switch (strategy) {
    case Strategy::kAdvOnly:
      // One step per epoch (a single training design). Deliberately NOT
      // scaled up to the transfer baselines' step count: with the scarce
      // target budget, extra passes only overfit the handful of visible
      // endpoints and make the baseline *look* stronger on pooled metrics
      // while its per-design generalization degrades.
      phases.push_back({targets_, config_.epochs, config_.learningRate});
      break;
    case Strategy::kSimpleMerge:
    case Strategy::kParamShare:
      DAGT_CHECK_MSG(!sources_.empty(),
                     strategyName(strategy) << " needs source designs");
      phases.push_back({all, config_.epochs, config_.learningRate});
      break;
    case Strategy::kPretrainFinetune:
      DAGT_CHECK_MSG(!sources_.empty(), "PT-FT needs source designs");
      phases.push_back({sources_, config_.epochs, config_.learningRate});
      phases.push_back(
          {targets_, config_.finetuneEpochs, config_.finetuneLearningRate});
      break;
    default:
      DAGT_CHECK_MSG(false, "not a baseline strategy");
  }

  // One shard's loss; with S shards each contributes 1/S so the reduced
  // gradient matches the single-stream scale (clip threshold included).
  const auto shardLoss = [&](const Dac23Model& m, const ShardWork& work) {
    const Tensor pred = m.forwardBatch(work.batchS);
    Tensor loss = mse(pred, work.batchS.labels);
    if (shardCount > 1) {
      loss = tensor::mulScalar(loss,
                               1.0f / static_cast<float>(shardCount));
    }
    return loss;
  };

  for (const Phase& phase : phases) {
    adam.setLearningRate(phase.lr);
    const std::size_t stepsPerEpoch = phase.designs.size();
    // The producer owns the schedule RNG stream: epoch shuffles and every
    // sampleBatch draw happen here, in strict step order. With S == 1 this
    // reproduces the classic loop's stream exactly.
    auto produce = [this, &rng, &phase, shardCount,
                    epochsLeft = phase.epochs, stepIdx = std::size_t{0},
                    order = std::vector<const DesignData*>{}](
                       PreparedStep& out) mutable -> bool {
      if (stepIdx >= order.size()) {
        if (epochsLeft <= 0) return false;
        --epochsLeft;
        order = phase.designs;
        rng.shuffle(order);
        stepIdx = 0;
        if (order.empty()) return false;
      }
      const DesignData* design = order[stepIdx++];
      out.shards.clear();
      out.shards.resize(shardCount);
      for (ShardWork& work : out.shards) {
        DAGT_TRACE_SCOPE("train/sample_batch");
        work.batchS = data_->sampleBatch(*design, config_.endpointCap, rng);
      }
      return true;
    };
    BatchPrefetcher<PreparedStep> prefetcher(std::move(produce),
                                             config_.prefetch);
    for (std::int32_t epoch = 0; epoch < phase.epochs; ++epoch) {
      double epochLoss = 0.0;
      for (std::size_t step = 0; step < stepsPerEpoch; ++step) {
        PreparedStep prep;
        DAGT_CHECK_MSG(prefetcher.next(prep),
                       "batch producer ended before the schedule");
        // Per-step workspace: every intermediate freed during this step is
        // recycled locally, and the cache returns to the global pool at
        // step end — across epochs the optimizer loop stops touching the
        // heap for tensor buffers.
        tensor::Workspace workspace;
        DAGT_TRACE_SCOPE("train/step");
        adam.zeroGrad();
        double stepLoss = 0.0;
        if (shardCount == 1) {
          Tensor loss = shardLoss(*model, prep.shards[0]);
          {
            DAGT_TRACE_SCOPE("train/backward");
            loss.backward();
          }
          stepLoss = loss.item();
        } else {
          std::vector<float> shardLosses(shardCount, 0.0f);
          for (auto& replica : replicas) replica->zeroGrad();
          {
            DAGT_TRACE_SCOPE("train/backward");
            parallelFor(
                0, shardCount,
                [&](std::size_t s) {
                  tensor::Workspace shardWorkspace;
                  Tensor loss = shardLoss(*replicas[s], prep.shards[s]);
                  loss.backward();
                  shardLosses[s] = loss.item();
                },
                /*grainSize=*/1);
          }
          {
            DAGT_TRACE_SCOPE("train/reduce");
            adam.reduceShardGrads(shardParams);
          }
          for (const float l : shardLosses) stepLoss += l;
        }
        {
          DAGT_TRACE_SCOPE("train/optimizer");
          adam.clipGradNorm(config_.gradClip);
          adam.step();
        }
        epochLoss += stepLoss;
      }
      if (stats) {
        stats->epochLoss.push_back(static_cast<float>(
            epochLoss / static_cast<double>(stepsPerEpoch)));
      }
      if (config_.verbose) {
        DAGT_INFO << strategyName(strategy) << " epoch " << epoch << " loss "
                  << epochLoss / static_cast<double>(stepsPerEpoch);
      }
    }
  }
  if (stats) stats->trainSeconds = secondsSince(start);
  return model;
}

std::unique_ptr<TimingModel> Trainer::trainOurs(Strategy strategy,
                                                TrainStats* stats) const {
  DAGT_CHECK_MSG(!sources_.empty(),
                 strategyName(strategy) << " needs source designs");
  const auto start = std::chrono::steady_clock::now();
  Rng rng(config_.seed);
  OursVariant variant = OursVariant::kFull;
  if (strategy == Strategy::kOursDaOnly) variant = OursVariant::kDaOnly;
  if (strategy == Strategy::kOursBayesOnly) {
    variant = OursVariant::kBayesOnly;
  }
  auto model = std::make_unique<OursModel>(pinFeatureDim_, config_.model,
                                           variant, rng);

  nn::Adam::Options adamOpts;
  adamOpts.learningRate = config_.learningRate;
  nn::Adam adam(model->parameters(), adamOpts);

  const std::size_t shardCount =
      static_cast<std::size_t>(std::max<std::int32_t>(1, config_.gradShards));
  std::vector<std::unique_ptr<OursModel>> replicas;
  std::vector<std::vector<Tensor>> shardParams;
  if (shardCount > 1) {
    for (std::size_t s = 0; s < shardCount; ++s) {
      Rng initRng(0);  // replica weights are replaced by aliases below
      auto replica = std::make_unique<OursModel>(pinFeatureDim_,
                                                 config_.model, variant,
                                                 initRng);
      aliasStateToMaster(*replica, *model);
      shardParams.push_back(replica->parameters());
      replicas.push_back(std::move(replica));
    }
  }

  // Full transfer loss for one shard (Eqs. 10-11 plus the alignment
  // terms), scaled by 1/S so the reduced gradient keeps the single-stream
  // scale. The Monte-Carlo forward draws come from the shard's own seeded
  // stream, so the value is independent of shard execution order.
  const auto shardLoss = [&](const OursModel& m, const ShardWork& work) {
    Rng forwardRng(work.forwardSeed);
    const auto fS = m.forward(work.batchS, config_.mcSamples, forwardRng);
    const auto fT = m.forward(work.batchT, config_.mcSamples, forwardRng);

    // Likelihood term of the ELBO (Eq. 11): Monte-Carlo average of the
    // per-sample regression loss, for both nodes' batches.
    Tensor loss;
    const auto likelihood = [&](const OursModel::BatchForward& f,
                                const DesignBatch& batch) {
      if (f.samples.empty()) {
        return mse(f.prediction, batch.labels);  // deterministic variant
      }
      Tensor acc;
      for (const Tensor& sample : f.samples) {
        const Tensor term = mse(sample, batch.labels);
        acc = acc.defined() ? tensor::add(acc, term) : term;
      }
      return tensor::mulScalar(
          acc, 1.0f / static_cast<float>(f.samples.size()));
    };
    {
      DAGT_TRACE_SCOPE("train/loss_likelihood");
      loss = tensor::add(likelihood(fS, work.batchS),
                         likelihood(fT, work.batchT));
    }

    if (m.usesBayesianHead()) {
      DAGT_TRACE_SCOPE("train/loss_kl");
      // KL(q(W|G') || p(W|N)) with the amortized prior (Eq. 10): pooled
      // design-dependent mean across both nodes, per-node u^n mean.
      // The cross-node pooling of u^d is justified by the paper only
      // because "the design-based discrepancy loss has already brought
      // them to the same distribution" — so the Bayes-only ablation
      // (no CMD loss) must fall back to same-node pooling.
      const bool pooled = m.usesAlignmentLosses();
      const Tensor udAll = pooled ? tensor::concat0({fS.ud, fT.ud})
                                  : Tensor();
      const auto priorS = m.prior(fS.un, pooled ? udAll : fS.ud);
      const auto priorT = m.prior(fT.un, pooled ? udAll : fT.ud);
      const auto klOf = [&](const OursModel::BatchForward& f,
                            const BayesianHead::WeightDistribution& p) {
        const std::int64_t b = f.un.dim(0);
        return gaussianKl(f.q.mu, f.q.logvar,
                          tensor::repeatRows(p.mu, b),
                          tensor::repeatRows(p.logvar, b));
      };
      loss = tensor::add(
          loss, tensor::mulScalar(
                    tensor::add(klOf(fS, priorS), klOf(fT, priorT)),
                    config_.klWeight));
    }

    if (m.usesAlignmentLosses()) {
      const Tensor clr = [&] {
        DAGT_TRACE_SCOPE("train/loss_contrastive");
        return nodeContrastiveLoss(fS.un, fT.un, config_.tau);
      }();
      const Tensor cmd = [&] {
        DAGT_TRACE_SCOPE("train/loss_cmd");
        return centralMomentDiscrepancy(fS.ud, fT.ud, config_.cmdMaxOrder);
      }();
      loss = tensor::add(loss, tensor::mulScalar(clr, config_.gamma1));
      loss = tensor::add(loss, tensor::mulScalar(cmd, config_.gamma2));
    }
    if (shardCount > 1) {
      loss = tensor::mulScalar(loss,
                               1.0f / static_cast<float>(shardCount));
    }
    return loss;
  };

  const std::size_t stepsPerEpoch = sources_.size();
  // Producer: owns the schedule stream — epoch shuffle, then per shard the
  // target pick, both sampleBatch draws (the paper samples N'_S and N'_T
  // per batch) and a fresh forward seed for the MC stream.
  auto produce = [this, &rng, shardCount, epochsLeft = config_.epochs,
                  stepIdx = std::size_t{0},
                  order = std::vector<const DesignData*>{}](
                     PreparedStep& out) mutable -> bool {
    if (stepIdx >= order.size()) {
      if (epochsLeft <= 0) return false;
      --epochsLeft;
      order = sources_;
      rng.shuffle(order);
      stepIdx = 0;
      if (order.empty()) return false;
    }
    const DesignData* source = order[stepIdx++];
    out.shards.clear();
    out.shards.resize(shardCount);
    for (ShardWork& work : out.shards) {
      const DesignData* target = targets_[rng.uniformInt(targets_.size())];
      {
        DAGT_TRACE_SCOPE("train/sample_batch");
        work.batchS = data_->sampleBatch(*source, config_.endpointCap, rng);
        work.batchT = data_->sampleBatch(*target, config_.endpointCap, rng);
      }
      work.forwardSeed = rng.next();
    }
    return true;
  };
  BatchPrefetcher<PreparedStep> prefetcher(std::move(produce),
                                           config_.prefetch);

  for (std::int32_t epoch = 0; epoch < config_.epochs; ++epoch) {
    double epochLoss = 0.0;
    for (std::size_t step = 0; step < stepsPerEpoch; ++step) {
      PreparedStep prep;
      DAGT_CHECK_MSG(prefetcher.next(prep),
                     "batch producer ended before the schedule");
      // Per-step buffer recycling scope (see trainBaseline).
      tensor::Workspace workspace;
      DAGT_TRACE_SCOPE("train/step");
      adam.zeroGrad();
      double stepLoss = 0.0;
      if (shardCount == 1) {
        Tensor loss = shardLoss(*model, prep.shards[0]);
        {
          DAGT_TRACE_SCOPE("train/backward");
          loss.backward();
        }
        stepLoss = loss.item();
      } else {
        std::vector<float> shardLosses(shardCount, 0.0f);
        for (auto& replica : replicas) replica->zeroGrad();
        {
          DAGT_TRACE_SCOPE("train/backward");
          parallelFor(
              0, shardCount,
              [&](std::size_t s) {
                tensor::Workspace shardWorkspace;
                Tensor loss = shardLoss(*replicas[s], prep.shards[s]);
                loss.backward();
                shardLosses[s] = loss.item();
              },
              /*grainSize=*/1);
        }
        {
          DAGT_TRACE_SCOPE("train/reduce");
          adam.reduceShardGrads(shardParams);
        }
        for (const float l : shardLosses) stepLoss += l;
      }
      {
        DAGT_TRACE_SCOPE("train/optimizer");
        adam.clipGradNorm(config_.gradClip);
        adam.step();
      }
      epochLoss += stepLoss;
    }
    if (stats) {
      stats->epochLoss.push_back(static_cast<float>(
          epochLoss / static_cast<double>(stepsPerEpoch)));
    }
    if (config_.verbose) {
      DAGT_INFO << strategyName(strategy) << " epoch " << epoch << " loss "
                << epochLoss / static_cast<double>(stepsPerEpoch);
    }
  }
  if (stats) stats->trainSeconds = secondsSince(start);
  return model;
}

std::vector<DesignEval> evaluateModel(TimingModel& model,
                                      const TimingDataset& testData) {
  std::vector<DesignEval> results;
  for (const DesignData* design : testData.designs()) {
    DesignEval eval;
    eval.design = design->name;
    // Prewarm the dataset's masked-image cache so the timed region covers
    // model inference only (the paper's runtime column), not the one-time
    // feature materialization.
    (void)testData.fullBatch(*design);
    const auto start = std::chrono::steady_clock::now();
    eval.predictions = model.predictDesign(testData, *design);
    eval.runtimeSeconds = secondsSince(start);
    eval.r2 = r2Score(eval.predictions, design->labels);
    results.push_back(std::move(eval));
  }
  return results;
}

}  // namespace dagt::core
