#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "core/bayesian_head.hpp"
#include "core/dataset.hpp"
#include "core/disentangler.hpp"
#include "core/losses.hpp"
#include "core/models.hpp"
#include "core/timing_gnn.hpp"
#include "core/trainer.hpp"
#include "features/design_data.hpp"
#include "tensor/expr.hpp"
#include "tensor/kernels/kernels.hpp"

namespace dagt::core {
namespace {

using tensor::Tensor;

const features::DataPipeline& pipeline() {
  static features::DataPipeline* p = [] {
    features::DataConfig config;
    config.designScale = 0.2f;
    return new features::DataPipeline(config);
  }();
  return *p;
}

const features::DesignData& target7() {
  static features::DesignData d = pipeline().build("smallboom");
  return d;
}

const features::DesignData& source130() {
  static features::DesignData d = pipeline().build("usbf_device");
  return d;
}

// ---------------------------------------------------------------------------
// Losses
// ---------------------------------------------------------------------------

TEST(Losses, R2PerfectAndMeanPredictor) {
  const std::vector<float> truth = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(r2Score(truth, truth), 1.0);
  const std::vector<float> meanPred(5, 3.0f);
  EXPECT_NEAR(r2Score(meanPred, truth), 0.0, 1e-9);
  const std::vector<float> bad = {5, 4, 3, 2, 1};
  EXPECT_LT(r2Score(bad, truth), 0.0);
}

TEST(Losses, MseMatchesHandComputation) {
  const Tensor pred = Tensor::fromVector({3}, {1.0f, 2.0f, 3.0f});
  const Tensor truth = Tensor::fromVector({3}, {2.0f, 2.0f, 5.0f});
  EXPECT_NEAR(mse(pred, truth).item(), (1.0f + 0.0f + 4.0f) / 3.0f, 1e-6f);
}

TEST(Losses, L2NormalizeRowsUnitNorm) {
  Rng rng(1);
  const Tensor x = Tensor::randn({5, 7}, rng, 4.0f);
  const Tensor n = l2NormalizeRows(x);
  for (std::int64_t r = 0; r < 5; ++r) {
    double norm = 0.0;
    for (std::int64_t c = 0; c < 7; ++c) norm += n.at(r, c) * n.at(r, c);
    EXPECT_NEAR(norm, 1.0, 1e-4);
  }
}

TEST(Losses, ContrastiveLossPrefersClusteredNodes) {
  Rng rng(2);
  // Well-separated clusters per node vs completely mixed features.
  Tensor clusteredS = tensor::addScalar(Tensor::randn({8, 4}, rng, 0.05f), 1.0f);
  Tensor clusteredT = tensor::addScalar(Tensor::randn({8, 4}, rng, 0.05f), -1.0f);
  Tensor mixedS = Tensor::randn({8, 4}, rng);
  Tensor mixedT = Tensor::randn({8, 4}, rng);
  const float good = nodeContrastiveLoss(clusteredS, clusteredT).item();
  const float bad = nodeContrastiveLoss(mixedS, mixedT).item();
  EXPECT_LT(good, bad);
}

TEST(Losses, ContrastiveLossNeedsTwoPerNode) {
  Rng rng(3);
  Tensor one = Tensor::randn({1, 4}, rng);
  Tensor many = Tensor::randn({4, 4}, rng);
  EXPECT_THROW(nodeContrastiveLoss(one, many), CheckError);
}

TEST(Losses, ContrastiveGradientFlows) {
  Rng rng(4);
  Tensor a = Tensor::randn({4, 6}, rng, 1.0f, true);
  Tensor b = Tensor::randn({4, 6}, rng, 1.0f, true);
  Tensor loss = nodeContrastiveLoss(a, b);
  loss.backward();
  EXPECT_TRUE(a.grad().defined());
  EXPECT_TRUE(b.grad().defined());
}

TEST(Losses, CmdZeroForIdenticalDistributionsAndPositiveForShifted) {
  Rng rng(5);
  Tensor x = Tensor::randu({64, 4}, rng, -0.8f, 0.8f);
  EXPECT_NEAR(centralMomentDiscrepancy(x, x).item(), 0.0f, 1e-6f);
  Tensor shifted = tensor::addScalar(tensor::mulScalar(x, 0.3f), 0.4f);
  EXPECT_GT(centralMomentDiscrepancy(x, shifted).item(), 0.05f);
}

TEST(Losses, CmdDetectsVarianceGapWithEqualMeans) {
  Rng rng(6);
  // Same (zero) mean, different spread: only the k>=2 moment terms see it.
  Tensor narrow = Tensor::randu({256, 3}, rng, -0.2f, 0.2f);
  Tensor wide = Tensor::randu({256, 3}, rng, -0.9f, 0.9f);
  EXPECT_GT(centralMomentDiscrepancy(narrow, wide).item(), 0.02f);
}

TEST(Losses, GaussianKlZeroForIdenticalAndPositiveOtherwise) {
  Rng rng(7);
  Tensor mu = Tensor::randn({4, 6}, rng);
  Tensor logvar = Tensor::randn({4, 6}, rng, 0.3f);
  EXPECT_NEAR(gaussianKl(mu, logvar, mu, logvar).item(), 0.0f, 1e-5f);
  Tensor mu2 = tensor::addScalar(mu, 1.0f);
  EXPECT_GT(gaussianKl(mu, logvar, mu2, logvar).item(), 0.1f);
}

TEST(Losses, GaussianKlMatchesClosedFormScalarCase) {
  // KL(N(m1,v1) || N(m2,v2)) = log(s2/s1) + (v1+(m1-m2)^2)/(2 v2) - 1/2.
  const float m1 = 0.3f, lv1 = -0.5f, m2 = -0.2f, lv2 = 0.4f;
  const Tensor muQ = Tensor::fromVector({1, 1}, {m1});
  const Tensor lvQ = Tensor::fromVector({1, 1}, {lv1});
  const Tensor muP = Tensor::fromVector({1, 1}, {m2});
  const Tensor lvP = Tensor::fromVector({1, 1}, {lv2});
  const float v1 = std::exp(lv1), v2 = std::exp(lv2);
  const float expected =
      0.5f * (lv2 - lv1) + (v1 + (m1 - m2) * (m1 - m2)) / (2.0f * v2) - 0.5f;
  EXPECT_NEAR(gaussianKl(muQ, lvQ, muP, lvP).item(), expected, 1e-5f);
}

// ---------------------------------------------------------------------------
// GNN / CNN / extractor
// ---------------------------------------------------------------------------

TEST(TimingGnn, EmbeddingsBoundedOnDeepDesign) {
  Rng rng(8);
  const auto& d = target7();
  TimingGnn gnn(d.pinFeatures.dim(), 32, rng);
  const auto out = gnn.forward(*d.graph, d.pinFeatures);
  ASSERT_EQ(static_cast<std::int32_t>(out.levelEmbeddings.size()),
            d.graph->numLevels());
  for (const auto& level : out.levelEmbeddings) {
    for (std::int64_t i = 0; i < level.numel(); ++i) {
      ASSERT_TRUE(std::isfinite(level.data()[i]));
      ASSERT_LT(std::abs(level.data()[i]), 50.0f);  // LayerNorm keeps it tame
    }
  }
}

TEST(TimingGnn, SelectReturnsEndpointRows) {
  Rng rng(9);
  const auto& d = target7();
  TimingGnn gnn(d.pinFeatures.dim(), 16, rng);
  const auto out = gnn.forward(*d.graph, d.pinFeatures);
  const auto endpoints = d.netlist.endpoints();
  const Tensor sel = TimingGnn::select(out, endpoints);
  EXPECT_EQ(sel.dim(0), static_cast<std::int64_t>(endpoints.size()));
  EXPECT_EQ(sel.dim(1), 16);
  // Spot-check one row against its level tensor.
  const auto [lv, row] = d.graph->locate(endpoints.front());
  for (std::int64_t c = 0; c < 16; ++c) {
    EXPECT_EQ(sel.at(0, c),
              out.levelEmbeddings[static_cast<std::size_t>(lv)].at(row, c));
  }
}

TEST(Dataset, BatchShapesAndLabelScale) {
  const auto& d = target7();
  TimingDataset ds({&d});
  Rng rng(10);
  const DesignBatch full = ds.fullBatch(d);
  EXPECT_EQ(full.labels.dim(0), d.numEndpoints());
  EXPECT_EQ(full.images.shape(),
            (tensor::Shape{d.numEndpoints(), 3, d.maps->resolution(),
                           d.maps->resolution()}));
  for (std::int64_t i = 0; i < full.labels.numel(); ++i) {
    EXPECT_NEAR(full.labels.data()[i],
                d.labels[static_cast<std::size_t>(i)] * kLabelScale, 1e-5f);
  }
  const DesignBatch sampled = ds.sampleBatch(d, 8, rng);
  EXPECT_EQ(sampled.labels.dim(0), 8);
}

TEST(Dataset, RestrictEndpointsLimitsSamplingOnly) {
  const auto& d = target7();
  TimingDataset ds({&d});
  ASSERT_GT(d.numEndpoints(), 8);
  ds.restrictEndpoints(d, 8, /*seed=*/7);
  EXPECT_EQ(ds.availableEndpoints(d), 8);

  // All sampled endpoints come from the same fixed pool.
  Rng rng(1);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 10; ++i) {
    const DesignBatch batch = ds.sampleBatch(d, 6, rng);
    EXPECT_LE(batch.endpointIdx.size(), 6u);
    seen.insert(batch.endpointIdx.begin(), batch.endpointIdx.end());
  }
  EXPECT_LE(seen.size(), 8u);

  // Evaluation still sees every endpoint.
  EXPECT_EQ(ds.fullBatch(d).labels.dim(0), d.numEndpoints());

  // The pool is deterministic in the seed.
  TimingDataset ds2({&d});
  ds2.restrictEndpoints(d, 8, /*seed=*/7);
  Rng rngA(3), rngB(3);
  EXPECT_EQ(ds.sampleBatch(d, 8, rngA).endpointIdx,
            ds2.sampleBatch(d, 8, rngB).endpointIdx);
}

TEST(Dataset, RestrictLargerThanDesignIsNoOp) {
  const auto& d = target7();
  TimingDataset ds({&d});
  ds.restrictEndpoints(d, d.numEndpoints() + 100, 1);
  EXPECT_EQ(ds.availableEndpoints(d), d.numEndpoints());
}

TEST(Dataset, SampleWithoutReplacement) {
  const auto& d = target7();
  TimingDataset ds({&d});
  Rng rng(11);
  const DesignBatch batch = ds.sampleBatch(d, 16, rng);
  std::set<std::int64_t> unique(batch.endpointIdx.begin(),
                                batch.endpointIdx.end());
  EXPECT_EQ(unique.size(), batch.endpointIdx.size());
}

// ---------------------------------------------------------------------------
// Models
// ---------------------------------------------------------------------------

TEST(Disentangler, SplitsIntoBoundedHalves) {
  Rng rng(12);
  Disentangler dis(32, 16, rng);
  const Tensor u = Tensor::randn({10, 32}, rng, 2.0f);
  const auto split = dis.forward(u);
  EXPECT_EQ(split.nodeDependent.shape(), (tensor::Shape{10, 16}));
  EXPECT_EQ(split.designDependent.shape(), (tensor::Shape{10, 16}));
  for (std::int64_t i = 0; i < split.designDependent.numel(); ++i) {
    // tanh bound; float32 may saturate to exactly +/-1.
    EXPECT_GE(split.designDependent.data()[i], -1.0f);
    EXPECT_LE(split.designDependent.data()[i], 1.0f);
  }
}

TEST(BayesianHead, MoreSamplesReduceMeanVariance) {
  Rng rng(13);
  BayesianHead head(16, 16, rng);
  const Tensor u = Tensor::randn({6, 16}, rng);
  const auto q = head.distribution(u);
  Rng a(100), b(100);
  const auto p1 = head.predict(u, q, 1, a);
  const auto p64 = head.predict(u, q, 64, b);
  const auto meanOf = [](const Tensor& t) {
    double s = 0.0;
    for (std::int64_t i = 0; i < t.numel(); ++i) s += t.data()[i];
    return s / static_cast<double>(t.numel());
  };
  // Sanity: K samples are all returned, mean is their average.
  ASSERT_EQ(p64.samples.size(), 64u);
  double acc = 0.0;
  for (const auto& s : p64.samples) acc += meanOf(s);
  EXPECT_NEAR(acc / 64.0, meanOf(p64.mean), 1e-4);
  ASSERT_EQ(p1.samples.size(), 1u);
}

TEST(BayesianHead, LogVarianceStaysBounded) {
  Rng rng(14);
  BayesianHead head(8, 8, rng);
  const Tensor u = Tensor::randn({4, 8}, rng, 30.0f);  // extreme inputs
  const auto q = head.distribution(u);
  for (std::int64_t i = 0; i < q.logvar.numel(); ++i) {
    EXPECT_GE(q.logvar.data()[i], -5.0f);
    EXPECT_LE(q.logvar.data()[i], 1.0f);
  }
}

TEST(BayesianHead, PreDrawnEpsMatchesRngOverloadBitwise) {
  Rng rng(15);
  BayesianHead head(12, 12, rng);
  const Tensor u = Tensor::randn({5, 12}, rng);
  const auto q = head.distribution(u);
  constexpr std::int32_t kSamples = 7;

  // The rng overload draws all K eps tensors upfront, so replaying the
  // same seed by hand must reproduce the prediction bit for bit.
  Rng viaOverload(2024);
  const auto fromRng = head.predict(u, q, kSamples, viaOverload);

  Rng byHand(2024);
  std::vector<Tensor> eps;
  for (std::int32_t k = 0; k < kSamples; ++k) {
    eps.push_back(Tensor::randn(u.shape(), byHand));
  }
  const auto fromEps = head.predict(u, q, eps);

  ASSERT_EQ(fromRng.samples.size(), fromEps.samples.size());
  const auto bitwise = [](const Tensor& a, const Tensor& b) {
    ASSERT_EQ(a.shape(), b.shape());
    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                          static_cast<std::size_t>(a.numel()) * sizeof(float)),
              0);
  };
  bitwise(fromRng.mean, fromEps.mean);
  for (std::size_t k = 0; k < fromRng.samples.size(); ++k) {
    bitwise(fromRng.samples[k], fromEps.samples[k]);
  }
}

TEST(BayesianHead, FusedForwardBitwiseMatchesEagerAtScalarTier) {
  // Module-level half of the fusion parity contract: the whole
  // distribution -> predict readout, compiled vs eager, at the pinned
  // scalar tier — and across two batch shapes through the same program
  // caches (the shape signature must keep them apart).
  Rng rng(16);
  BayesianHead head(10, 10, rng);
  tensor::kernels::forceTier(tensor::kernels::Tier::kScalar);
  const bool savedFusion = tensor::expr::fusionEnabled();
  for (const std::int64_t batch : {3, 6, 3}) {
    const Tensor u = Tensor::randn({batch, 10}, rng);
    std::vector<Tensor> eps;
    Rng noise(777 + batch);
    for (int k = 0; k < 4; ++k) eps.push_back(Tensor::randn(u.shape(), noise));

    tensor::NoGradGuard noGrad;
    tensor::expr::setFusionEnabled(true);
    const auto qFused = head.distribution(u);
    const auto fused = head.predict(u, qFused, eps);
    tensor::expr::setFusionEnabled(false);
    const auto qEager = head.distribution(u);
    const auto eager = head.predict(u, qEager, eps);

    const auto bitwise = [](const Tensor& a, const Tensor& b) {
      ASSERT_EQ(a.shape(), b.shape());
      EXPECT_EQ(
          std::memcmp(a.data(), b.data(),
                      static_cast<std::size_t>(a.numel()) * sizeof(float)),
          0);
    };
    bitwise(qEager.mu, qFused.mu);
    bitwise(qEager.logvar, qFused.logvar);
    bitwise(eager.mean, fused.mean);
    ASSERT_EQ(eager.samples.size(), fused.samples.size());
    for (std::size_t k = 0; k < eager.samples.size(); ++k) {
      bitwise(eager.samples[k], fused.samples[k]);
    }
  }
  tensor::expr::setFusionEnabled(savedFusion);
  tensor::kernels::resetTier();
}

TEST(Models, PredictDesignIsDeterministic) {
  Rng rng(15);
  const auto& d = target7();
  TimingDataset ds({&d});
  ModelConfig mc;
  mc.gnnHidden = 16;
  mc.cnnBaseChannels = 4;
  mc.cnnDim = 8;
  mc.headHidden = 16;
  OursModel model(pipeline().featureDim(), mc, OursVariant::kFull, rng);
  const auto p1 = model.predictDesign(ds, d);
  const auto p2 = model.predictDesign(ds, d);
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(static_cast<std::int64_t>(p1.size()), d.numEndpoints());
}

TEST(Models, UncertaintyIsPositiveAndDeterministic) {
  Rng rng(18);
  const auto& d = target7();
  TimingDataset ds({&d});
  ModelConfig mc;
  mc.gnnHidden = 16;
  mc.cnnBaseChannels = 4;
  mc.cnnDim = 8;
  mc.headHidden = 16;
  OursModel model(pipeline().featureDim(), mc, OursVariant::kFull, rng);
  const auto u1 = model.predictDesignWithUncertainty(ds, d, 16);
  const auto u2 = model.predictDesignWithUncertainty(ds, d, 16);
  ASSERT_EQ(u1.mean.size(), static_cast<std::size_t>(d.numEndpoints()));
  ASSERT_EQ(u1.stddev.size(), u1.mean.size());
  EXPECT_EQ(u1.mean, u2.mean);
  EXPECT_EQ(u1.stddev, u2.stddev);
  float total = 0.0f;
  for (const float s : u1.stddev) {
    EXPECT_GE(s, 0.0f);
    total += s;
  }
  EXPECT_GT(total, 0.0f);  // the Bayesian head has genuine spread
}

TEST(Models, DaOnlyVariantHasZeroUncertainty) {
  Rng rng(19);
  const auto& d = target7();
  TimingDataset ds({&d});
  ModelConfig mc;
  mc.gnnHidden = 16;
  mc.cnnBaseChannels = 4;
  mc.cnnDim = 8;
  mc.headHidden = 16;
  OursModel model(pipeline().featureDim(), mc, OursVariant::kDaOnly, rng);
  const auto u = model.predictDesignWithUncertainty(ds, d, 8);
  for (const float s : u.stddev) EXPECT_EQ(s, 0.0f);
}

TEST(Models, Dac23PerNodeReadoutDiffersByNode) {
  Rng rng(16);
  ModelConfig mc;
  mc.gnnHidden = 16;
  mc.cnnBaseChannels = 4;
  mc.cnnDim = 8;
  const auto& d7 = target7();
  const auto& d130 = source130();
  TimingDataset ds({&d7, &d130});
  Dac23Model shared(pipeline().featureDim(), mc, false, rng);
  Rng rng2(16);
  Dac23Model perNode(pipeline().featureDim(), mc, true, rng2);
  EXPECT_GT(perNode.parameterCount(), shared.parameterCount());
}

TEST(Models, VariantFlagsMatchPaperAblation) {
  Rng rng(17);
  ModelConfig mc;
  mc.gnnHidden = 16;
  mc.cnnBaseChannels = 4;
  mc.cnnDim = 8;
  const OursModel full(pipeline().featureDim(), mc, OursVariant::kFull, rng);
  EXPECT_TRUE(full.usesAlignmentLosses());
  EXPECT_TRUE(full.usesBayesianHead());
  Rng rng2(17);
  const OursModel da(pipeline().featureDim(), mc, OursVariant::kDaOnly, rng2);
  EXPECT_TRUE(da.usesAlignmentLosses());
  EXPECT_FALSE(da.usesBayesianHead());
  Rng rng3(17);
  const OursModel bayes(pipeline().featureDim(), mc,
                        OursVariant::kBayesOnly, rng3);
  EXPECT_FALSE(bayes.usesAlignmentLosses());
  EXPECT_TRUE(bayes.usesBayesianHead());
}

// ---------------------------------------------------------------------------
// Trainer (smoke scale)
// ---------------------------------------------------------------------------

TrainConfig tinyTrainConfig() {
  TrainConfig tc;
  tc.epochs = 3;
  tc.finetuneEpochs = 2;
  tc.endpointCap = 24;
  tc.model.gnnHidden = 16;
  tc.model.cnnBaseChannels = 4;
  tc.model.cnnDim = 8;
  tc.model.headHidden = 16;
  return tc;
}

TEST(Trainer, EveryStrategyTrainsAndPredicts) {
  const auto& d7 = target7();
  const auto& d130 = source130();
  TimingDataset trainSet({&d7, &d130});
  const Trainer trainer(trainSet, tinyTrainConfig());
  for (const Strategy s :
       {Strategy::kAdvOnly, Strategy::kSimpleMerge, Strategy::kParamShare,
        Strategy::kPretrainFinetune, Strategy::kOurs, Strategy::kOursDaOnly,
        Strategy::kOursBayesOnly}) {
    TrainStats stats;
    auto model = trainer.train(s, &stats);
    ASSERT_NE(model, nullptr) << strategyName(s);
    EXPECT_FALSE(stats.epochLoss.empty());
    for (const float loss : stats.epochLoss) {
      EXPECT_TRUE(std::isfinite(loss)) << strategyName(s);
    }
    const auto evals = evaluateModel(*model, trainSet);
    ASSERT_EQ(evals.size(), 2u);
    for (const auto& e : evals) {
      EXPECT_TRUE(std::isfinite(e.r2)) << strategyName(s);
      EXPECT_GT(e.runtimeSeconds, 0.0);
    }
  }
}

TEST(Trainer, LossDecreasesOverTraining) {
  const auto& d7 = target7();
  TimingDataset trainSet({&d7});
  TrainConfig tc = tinyTrainConfig();
  tc.epochs = 12;
  tc.learningRate = 5e-3f;
  const Trainer trainer(trainSet, tc);
  TrainStats stats;
  (void)trainer.train(Strategy::kAdvOnly, &stats);
  ASSERT_GE(stats.epochLoss.size(), 12u);
  EXPECT_LT(stats.epochLoss.back(), stats.epochLoss.front());
}

TEST(Trainer, TransferStrategiesRequireSources) {
  const auto& d7 = target7();
  TimingDataset targetOnly({&d7});
  const Trainer trainer(targetOnly, tinyTrainConfig());
  EXPECT_THROW(trainer.train(Strategy::kSimpleMerge), CheckError);
  EXPECT_THROW(trainer.train(Strategy::kOurs), CheckError);
  EXPECT_NO_THROW(trainer.train(Strategy::kAdvOnly));
}

/// Force a real parallelFor worker count for one scope.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(std::size_t n) : saved_(parallelThreadCount()) {
    parallelThreadCount() = n;
  }
  ~ThreadCountGuard() { parallelThreadCount() = saved_; }

 private:
  std::size_t saved_;
};

std::vector<float> trainLossCurve(const TimingDataset& trainSet,
                                  const TrainConfig& tc, Strategy strategy) {
  const Trainer trainer(trainSet, tc);
  TrainStats stats;
  (void)trainer.train(strategy, &stats);
  return stats.epochLoss;
}

TEST(Trainer, ShardedLossCurveIsThreadCountInvariant) {
  // The data-parallel contract: with a fixed gradShards, the loss curve is
  // bitwise identical no matter how many parallelFor workers execute the
  // shards (producer owns all RNG; gradients tree-reduce in a fixed order).
  const auto& d7 = target7();
  const auto& d130 = source130();
  TimingDataset trainSet({&d7, &d130});
  TrainConfig tc = tinyTrainConfig();
  tc.epochs = 2;
  tc.gradShards = 2;
  for (const Strategy strategy :
       {Strategy::kSimpleMerge, Strategy::kOurs}) {
    std::vector<float> curve1;
    {
      ThreadCountGuard threads(1);
      curve1 = trainLossCurve(trainSet, tc, strategy);
    }
    for (const std::size_t workers : {2ul, 8ul}) {
      ThreadCountGuard threads(workers);
      const std::vector<float> curveN = trainLossCurve(trainSet, tc, strategy);
      EXPECT_EQ(curve1, curveN)
          << strategyName(strategy) << " workers=" << workers;
    }
  }
}

TEST(Trainer, PrefetchDoesNotChangeResults) {
  // Async batch prefetching is a pure pipelining change — the producer
  // callback runs the identical RNG stream either way.
  const auto& d7 = target7();
  const auto& d130 = source130();
  TimingDataset trainSet({&d7, &d130});
  for (const std::int32_t shards : {1, 2}) {
    TrainConfig tc = tinyTrainConfig();
    tc.epochs = 2;
    tc.gradShards = shards;
    for (const Strategy strategy :
         {Strategy::kPretrainFinetune, Strategy::kOurs}) {
      tc.prefetch = true;
      const std::vector<float> async = trainLossCurve(trainSet, tc, strategy);
      tc.prefetch = false;
      const std::vector<float> sync = trainLossCurve(trainSet, tc, strategy);
      EXPECT_EQ(async, sync)
          << strategyName(strategy) << " gradShards=" << shards;
    }
  }
}

}  // namespace
}  // namespace dagt::core
