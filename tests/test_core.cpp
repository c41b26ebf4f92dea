#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "common/check.hpp"
#include "core/bayesian_head.hpp"
#include "core/dataset.hpp"
#include "core/disentangler.hpp"
#include "core/losses.hpp"
#include "core/path_cnn.hpp"
#include "core/models.hpp"
#include "core/timing_gnn.hpp"
#include "core/trainer.hpp"
#include "features/design_data.hpp"
#include "sta/netlist_edits.hpp"
#include "sta/sta_engine.hpp"
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

/// Pin the kernel tier for one scope; back to env/CPUID resolution after.
class TierGuard {
 public:
  explicit TierGuard(tensor::kernels::Tier tier) {
    tensor::kernels::forceTier(tier);
  }
  ~TierGuard() { tensor::kernels::resetTier(); }
};

void expectSameEmbeddings(const TimingGnn::Output& got,
                          const TimingGnn::Output& want, const char* what) {
  ASSERT_EQ(got.levelEmbeddings.size(), want.levelEmbeddings.size()) << what;
  for (std::size_t level = 0; level < want.levelEmbeddings.size(); ++level) {
    const Tensor& a = got.levelEmbeddings[level];
    const Tensor& b = want.levelEmbeddings[level];
    ASSERT_EQ(a.shape(), b.shape()) << what << " level " << level;
    ASSERT_EQ(std::memcmp(a.data(), b.data(),
                          static_cast<std::size_t>(a.numel()) * sizeof(float)),
              0)
        << what << " level " << level;
  }
}

TEST(TimingGnn, ForwardFromAcrossChangedGraphMatchesFullSweep) {
  // A buffer insertion grows the pin graph and rewires sinks; a revert
  // shrinks it back. A fill from the other graph's embeddings must equal a
  // full sweep bitwise at every tier, recomputing only part of the design.
  const auto& d = target7();
  const features::FeatureBuilder builder(&pipeline().vocabulary(),
                                         pipeline().config().features);
  const sta::RouteConfig preRouting{sta::WireModel::kPreRouting, 0.0f, 0.0f};
  const auto featuresOf = [&](const netlist::Netlist& nl) {
    const sta::TimingResult timing =
        sta::StaEngine::run(nl, nullptr, preRouting);
    return features::PinFeatures(builder.build(nl, &timing));
  };
  const features::PinGraph baseGraph(d.netlist);
  const features::PinFeatures baseFeatures = featuresOf(d.netlist);

  netlist::Netlist grown = d.netlist;
  Rng rng(0xb0f);
  int buffers = 0;
  for (int attempt = 0; attempt < 400 && buffers < 3; ++attempt) {
    const auto net = static_cast<netlist::NetId>(
        rng.uniformInt(static_cast<std::uint64_t>(grown.numNets())));
    buffers += sta::insertFanoutBuffer(grown, net).inserted ? 1 : 0;
  }
  ASSERT_EQ(buffers, 3);
  const features::PinGraph grownGraph(grown);
  const features::PinFeatures grownFeatures = featuresOf(grown);

  // Rewires that leave every feature row alone, so that only the
  // structural rules can seed the cone (the graphs share one feature
  // matrix): closing an input left open takes the only cell edge out of
  // level 1, whose carried rows then skip the cell projections and their
  // biases; moving a sink to another driver changes its in-edge source.
  const netlist::CellLibrary lib =
      netlist::CellLibrary::makeNode(netlist::TechNode::k7nm);
  netlist::Netlist open(&lib, "rewire");
  const netlist::PinId a = open.addPrimaryInput();
  const netlist::PinId b = open.addPrimaryInput();
  const netlist::CellId inv =
      open.addCell(lib.findCell(netlist::CellFunction::kInv, 1));
  const netlist::NetId fromA = open.addNet(a);
  const netlist::NetId fromB = open.addNet(b);
  const netlist::NetId fromInv = open.addNet(open.cell(inv).outputPin);
  const netlist::PinId sink = open.addPrimaryOutput();
  open.connectSink(fromA, open.addPrimaryOutput());
  open.connectSink(fromA, sink);
  open.connectSink(fromInv, open.addPrimaryOutput());
  netlist::Netlist closed = open;
  closed.connectSink(fromA, closed.cell(inv).inputPins[0]);
  netlist::Netlist moved = closed;
  moved.moveSink(sink, fromB);
  const features::PinGraph openGraph(open);
  const features::PinGraph closedGraph(closed);
  const features::PinGraph movedGraph(moved);
  Rng featureRng(12);
  const features::PinFeatures shared(
      Tensor::randn({open.numPins(), 8}, featureRng));

  tensor::NoGradGuard noGrad;
  for (const auto tier : {tensor::kernels::Tier::kScalar,
                          tensor::kernels::Tier::kAvx2,
                          tensor::kernels::Tier::kAvx2Fma}) {
    if (!tensor::kernels::tierSupported(tier)) continue;
    TierGuard guard(tier);
    Rng tinyInit(13);
    TimingGnn tiny(8, 16, tinyInit);
    // Biases start at zero, and a zero bias adds nothing.
    for (Tensor param : tiny.parameters()) {
      for (std::int64_t i = 0; i < param.numel(); ++i) {
        param.data()[i] += static_cast<float>(tinyInit.uniform(-0.5, 0.5));
      }
    }
    const auto openOut = tiny.forward(openGraph, shared);
    const auto closedOut = tiny.forward(closedGraph, shared);
    const auto movedOut = tiny.forward(movedGraph, shared);
    expectSameEmbeddings(
        tiny.forwardFrom(openOut, shared, closedGraph, shared), closedOut,
        "closed");
    expectSameEmbeddings(
        tiny.forwardFrom(closedOut, shared, openGraph, shared), openOut,
        "reopened");
    expectSameEmbeddings(
        tiny.forwardFrom(closedOut, shared, movedGraph, shared), movedOut,
        "moved");
    expectSameEmbeddings(
        tiny.forwardFrom(movedOut, shared, closedGraph, shared), closedOut,
        "moved back");

    Rng init(11);
    TimingGnn gnn(baseFeatures.dim(), 16, init);
    const auto baseOut = gnn.forward(baseGraph, baseFeatures);
    const auto grownOut = gnn.forward(grownGraph, grownFeatures);

    std::int64_t rows = 0;
    expectSameEmbeddings(gnn.forwardFrom(baseOut, baseFeatures, grownGraph,
                                         grownFeatures, &rows),
                         grownOut, "grown");
    EXPECT_GT(rows, 0);
    EXPECT_LT(rows, grownGraph.numPins());

    rows = 0;
    expectSameEmbeddings(gnn.forwardFrom(grownOut, grownFeatures, baseGraph,
                                         baseFeatures, &rows),
                         baseOut, "reverted");
    EXPECT_GT(rows, 0);
    EXPECT_LT(rows, baseGraph.numPins());
  }
}

// ---------------------------------------------------------------------------
// The training level node (tensor::gnnLevel) against the eager chain
// ---------------------------------------------------------------------------

/// Offset every parameter at random: biases start at zero and the
/// LayerNorm gain at one, which would hide a dropped bias add or gain
/// product.
void jitterParameters(const nn::Module& module, Rng& rng) {
  for (Tensor param : module.parameters()) {
    for (std::int64_t i = 0; i < param.numel(); ++i) {
      param.data()[i] += static_cast<float>(rng.uniform(-0.5, 0.5));
    }
  }
}

/// Restores the fusion switch on scope exit.
class FusionRestore {
 public:
  FusionRestore() : saved_(tensor::expr::fusionEnabled()) {}
  ~FusionRestore() { tensor::expr::setFusionEnabled(saved_); }

 private:
  bool saved_;
};

/// Equal shapes and bytes; two undefined tensors are equal.
void expectSameBits(const Tensor& got, const Tensor& want,
                    const std::string& what) {
  ASSERT_EQ(got.defined(), want.defined()) << what;
  if (!want.defined()) return;
  ASSERT_EQ(got.shape(), want.shape()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        static_cast<std::size_t>(want.numel()) *
                            sizeof(float)),
            0)
      << what;
}

std::vector<tensor::kernels::Tier> supportedTiers() {
  std::vector<tensor::kernels::Tier> tiers;
  for (int t = 0; t < tensor::kernels::kTierCount; ++t) {
    const auto tier = static_cast<tensor::kernels::Tier>(t);
    if (tensor::kernels::tierSupported(tier)) tiers.push_back(tier);
  }
  return tiers;
}

TEST(GnnLevelNode, SweepGradientsMatchEagerChainBitwiseAtEveryTier) {
  // Read through select() under a random-weighted loss, the sweep of level
  // nodes must leave every parameter's gradient and every level's value and
  // gradient bitwise equal to the eager chain's (DAGT_FUSION=0); outside
  // autograd, the served sweep's levels must too. Hidden 24 adds a GEMM
  // column tail to the avx2fma tier's 16-wide blocks.
  const auto& d = target7();
  const auto endpoints = d.netlist.endpoints();
  const FusionRestore restore;
  for (const auto tier : supportedTiers()) {
    SCOPED_TRACE(tensor::kernels::tierName(tier));
    TierGuard guard(tier);
    for (const std::int64_t hidden : {16, 24}) {
      Rng init(41);
      TimingGnn gnn(d.pinFeatures.dim(), hidden, init);
      jitterParameters(gnn, init);
      Rng lossRng(42);
      const Tensor weights = Tensor::randn(
          {static_cast<std::int64_t>(endpoints.size()), hidden}, lossRng);
      const auto run = [&](bool fused) {
        tensor::expr::setFusionEnabled(fused);
        gnn.zeroGrad();
        const auto out = gnn.forward(*d.graph, d.pinFeatures);
        tensor::sumAll(
            tensor::mul(TimingGnn::select(out, endpoints), weights))
            .backward();
        std::vector<Tensor> got;
        for (const Tensor& p : gnn.parameters()) got.push_back(p.grad());
        for (const Tensor& level : out.levelEmbeddings) {
          got.push_back(level);
          got.push_back(level.grad());
        }
        return got;
      };
      const auto eager = run(false);
      const auto fused = run(true);
      ASSERT_EQ(fused.size(), eager.size());
      const std::size_t params = gnn.parameters().size();
      for (std::size_t i = 0; i < eager.size(); ++i) {
        ASSERT_TRUE(eager[i].defined() || i >= params);
        expectSameBits(fused[i], eager[i],
                       "hidden " + std::to_string(hidden) +
                           (i < params ? " parameter " + std::to_string(i)
                                       : " level entry " +
                                             std::to_string(i - params)));
      }

      // The serving sweep: the same levels outside autograd, no node.
      const auto serve = [&](bool withFusion) {
        tensor::expr::setFusionEnabled(withFusion);
        tensor::NoGradGuard noGrad;
        return gnn.forward(*d.graph, d.pinFeatures).levelEmbeddings;
      };
      const auto servedEager = serve(false);
      const auto served = serve(true);
      ASSERT_EQ(served.size(), servedEager.size());
      for (std::size_t level = 0; level < served.size(); ++level) {
        const std::string what = "hidden " + std::to_string(hidden) +
                                 " served level " + std::to_string(level);
        EXPECT_FALSE(served[level].requiresGrad()) << what;
        expectSameBits(served[level], servedEager[level], what);
      }
    }
  }
}

/// One hand-built level over three earlier "levels" of leaf tensors.
struct LevelCase {
  std::string name;
  std::vector<Tensor> earlier;
  features::PinFeatures features;
  std::vector<std::int64_t> pins;
  std::optional<features::LevelEdges> net;
  std::optional<features::LevelEdges> cell;
};

/// Six pins of 5 features over earlier levels of 4, 3 and 5 rows, hidden 8,
/// with edge kinds per `kinds` (bit 0 net, bit 1 cell). Net: pin 0 reads
/// rows (0, 0) and (1, 2), which `tie` makes equal, so its max ties in
/// every column; pin 1 reads (0, 1) twice, a tie within one source; (2, 3)
/// feeds pins 2 and 3, and pin 3's cell edge too. Pin 4 has no net edge
/// (an empty segment, which aggregates zeros), pin 1 no cell edge, pin 5
/// no edge at all; `flatPin5` zeroes pin 5's features.
LevelCase levelCase(int kinds, std::uint64_t seed, bool tie,
                    bool flatPin5 = false) {
  constexpr std::int64_t kHidden = 8;
  Rng rng(seed);
  LevelCase c;
  c.name = "kinds " + std::to_string(kinds);
  for (const std::int64_t rows : {4, 3, 5}) {
    c.earlier.push_back(Tensor::randn({rows, kHidden}, rng, 1.0f, true));
  }
  if (tie) {
    std::copy_n(c.earlier[0].data(), kHidden,
                c.earlier[1].data() + 2 * kHidden);
  }
  c.pins = {8, 1, 4, 6, 2, 7};
  Tensor dense = Tensor::randn({9, 5}, rng);
  if (flatPin5) std::fill_n(dense.data() + 7 * 5, 5, 0.0f);
  c.features = features::PinFeatures(dense);
  if ((kinds & 1) != 0) {
    c.net = features::LevelEdges{
        {{0, 0}, {1, 2}, {0, 1}, {0, 1}, {2, 3}, {2, 3}, {1, 0}},
        {0, 0, 1, 1, 2, 3, 3}};
  }
  if ((kinds & 2) != 0) {
    c.cell = features::LevelEdges{{{2, 3}, {1, 1}, {2, 0}, {0, 3}, {2, 4}},
                                  {3, 4, 4, 0, 2}};
  }
  return c;
}

/// A TimingGnn(5, 8) whose parameters but its five projection biases are
/// offset at random: a pin without in-edges and with zero features then
/// has a zero pre-norm row. Its LayerNorm amplifies a change of that row
/// by 1 / sqrt(eps) ~ 316, so the LayerNorm bias sits at least 1 away from
/// 0, keeping the row's outputs off relu's kink within a difference step.
TimingGnn& flatBiasGnn(std::uint64_t seed, std::unique_ptr<TimingGnn>& own) {
  Rng init(seed);
  own = std::make_unique<TimingGnn>(5, 8, init);
  const std::vector<Tensor> params = own->parameters();
  for (std::size_t k = 0; k < params.size(); ++k) {
    // Registration order: (weight, bias) of the five projections, then the
    // LayerNorm's gain and bias.
    if (k < 10 && k % 2 == 1) continue;
    Tensor p = params[k];
    for (std::int64_t i = 0; i < p.numel(); ++i) {
      const auto offset = static_cast<float>(init.uniform(-0.5, 0.5));
      p.data()[i] += k == 11 ? std::copysign(1.0f, offset) + offset : offset;
    }
  }
  return *own;
}

/// levelBody of `c` under autograd, then sumAll(level * weights): the
/// output, every parameter's gradient and every earlier level's gradient.
std::vector<Tensor> levelGradients(TimingGnn& gnn, const LevelCase& c,
                                   const Tensor& weights, bool fused) {
  tensor::expr::setFusionEnabled(fused);
  gnn.zeroGrad();
  for (const Tensor& level : c.earlier) {
    Tensor(level).zeroGrad();
  }
  const Tensor out =
      gnn.levelBody(c.features, c.pins, c.earlier,
                    c.net ? &*c.net : nullptr, c.cell ? &*c.cell : nullptr);
  tensor::sumAll(tensor::mul(out, weights)).backward();
  std::vector<Tensor> got{out.detach().clone()};
  for (const Tensor& p : gnn.parameters()) got.push_back(p.grad());
  for (const Tensor& level : c.earlier) got.push_back(level.grad());
  return got;
}

/// levelBody of `c` outside autograd: the serving call.
Tensor servedLevel(const TimingGnn& gnn, const LevelCase& c, bool fused) {
  tensor::expr::setFusionEnabled(fused);
  tensor::NoGradGuard noGrad;
  return gnn.levelBody(c.features, c.pins, c.earlier,
                       c.net ? &*c.net : nullptr, c.cell ? &*c.cell : nullptr);
}

TEST(GnnLevelNode, HandBuiltLevelsMatchEagerChainBitwiseAtEveryTier) {
  // Each edge-kind combination, with ties, empty segments, a pin without
  // edges and a source that feeds this level through both kinds (so the
  // order of the cell and net scatters shows), plus a zero-variance row:
  // the node's output and gradients equal the eager chain's bit for bit,
  // and so does the op's output outside autograd, where it records
  // nothing.
  const FusionRestore restore;
  const auto expectSame = [](const std::vector<Tensor>& fused,
                             const std::vector<Tensor>& eager,
                             const std::string& name) {
    ASSERT_EQ(fused.size(), eager.size());
    for (std::size_t i = 0; i < eager.size(); ++i) {
      expectSameBits(fused[i], eager[i], name + " entry " + std::to_string(i));
    }
  };
  const auto expectSameServed = [](const TimingGnn& gnn, const LevelCase& c,
                                   const std::string& name) {
    const Tensor served = servedLevel(gnn, c, true);
    EXPECT_FALSE(served.requiresGrad()) << name;
    expectSameBits(served, servedLevel(gnn, c, false), name + " served");
  };
  for (const auto tier : supportedTiers()) {
    SCOPED_TRACE(tensor::kernels::tierName(tier));
    TierGuard guard(tier);
    for (const int kinds : {0, 1, 2, 3}) {
      const LevelCase c = levelCase(kinds, 50 + kinds, /*tie=*/true);
      Rng init(60);
      TimingGnn gnn(5, 8, init);
      jitterParameters(gnn, init);
      const Tensor weights = Tensor::randn({6, 8}, init);
      expectSame(levelGradients(gnn, c, weights, true),
                 levelGradients(gnn, c, weights, false), c.name);
      expectSameServed(gnn, c, c.name);
    }
    const LevelCase flat = levelCase(3, 70, /*tie=*/true, /*flatPin5=*/true);
    std::unique_ptr<TimingGnn> own;
    TimingGnn& gnn = flatBiasGnn(71, own);
    Rng lossRng(72);
    const Tensor weights = Tensor::randn({6, 8}, lossRng);
    expectSame(levelGradients(gnn, flat, weights, true),
               levelGradients(gnn, flat, weights, false), "zero variance");
    expectSameServed(gnn, flat, "zero variance");
  }
}

TEST(GnnLevelNode, RejectedLevelLeavesNoStateBehind) {
  // An edge that reads past its source level is rejected; a level after
  // it on the same thread records and differentiates as usual.
  const FusionRestore restore;
  const LevelCase c = levelCase(3, 75, /*tie=*/true);
  Rng init(76);
  TimingGnn gnn(5, 8, init);
  jitterParameters(gnn, init);
  LevelCase bad = c;
  bad.net->src.back() = {0, 99};
  tensor::expr::setFusionEnabled(true);
  EXPECT_THROW(gnn.levelBody(bad.features, bad.pins, bad.earlier, &*bad.net,
                             &*bad.cell),
               CheckError);
  const Tensor weights = Tensor::randn({6, 8}, init);
  const auto fused = levelGradients(gnn, c, weights, true);
  const auto eager = levelGradients(gnn, c, weights, false);
  ASSERT_EQ(fused.size(), eager.size());
  for (std::size_t i = 0; i < eager.size(); ++i) {
    expectSameBits(fused[i], eager[i], "entry " + std::to_string(i));
  }
}

/// Central-difference check of every gradient levelGradients reads, the
/// node (fusion on, autograd on) computing both the loss and the gradient.
void expectLevelGradientsMatchFiniteDifferences(TimingGnn& gnn,
                                                const LevelCase& c,
                                                const Tensor& weights) {
  const auto analytic = levelGradients(gnn, c, weights, true);
  const auto loss = [&] {
    const Tensor out = gnn.levelBody(c.features, c.pins, c.earlier,
                                     c.net ? &*c.net : nullptr,
                                     c.cell ? &*c.cell : nullptr);
    return static_cast<double>(
        tensor::sumAll(tensor::mul(out, weights)).item());
  };
  std::vector<Tensor> inputs = gnn.parameters();
  inputs.insert(inputs.end(), c.earlier.begin(), c.earlier.end());
  ASSERT_EQ(analytic.size(), inputs.size() + 1);
  constexpr float kEps = 1e-3f;
  for (std::size_t t = 0; t < inputs.size(); ++t) {
    Tensor input = inputs[t];
    // The projections of an absent edge kind take no gradient.
    const Tensor& grad = analytic[t + 1];
    for (std::int64_t i = 0; i < input.numel(); ++i) {
      float& v = input.data()[i];
      const float saved = v;
      v = saved + kEps;
      const double up = loss();
      v = saved - kEps;
      const double down = loss();
      v = saved;
      const double numeric = (up - down) / (2.0 * kEps);
      const double got = grad.defined() ? grad.data()[i] : 0.0;
      EXPECT_NEAR(got, numeric,
                  2e-2 * std::max({1.0, std::fabs(numeric), std::fabs(got)}))
          << c.name << " input " << t << " element " << i;
    }
  }
}

TEST(GnnLevelNode, GradientsMatchFiniteDifferences) {
  // Independent of the eager chain: the node's gradients against central
  // differences, for net-only, cell-only, both-kind and edge-free levels
  // (empty segments, a tie within one source, a pin without edges), and a
  // zero-variance row. Distinct sources do not tie here: a max over two
  // equal values has no derivative for a difference quotient to find.
  const FusionRestore restore;
  for (const int kinds : {0, 1, 2, 3}) {
    const LevelCase c = levelCase(kinds, 80 + kinds, /*tie=*/false);
    Rng init(90);
    TimingGnn gnn(5, 8, init);
    jitterParameters(gnn, init);
    expectLevelGradientsMatchFiniteDifferences(gnn, c,
                                               Tensor::randn({6, 8}, init));
  }
  LevelCase flat = levelCase(3, 95, /*tie=*/false, /*flatPin5=*/true);
  flat.name = "zero variance";
  std::unique_ptr<TimingGnn> own;
  TimingGnn& gnn = flatBiasGnn(96, own);
  Rng lossRng(97);
  expectLevelGradientsMatchFiniteDifferences(gnn, flat,
                                             Tensor::randn({6, 8}, lossRng));
}

TEST(PathCnn, FusedForwardBitwiseMatchesEagerAtEveryTier) {
  // With fusion on, inference runs the conv stack as one convReluPoolRows
  // kernel inside a program compiled once for every batch size; it must
  // equal the eager conv2d -> relu ... chain bit for bit at every tier.
  Rng rng(31);
  const PathCnn cnn(8, 32, rng);
  // Random biases (they initialize at zero, which would hide a dropped
  // bias add).
  for (Tensor p : cnn.parameters()) {
    if (p.ndim() == 1) {
      const Tensor r = Tensor::randn(p.shape(), rng, 0.1f);
      std::memcpy(p.data(), r.data(),
                  static_cast<std::size_t>(p.numel()) * sizeof(float));
    }
  }
  const bool savedFusion = tensor::expr::fusionEnabled();
  for (int t = 0; t < tensor::kernels::kTierCount; ++t) {
    const auto tier = static_cast<tensor::kernels::Tier>(t);
    if (!tensor::kernels::tierSupported(tier)) continue;
    SCOPED_TRACE(tensor::kernels::tierName(tier));
    TierGuard guard(tier);
    tensor::NoGradGuard noGrad;
    for (const std::int64_t batch : {1, 8, 37}) {
      // Masked layout images are mostly exact zeros.
      Tensor images = Tensor::randn({batch, 3, 32, 32}, rng);
      for (std::int64_t i = 0; i < images.numel(); ++i) {
        if (rng.uniform() < 0.6) images.data()[i] = 0.0f;
      }
      tensor::expr::setFusionEnabled(true);
      const Tensor fused = cnn.forward(images);
      tensor::expr::setFusionEnabled(false);
      const Tensor eager = cnn.forward(images);
      ASSERT_EQ(fused.shape(), eager.shape());
      EXPECT_EQ(std::memcmp(fused.data(), eager.data(),
                            static_cast<std::size_t>(fused.numel()) *
                                sizeof(float)),
                0)
          << "batch " << batch;
    }
  }
  tensor::expr::setFusionEnabled(savedFusion);
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

/// Give the head a nonzero output bias (it initializes at zero, which
/// would hide a dropped bias add).
void setOutputBias(const BayesianHead& head) {
  std::vector<Tensor> params = head.parameters();
  ASSERT_EQ(params.size(), 1u);  // the MLPs are frozen; the bias trains
  params.front().data()[0] = 0.37f;
}

TEST(BayesianHead, PredictiveMatchesDoublePrecisionSums) {
  // Independent reference: both sums of the closed form, evaluated in
  // double from the distribution's parameters.
  Rng rng(15);
  BayesianHead head(12, 12, rng);
  setOutputBias(head);
  const Tensor u = Tensor::randn({5, 12}, rng);
  for (const bool fused : {false, true}) {
    const bool savedFusion = tensor::expr::fusionEnabled();
    tensor::expr::setFusionEnabled(fused);
    tensor::NoGradGuard noGrad;
    const auto q = head.distribution(u);
    const auto p = head.predictive(u);
    tensor::expr::setFusionEnabled(savedFusion);
    ASSERT_EQ(p.mean.shape(), (tensor::Shape{5}));
    ASSERT_EQ(p.variance.shape(), (tensor::Shape{5}));
    for (std::int64_t i = 0; i < 5; ++i) {
      double mean = 0.37;
      double variance = 0.0;
      for (std::int64_t j = 0; j < 12; ++j) {
        const double x = u.data()[i * 12 + j];
        mean += static_cast<double>(q.mu.data()[i * 12 + j]) * x;
        const double logvar = q.logvar.data()[i * 12 + j];
        variance += std::exp(logvar) * x * x;
      }
      EXPECT_NEAR(p.mean.data()[i], mean, 1e-5 * (1.0 + std::fabs(mean)))
          << "fused=" << fused << " row " << i;
      EXPECT_NEAR(p.variance.data()[i], variance, 1e-5 * variance)
          << "fused=" << fused << " row " << i;
      EXPECT_GT(p.variance.data()[i], 0.0f);
    }
  }
}

TEST(BayesianHead, PredictiveMatchesLargeKMonteCarlo) {
  // Independent reference: the training readout's Monte-Carlo estimate at
  // K = 4096. Its mean must land within 5 standard errors of the exact
  // mean, and the samples' spread within 5% of the exact sigma (the
  // estimate's relative standard error is 1/sqrt(2K) ~ 1.1%).
  Rng rng(17);
  BayesianHead head(16, 16, rng);
  setOutputBias(head);
  const Tensor u = Tensor::randn({6, 16}, rng);
  tensor::NoGradGuard noGrad;
  const auto q = head.distribution(u);
  const auto exact = head.predictive(u);
  constexpr std::int32_t kSamples = 4096;
  Rng draws(2024);
  const auto mc = head.predict(u, q, kSamples, draws);
  ASSERT_EQ(mc.samples.size(), static_cast<std::size_t>(kSamples));
  for (std::int64_t i = 0; i < 6; ++i) {
    const double sigma =
        std::sqrt(static_cast<double>(exact.variance.data()[i]));
    ASSERT_GT(sigma, 0.0);
    EXPECT_NEAR(mc.mean.data()[i], exact.mean.data()[i],
                5.0 * sigma / std::sqrt(static_cast<double>(kSamples)))
        << "row " << i;
    double sum = 0.0;
    for (const Tensor& s : mc.samples) sum += s.data()[i];
    const double sampleMean = sum / kSamples;
    double squares = 0.0;
    for (const Tensor& s : mc.samples) {
      squares += (s.data()[i] - sampleMean) * (s.data()[i] - sampleMean);
    }
    const double sampleSigma = std::sqrt(squares / (kSamples - 1));
    EXPECT_NEAR(sampleSigma / sigma, 1.0, 0.05) << "row " << i;
  }
}

/// Module-level half of the fusion parity contract at one kernel tier: the
/// inference readout predictive(u), compiled vs eager, across three batch
/// widths through the same program cache. The program is row-polymorphic,
/// so only the first width compiles.
void expectPredictiveFusedMatchesEager(tensor::kernels::Tier tier) {
  Rng rng(16);
  BayesianHead head(10, 10, rng);
  setOutputBias(head);
  tensor::kernels::forceTier(tier);
  const bool savedFusion = tensor::expr::fusionEnabled();
  std::uint64_t compiledAfterFirst = 0;
  for (const std::int64_t batch : {3, 6, 1}) {
    const Tensor u = Tensor::randn({batch, 10}, rng);
    tensor::NoGradGuard noGrad;
    tensor::expr::setFusionEnabled(true);
    const auto fused = head.predictive(u);
    if (batch == 3) compiledAfterFirst = tensor::expr::stats().programsCompiled;
    tensor::expr::setFusionEnabled(false);
    const auto eager = head.predictive(u);

    const auto bitwise = [&](const Tensor& a, const Tensor& b) {
      ASSERT_EQ(a.shape(), b.shape());
      EXPECT_EQ(
          std::memcmp(a.data(), b.data(),
                      static_cast<std::size_t>(a.numel()) * sizeof(float)),
          0)
          << tensor::kernels::tierName(tier) << " batch " << batch;
    };
    bitwise(eager.mean, fused.mean);
    bitwise(eager.variance, fused.variance);
  }
  EXPECT_EQ(tensor::expr::stats().programsCompiled, compiledAfterFirst)
      << tensor::kernels::tierName(tier);
  tensor::expr::setFusionEnabled(savedFusion);
  tensor::kernels::resetTier();
}

TEST(BayesianHead, FusedForwardBitwiseMatchesEagerAtScalarTier) {
  expectPredictiveFusedMatchesEager(tensor::kernels::Tier::kScalar);
}

TEST(BayesianHead, FusedPredictiveBitwiseMatchesEagerAtSimdTiers) {
  for (int t = 1; t < tensor::kernels::kTierCount; ++t) {
    const auto tier = static_cast<tensor::kernels::Tier>(t);
    if (tensor::kernels::tierSupported(tier)) {
      expectPredictiveFusedMatchesEager(tier);
    }
  }
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
  const auto u1 = model.predictDesignWithUncertainty(ds, d);
  const auto u2 = model.predictDesignWithUncertainty(ds, d);
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
  const auto u = model.predictDesignWithUncertainty(ds, d);
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

/// What one training run leaves behind: its loss curve and trained weights.
struct TrainRun {
  std::vector<float> epochLoss;
  std::vector<std::vector<float>> weights;
};

TrainRun trainRun(const TimingDataset& trainSet, const TrainConfig& tc,
                  Strategy strategy) {
  const Trainer trainer(trainSet, tc);
  TrainStats stats;
  const auto model = trainer.train(strategy, &stats);
  TrainRun run{stats.epochLoss, {}};
  for (const Tensor& t : model->module().stateTensors()) {
    run.weights.push_back(t.toVector());
  }
  return run;
}

TEST(Trainer, TrainingIsDeterministic) {
  // Every RNG draw comes from the config's seed in step order, so two runs
  // of one config give bitwise the same loss curve and trained weights, for
  // the one-phase and two-phase baselines and for the transfer loss.
  const auto& d7 = target7();
  const auto& d130 = source130();
  TimingDataset trainSet({&d7, &d130});
  TrainConfig tc = tinyTrainConfig();
  tc.epochs = 2;
  for (const Strategy strategy : {Strategy::kSimpleMerge,
                                  Strategy::kPretrainFinetune,
                                  Strategy::kOurs}) {
    const TrainRun first = trainRun(trainSet, tc, strategy);
    const TrainRun second = trainRun(trainSet, tc, strategy);
    EXPECT_EQ(first.epochLoss, second.epochLoss) << strategyName(strategy);
    EXPECT_EQ(first.weights, second.weights) << strategyName(strategy);
  }
}

/// Bitwise equality: EXPECT_EQ on floats calls -0 and +0 equal.
bool sameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(Trainer, FusedTrainingMatchesEagerBitwiseAtEveryTier) {
  // With fusion on, each GNN level trains as one tape node; DAGT_FUSION=0
  // trains through the eager op chain. The loss curves and the trained
  // weights must be memcmp-equal, for the one-phase and two-phase
  // baselines and for the transfer loss, at every kernel tier.
  const auto& d7 = target7();
  const auto& d130 = source130();
  TimingDataset trainSet({&d7, &d130});
  TrainConfig tc = tinyTrainConfig();
  tc.epochs = 2;
  const FusionRestore restore;
  for (const auto tier : supportedTiers()) {
    TierGuard guard(tier);
    for (const Strategy strategy : {Strategy::kSimpleMerge,
                                    Strategy::kPretrainFinetune,
                                    Strategy::kOurs}) {
      SCOPED_TRACE(std::string(tensor::kernels::tierName(tier)) + " " +
                   strategyName(strategy));
      tensor::expr::setFusionEnabled(false);
      const TrainRun eager = trainRun(trainSet, tc, strategy);
      tensor::expr::setFusionEnabled(true);
      const TrainRun fused = trainRun(trainSet, tc, strategy);
      EXPECT_TRUE(sameBits(fused.epochLoss, eager.epochLoss));
      ASSERT_EQ(fused.weights.size(), eager.weights.size());
      for (std::size_t i = 0; i < eager.weights.size(); ++i) {
        EXPECT_TRUE(sameBits(fused.weights[i], eager.weights[i]))
            << "state tensor " << i;
      }
    }
  }
}

}  // namespace
}  // namespace dagt::core
