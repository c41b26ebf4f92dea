#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <vector>

#include "common/check.hpp"
#include "core/path_cnn.hpp"
#include "nn/layers.hpp"
#include "nn/module.hpp"
#include "nn/optimizer.hpp"
#include "tensor/expr.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/ops.hpp"

namespace dagt::nn {
namespace {

using tensor::Tensor;

TEST(Linear, ShapesAndBias) {
  Rng rng(1);
  Linear layer(4, 3, rng);
  Tensor x = Tensor::randn({5, 4}, rng);
  Tensor y = layer.forward(x);
  EXPECT_EQ(y.shape(), (tensor::Shape{5, 3}));
  EXPECT_EQ(layer.parameterCount(), 4 * 3 + 3);
}

TEST(Linear, RejectsWrongInputWidth) {
  Rng rng(1);
  Linear layer(4, 3, rng);
  Tensor x = Tensor::randn({5, 6}, rng);
  EXPECT_THROW(layer.forward(x), CheckError);
}

TEST(Mlp, AppliesOutputActivation) {
  Rng rng(2);
  Mlp mlp({4, 8, 2}, rng, Activation::kRelu, Activation::kTanh);
  Tensor x = Tensor::randn({16, 4}, rng, 3.0f);
  Tensor y = mlp.forward(x);
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    EXPECT_GE(y.data()[i], -1.0f);
    EXPECT_LE(y.data()[i], 1.0f);
  }
}

TEST(LayerNorm, NormalizesRows) {
  Rng rng(3);
  LayerNorm norm(8);
  Tensor x = Tensor::randn({4, 8}, rng, 50.0f);  // wildly scaled input
  Tensor y = norm.forward(x);
  for (std::int64_t r = 0; r < 4; ++r) {
    double mean = 0.0, var = 0.0;
    for (std::int64_t c = 0; c < 8; ++c) mean += y.at(r, c);
    mean /= 8.0;
    for (std::int64_t c = 0; c < 8; ++c) {
      var += (y.at(r, c) - mean) * (y.at(r, c) - mean);
    }
    var /= 8.0;
    EXPECT_NEAR(mean, 0.0, 1e-3);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(LayerNorm, GradientFlowsThroughNormalization) {
  Rng rng(4);
  LayerNorm norm(6);
  Tensor x = Tensor::randn({3, 6}, rng, 1.0f, /*requiresGrad=*/true);
  Tensor loss = tensor::sumAll(tensor::square(norm.forward(x)));
  loss.backward();
  ASSERT_TRUE(x.grad().defined());
}

TEST(Conv2dLayer, OutputShape) {
  Rng rng(5);
  Conv2d conv(3, 8, 3, 2, 1, rng, Activation::kRelu);
  Tensor x = Tensor::randn({2, 3, 16, 16}, rng);
  Tensor y = conv.forward(x);
  EXPECT_EQ(y.shape(), (tensor::Shape{2, 8, 8, 8}));
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    EXPECT_GE(y.data()[i], 0.0f);  // relu applied
  }
}

TEST(Adam, MinimizesQuadratic) {
  // f(w) = ||w - target||^2 has a unique minimum Adam must find.
  Rng rng(6);
  Tensor w = Tensor::randn({4}, rng, 1.0f, true);
  Tensor target = Tensor::fromVector({4}, {1.0f, -2.0f, 0.5f, 3.0f});
  Adam::Options opts;
  opts.learningRate = 0.05f;
  Adam adam({w}, opts);
  for (int step = 0; step < 400; ++step) {
    adam.zeroGrad();
    Tensor loss = tensor::sumAll(tensor::square(tensor::sub(w, target)));
    loss.backward();
    adam.step();
  }
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(w.data()[i], target.data()[i], 1e-2f);
  }
}

TEST(Adam, ClipGradNormScalesDown) {
  Tensor w = Tensor::fromVector({2}, {0.0f, 0.0f}, true);
  Adam adam({w}, {});
  Tensor loss =
      tensor::sumAll(tensor::mul(w, Tensor::fromVector({2}, {30.0f, 40.0f})));
  loss.backward();
  const float norm = adam.clipGradNorm(5.0f);
  EXPECT_FLOAT_EQ(norm, 50.0f);  // 3-4-5 triangle
  const Tensor g = w.grad();
  EXPECT_NEAR(std::hypot(g.data()[0], g.data()[1]), 5.0f, 1e-4f);
}

TEST(Adam, SkipsParametersWithoutGrad) {
  Rng rng(7);
  Tensor used = Tensor::randn({2}, rng, 1.0f, true);
  Tensor unused = Tensor::randn({2}, rng, 1.0f, true);
  const std::vector<float> before = unused.toVector();
  Adam adam({used, unused}, {});
  Tensor loss = tensor::sumAll(tensor::square(used));
  loss.backward();
  adam.step();
  EXPECT_EQ(unused.toVector(), before);
}

/// Pins a kernel tier and the fusion switch for one scope.
class TierAndFusionGuard {
 public:
  explicit TierAndFusionGuard(tensor::kernels::Tier tier)
      : fusion_(tensor::expr::fusionEnabled()) {
    tensor::kernels::forceTier(tier);
  }
  ~TierAndFusionGuard() {
    tensor::kernels::resetTier();
    tensor::expr::setFusionEnabled(fusion_);
  }

 private:
  bool fusion_;
};

std::vector<tensor::kernels::Tier> supportedTiers() {
  std::vector<tensor::kernels::Tier> tiers;
  for (int t = 0; t < tensor::kernels::kTierCount; ++t) {
    const auto tier = static_cast<tensor::kernels::Tier>(t);
    if (tensor::kernels::tierSupported(tier)) tiers.push_back(tier);
  }
  return tiers;
}

/// The compiled (fused) inference forward of `layer` against its eager op
/// chain on the layer's current weights: bitwise equal, so a program that
/// replays weights copied before an in-place write fails here.
template <typename Layer>
void expectFusedForwardMatchesEager(const Layer& layer, const Tensor& x) {
  tensor::NoGradGuard noGrad;
  tensor::expr::setFusionEnabled(true);
  const Tensor fused = layer.forward(x);
  tensor::expr::setFusionEnabled(false);
  const Tensor eager = layer.forward(x);
  ASSERT_EQ(fused.shape(), eager.shape());
  EXPECT_EQ(std::memcmp(fused.data(), eager.data(),
                        static_cast<std::size_t>(fused.numel()) *
                            sizeof(float)),
            0)
      << "fused " << fused.data()[0] << " eager " << eager.data()[0];
}

/// Predict, train one step in place, predict again: the second inference
/// forward must read the updated weights, not a program compiled before
/// the step (at avx2fma a Linear's program packs its weight panel at
/// compile time; at the SIMD tiers a PathCnn's packs its conv weights).
template <typename Layer>
void expectStepRefreshesPrograms(const Layer& layer, const Tensor& x) {
  expectFusedForwardMatchesEager(layer, x);
  Adam::Options opts;
  opts.learningRate = 0.1f;
  Adam adam(layer.parameters(), opts);
  tensor::sumAll(layer.forward(x)).backward();
  adam.step();
  expectFusedForwardMatchesEager(layer, x);
}

/// Predict, load `other`'s weights into `layer` in place, predict again.
template <typename Layer>
void expectLoadRefreshesPrograms(Layer& layer, const Layer& other,
                                 const Tensor& x, const std::string& path) {
  expectFusedForwardMatchesEager(layer, x);
  other.saveParameters(path);
  layer.loadParameters(path);
  expectFusedForwardMatchesEager(layer, x);
}

TEST(Adam, StepRefreshesCompiledProgramsAtEveryTier) {
  for (const tensor::kernels::Tier tier : supportedTiers()) {
    SCOPED_TRACE(tensor::kernels::tierName(tier));
    TierAndFusionGuard guard(tier);
    Rng rng(40);
    const Linear layer(32, 32, rng);
    expectStepRefreshesPrograms(layer, Tensor::randn({4, 32}, rng));
    const core::PathCnn cnn(4, 8, rng);
    expectStepRefreshesPrograms(cnn, Tensor::randn({3, 3, 16, 16}, rng));
  }
}

TEST(Module, LoadRefreshesCompiledProgramsAtEveryTier) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "dagt_linear_reload.bin")
          .string();
  for (const tensor::kernels::Tier tier : supportedTiers()) {
    SCOPED_TRACE(tensor::kernels::tierName(tier));
    TierAndFusionGuard guard(tier);
    Rng rng(41);
    Linear layer(32, 32, rng);
    const Linear other(32, 32, rng);
    expectLoadRefreshesPrograms(layer, other, Tensor::randn({4, 32}, rng),
                                path);
    core::PathCnn cnn(4, 8, rng);
    const core::PathCnn otherCnn(4, 8, rng);
    expectLoadRefreshesPrograms(cnn, otherCnn,
                                Tensor::randn({3, 3, 16, 16}, rng), path);
  }
  std::remove(path.c_str());
}

/// Two-layer module used by the serialization tests.
struct TinyNet : Module {
  Linear a;
  Linear b;
  explicit TinyNet(Rng& rng) : a(3, 5, rng, Activation::kRelu), b(5, 1, rng) {
    registerChild(a);
    registerChild(b);
  }
  Tensor forward(const Tensor& x) const { return b.forward(a.forward(x)); }
};

TEST(Module, SaveLoadRoundTrip) {
  Rng rng1(10), rng2(11);
  TinyNet src(rng1), dst(rng2);
  const std::string path =
      (std::filesystem::temp_directory_path() / "dagt_tinynet.bin").string();
  src.saveParameters(path);
  dst.loadParameters(path);
  Tensor x = Tensor::randn({4, 3}, rng1);
  EXPECT_EQ(src.forward(x).toVector(), dst.forward(x).toVector());
  std::remove(path.c_str());
}

struct FrozenNet : Module {
  Linear trained;
  Linear frozen;
  explicit FrozenNet(Rng& rng) : trained(3, 4, rng), frozen(4, 2, rng) {
    registerChild(trained);
    registerChild(frozen, /*trainable=*/false);
  }
  Tensor forward(const Tensor& x) const {
    return frozen.forward(trained.forward(x));
  }
};

TEST(Module, FrozenChildHiddenFromOptimizerButSerialized) {
  Rng rng1(30), rng2(31);
  FrozenNet src(rng1), dst(rng2);
  // parameters() exposes only the trainable half...
  EXPECT_EQ(src.parameters().size(), 2u);  // trained weight + bias
  EXPECT_EQ(src.stateTensors().size(), 4u);
  // ...but save/load round-trips the frozen half too.
  const auto path =
      (std::filesystem::temp_directory_path() / "dagt_frozen.dagtprm")
          .string();
  src.saveParameters(path);
  dst.loadParameters(path);
  Tensor x = Tensor::randn({4, 3}, rng1);
  EXPECT_EQ(src.forward(x).toVector(), dst.forward(x).toVector());
  std::remove(path.c_str());
}

TEST(Module, LoadRejectsShapeMismatch) {
  Rng rng(20);
  TinyNet src(rng);
  Linear other(3, 5, rng);  // fewer parameters, different shapes
  const auto path =
      (std::filesystem::temp_directory_path() / "dagt_mismatch.dagtprm")
          .string();
  src.saveParameters(path);
  EXPECT_THROW(other.loadParameters(path), CheckError);
  std::remove(path.c_str());
}

TEST(Module, LoadRejectsMissingFile) {
  Rng rng(21);
  TinyNet net(rng);
  EXPECT_THROW(net.loadParameters("/nonexistent/dagt_nowhere.dagtprm"),
               CheckError);
}

TEST(Module, LoadRejectsBadMagicAndTruncation) {
  Rng rng(22);
  TinyNet src(rng), dst(rng);
  const auto dir = std::filesystem::temp_directory_path();
  const auto path = (dir / "dagt_corrupt.dagtprm").string();
  src.saveParameters(path);

  // Flip the magic.
  auto bytes = [&] {
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in), {});
  }();
  {
    auto bad = bytes;
    bad[0] = 'X';
    std::ofstream out(path, std::ios::binary);
    out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
  }
  EXPECT_THROW(dst.loadParameters(path), CheckError);

  // Truncate mid-tensor.
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_THROW(dst.loadParameters(path), CheckError);

  // Trailing garbage after a valid payload.
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    const char junk[4] = {1, 2, 3, 4};
    out.write(junk, sizeof(junk));
  }
  EXPECT_THROW(dst.loadParameters(path), CheckError);
  std::remove(path.c_str());
}

TEST(Module, FailedLoadLeavesParametersUntouched) {
  Rng rng1(23), rng2(24);
  TinyNet src(rng1), dst(rng2);
  const auto path =
      (std::filesystem::temp_directory_path() / "dagt_partial.dagtprm")
          .string();
  src.saveParameters(path);
  // Truncate so the header parses but a later tensor body is short: the
  // load must stage into buffers and leave dst exactly as it was.
  auto bytes = [&] {
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in), {});
  }();
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 3));
  }
  Tensor x = Tensor::randn({4, 3}, rng1);
  const auto before = dst.forward(x).toVector();
  EXPECT_THROW(dst.loadParameters(path), CheckError);
  EXPECT_EQ(dst.forward(x).toVector(), before);
  std::remove(path.c_str());
}

TEST(Module, ZeroGradClearsAllGradients) {
  Rng rng(12);
  TinyNet net(rng);
  Tensor x = Tensor::randn({4, 3}, rng);
  Tensor loss = tensor::sumAll(net.forward(x));
  loss.backward();
  bool anyNonZero = false;
  for (auto& p : net.parameters()) {
    if (p.grad().defined()) {
      for (std::int64_t i = 0; i < p.grad().numel(); ++i) {
        anyNonZero = anyNonZero || p.grad().data()[i] != 0.0f;
      }
    }
  }
  ASSERT_TRUE(anyNonZero);
  net.zeroGrad();
  for (auto& p : net.parameters()) {
    if (!p.grad().defined()) continue;
    for (std::int64_t i = 0; i < p.grad().numel(); ++i) {
      EXPECT_EQ(p.grad().data()[i], 0.0f);
    }
  }
}

}  // namespace
}  // namespace dagt::nn
