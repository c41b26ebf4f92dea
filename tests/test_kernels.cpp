// Kernel parity suite: proves the dispatch tiers honor the rounding
// contract documented in src/tensor/kernels/kernels.hpp.
//
//   * Elementwise / accumulate / reduction kernels: bitwise identical
//     outputs in every supported tier (memcmp, including -0.0 and NaN).
//   * GEMM: scalar vs avx2 bitwise; avx2fma under a tight relative
//     tolerance (same accumulation order, fused rounding).
//   * Autograd correctness per tier (finite-difference gradcheck with the
//     tier pinned).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace dagt::tensor::kernels {
namespace {

std::vector<Tier> supportedTiers() {
  std::vector<Tier> tiers;
  for (int t = 0; t < kTierCount; ++t) {
    const Tier tier = static_cast<Tier>(t);
    if (tierSupported(tier)) tiers.push_back(tier);
  }
  return tiers;
}

/// Pin the active tier for one test body; resetTier() on scope exit.
class TierGuard {
 public:
  explicit TierGuard(Tier tier) { forceTier(tier); }
  ~TierGuard() { resetTier(); }
};

std::vector<float> randomVec(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-2.0, 2.0));
  return v;
}

bool bitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Odd sizes on purpose: exercise the 8-lane blocks AND the scalar tails.
const std::size_t kVecSizes[] = {1, 2, 7, 8, 9, 16, 31, 64, 67, 257};

TEST(KernelDispatch, TierNamesRoundTrip) {
  EXPECT_STREQ(tierName(Tier::kScalar), "scalar");
  EXPECT_STREQ(tierName(Tier::kAvx2), "avx2");
  EXPECT_STREQ(tierName(Tier::kAvx2Fma), "avx2fma");
  for (int t = 0; t < kTierCount; ++t) {
    const Tier tier = static_cast<Tier>(t);
    const auto parsed = parseTier(tierName(tier));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, tier);
  }
  EXPECT_FALSE(parseTier("sse9").has_value());
  EXPECT_FALSE(parseTier("").has_value());
  // "auto" is a dispatcher keyword, not a tier.
  EXPECT_FALSE(parseTier("auto").has_value());
}

TEST(KernelDispatch, ScalarAlwaysSupportedAndActiveTierIs) {
  EXPECT_TRUE(tierSupported(Tier::kScalar));
  EXPECT_TRUE(tierSupported(activeTier()));
  EXPECT_TRUE(tierSupported(detectTier()));
}

TEST(KernelDispatch, ForceTierPinsActiveTier) {
  for (const Tier tier : supportedTiers()) {
    TierGuard guard(tier);
    EXPECT_EQ(activeTier(), tier);
    EXPECT_EQ(&active(), &table(tier));
  }
}

TEST(KernelParity, ElementwiseBitwiseAcrossTiers) {
  const KernelTable& ref = table(Tier::kScalar);
  Rng rng(7);
  for (const std::size_t n : kVecSizes) {
    std::vector<float> x = randomVec(n, rng);
    std::vector<float> y = randomVec(n, rng);
    // Edge bits the contract must preserve: signed zero, NaN, infinity.
    x[0] = -0.0f;
    if (n > 2) {
      x[1] = std::numeric_limits<float>::quiet_NaN();
      y[2] = std::numeric_limits<float>::infinity();
    }
    const float s = 1.7f;
    for (const Tier tier : supportedTiers()) {
      if (tier == Tier::kScalar) continue;
      const KernelTable& kt = table(tier);
      const auto check2 = [&](auto refFn, auto tierFn, const char* name) {
        std::vector<float> a(n, 0.5f), b(n, 0.5f);
        refFn(ref, a.data());
        tierFn(kt, b.data());
        EXPECT_TRUE(bitwiseEqual(a, b))
            << name << " n=" << n << " tier=" << tierName(tier);
      };
      check2([&](const KernelTable& t, float* o) { t.addVec(x.data(), y.data(), o, n); },
             [&](const KernelTable& t, float* o) { t.addVec(x.data(), y.data(), o, n); },
             "addVec");
      check2([&](const KernelTable& t, float* o) { t.subVec(x.data(), y.data(), o, n); },
             [&](const KernelTable& t, float* o) { t.subVec(x.data(), y.data(), o, n); },
             "subVec");
      check2([&](const KernelTable& t, float* o) { t.mulVec(x.data(), y.data(), o, n); },
             [&](const KernelTable& t, float* o) { t.mulVec(x.data(), y.data(), o, n); },
             "mulVec");
      check2([&](const KernelTable& t, float* o) { t.divVec(x.data(), y.data(), o, n); },
             [&](const KernelTable& t, float* o) { t.divVec(x.data(), y.data(), o, n); },
             "divVec");
      check2([&](const KernelTable& t, float* o) { t.scaleVec(x.data(), s, o, n); },
             [&](const KernelTable& t, float* o) { t.scaleVec(x.data(), s, o, n); },
             "scaleVec");
      check2([&](const KernelTable& t, float* o) { t.addScalarVec(x.data(), s, o, n); },
             [&](const KernelTable& t, float* o) { t.addScalarVec(x.data(), s, o, n); },
             "addScalarVec");
      check2([&](const KernelTable& t, float* o) { t.reluVec(x.data(), o, n); },
             [&](const KernelTable& t, float* o) { t.reluVec(x.data(), o, n); },
             "reluVec");
      check2([&](const KernelTable& t, float* o) { t.accAddVec(x.data(), o, n); },
             [&](const KernelTable& t, float* o) { t.accAddVec(x.data(), o, n); },
             "accAddVec");
      check2([&](const KernelTable& t, float* o) { t.accScaleVec(x.data(), s, o, n); },
             [&](const KernelTable& t, float* o) { t.accScaleVec(x.data(), s, o, n); },
             "accScaleVec");
      check2([&](const KernelTable& t, float* o) { t.accMulVec(x.data(), y.data(), o, n); },
             [&](const KernelTable& t, float* o) { t.accMulVec(x.data(), y.data(), o, n); },
             "accMulVec");
    }
  }
}

TEST(KernelParity, ReluMatchesScalarOnSignedZeroAndNan) {
  // relu(x) must equal the scalar `x > 0 ? x : 0` bit-for-bit: -0.0 -> -0.0
  // is WRONG (scalar yields +0.0? no: -0.0 > 0 is false, so result is 0.0f
  // literal = +0.0), NaN -> 0.0. A max_ps-based kernel fails both.
  const float in[3] = {-0.0f, std::numeric_limits<float>::quiet_NaN(), -1.0f};
  for (const Tier tier : supportedTiers()) {
    float out[3] = {9.0f, 9.0f, 9.0f};
    table(tier).reluVec(in, out, 3);
    const float positiveZero = 0.0f;
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(std::memcmp(&out[i], &positiveZero, sizeof(float)), 0)
          << "tier=" << tierName(tier) << " i=" << i;
    }
  }
}

TEST(KernelParity, ReductionsBitwiseAcrossTiers) {
  const KernelTable& ref = table(Tier::kScalar);
  Rng rng(11);
  for (const std::size_t n : kVecSizes) {
    const std::vector<float> x = randomVec(n, rng);
    const std::vector<float> y = randomVec(n, rng);
    const double refSum = ref.sumVec(x.data(), n);
    const double refDot = ref.dotVec(x.data(), y.data(), n);
    for (const Tier tier : supportedTiers()) {
      const KernelTable& kt = table(tier);
      const double sum = kt.sumVec(x.data(), n);
      const double dot = kt.dotVec(x.data(), y.data(), n);
      EXPECT_EQ(std::memcmp(&sum, &refSum, sizeof(double)), 0)
          << "sumVec n=" << n << " tier=" << tierName(tier);
      EXPECT_EQ(std::memcmp(&dot, &refDot, sizeof(double)), 0)
          << "dotVec n=" << n << " tier=" << tierName(tier);
    }
  }
}

struct GemmShape {
  std::int64_t n, k, m;
};
// Cover the 4-row x 16-col FMA microkernel, its row tail, its column tail,
// and shapes smaller than one block.
const GemmShape kGemmShapes[] = {
    {1, 1, 1}, {3, 5, 7}, {4, 9, 16}, {13, 9, 21}, {33, 47, 29}, {8, 16, 64}};

TEST(KernelParity, GemmScalarVsAvx2Bitwise) {
  if (!tierSupported(Tier::kAvx2)) GTEST_SKIP() << "no avx2 on this host";
  Rng rng(13);
  for (const GemmShape& s : kGemmShapes) {
    const auto a = randomVec(static_cast<std::size_t>(s.n * s.k), rng);
    const auto b = randomVec(static_cast<std::size_t>(s.k * s.m), rng);
    std::vector<float> cRef(static_cast<std::size_t>(s.n * s.m), 0.25f);
    std::vector<float> cGot = cRef;
    table(Tier::kScalar)
        .gemmRows(a.data(), b.data(), cRef.data(), 0, s.n, s.k, s.m);
    table(Tier::kAvx2)
        .gemmRows(a.data(), b.data(), cGot.data(), 0, s.n, s.k, s.m);
    EXPECT_TRUE(bitwiseEqual(cRef, cGot))
        << "gemmRows " << s.n << "x" << s.k << "x" << s.m;

    // A^T B: A is [k, n].
    std::vector<float> tRef(static_cast<std::size_t>(s.n * s.m), -0.5f);
    std::vector<float> tGot = tRef;
    const auto at = randomVec(static_cast<std::size_t>(s.k * s.n), rng);
    table(Tier::kScalar)
        .gemmTransARows(at.data(), b.data(), tRef.data(), 0, s.n, s.k, s.n,
                        s.m);
    table(Tier::kAvx2)
        .gemmTransARows(at.data(), b.data(), tGot.data(), 0, s.n, s.k, s.n,
                        s.m);
    EXPECT_TRUE(bitwiseEqual(tRef, tGot))
        << "gemmTransARows " << s.n << "x" << s.k << "x" << s.m;
  }
}

TEST(KernelParity, GemmTransBBitwiseEveryTier) {
  // A B^T is dot-product based — the contract promises bitwise identity
  // even in the FMA tier.
  Rng rng(17);
  for (const GemmShape& s : kGemmShapes) {
    const auto a = randomVec(static_cast<std::size_t>(s.n * s.m), rng);
    const auto b = randomVec(static_cast<std::size_t>(s.k * s.m), rng);
    std::vector<float> cRef(static_cast<std::size_t>(s.n * s.k), 1.0f);
    table(Tier::kScalar)
        .gemmTransBRows(a.data(), b.data(), cRef.data(), 0, s.n, s.m, s.k);
    for (const Tier tier : supportedTiers()) {
      std::vector<float> cGot(static_cast<std::size_t>(s.n * s.k), 1.0f);
      table(tier).gemmTransBRows(a.data(), b.data(), cGot.data(), 0, s.n,
                                 s.m, s.k);
      EXPECT_TRUE(bitwiseEqual(cRef, cGot))
          << "gemmTransBRows " << s.n << "x" << s.m << "x" << s.k
          << " tier=" << tierName(tier);
    }
  }
}

TEST(KernelParity, GemmFmaMatchesScalarWithinUlps) {
  if (!tierSupported(Tier::kAvx2Fma)) GTEST_SKIP() << "no fma on this host";
  Rng rng(19);
  for (const GemmShape& s : kGemmShapes) {
    const auto a = randomVec(static_cast<std::size_t>(s.n * s.k), rng);
    const auto b = randomVec(static_cast<std::size_t>(s.k * s.m), rng);
    std::vector<float> cRef(static_cast<std::size_t>(s.n * s.m), 0.0f);
    std::vector<float> cGot = cRef;
    table(Tier::kScalar)
        .gemmRows(a.data(), b.data(), cRef.data(), 0, s.n, s.k, s.m);
    table(Tier::kAvx2Fma)
        .gemmRows(a.data(), b.data(), cGot.data(), 0, s.n, s.k, s.m);
    for (std::size_t i = 0; i < cRef.size(); ++i) {
      const float scale = std::max(1.0f, std::abs(cRef[i]));
      EXPECT_NEAR(cGot[i], cRef[i], 1e-5f * scale)
          << "gemmRows(fma) " << s.n << "x" << s.k << "x" << s.m << " @" << i;
    }
  }
}

TEST(KernelParity, OpsBitwiseScalarVsAvx2EndToEnd) {
  if (!tierSupported(Tier::kAvx2)) GTEST_SKIP() << "no avx2 on this host";
  // Whole-graph check through the public ops: forward AND gradients.
  Rng rng(29);
  Tensor a = Tensor::randn({9, 17}, rng, 1.0f, /*requiresGrad=*/true);
  Tensor b = Tensor::randn({17, 13}, rng, 1.0f, /*requiresGrad=*/true);
  const auto run = [&](Tier tier) {
    TierGuard guard(tier);
    a.zeroGrad();
    b.zeroGrad();
    Tensor loss = sumAll(relu(matmul(a, b)));
    loss.backward();
    std::vector<float> out = loss.grad().toVector();
    const auto ga = a.grad().toVector();
    const auto gb = b.grad().toVector();
    out.insert(out.end(), ga.begin(), ga.end());
    out.insert(out.end(), gb.begin(), gb.end());
    out.push_back(loss.item());
    return out;
  };
  const auto ref = run(Tier::kScalar);
  const auto got = run(Tier::kAvx2);
  EXPECT_TRUE(bitwiseEqual(ref, got));
}

/// Finite-difference gradcheck (same scheme as test_tensor.cpp).
void gradCheck(Tensor& input, const std::function<Tensor()>& lossFn,
               float tol = 2e-2f, float eps = 1e-3f) {
  input.zeroGrad();
  Tensor loss = lossFn();
  ASSERT_EQ(loss.numel(), 1);
  loss.backward();
  const Tensor analytic = input.grad();
  ASSERT_TRUE(analytic.defined());
  float* p = input.data();
  for (std::int64_t i = 0; i < input.numel(); ++i) {
    const float saved = p[i];
    p[i] = saved + eps;
    const float up = lossFn().item();
    p[i] = saved - eps;
    const float down = lossFn().item();
    p[i] = saved;
    const float numeric = (up - down) / (2.0f * eps);
    const float got = analytic.data()[i];
    const float scale = std::max({1.0f, std::abs(numeric), std::abs(got)});
    EXPECT_NEAR(got, numeric, tol * scale)
        << "element " << i << " analytic=" << got << " numeric=" << numeric;
  }
}

TEST(KernelParity, GradCheckEveryTier) {
  for (const Tier tier : supportedTiers()) {
    SCOPED_TRACE(tierName(tier));
    TierGuard guard(tier);
    Rng rng(31);
    Tensor a = Tensor::randn({5, 6}, rng, 0.8f, /*requiresGrad=*/true);
    Tensor b = Tensor::randn({6, 4}, rng, 0.8f, /*requiresGrad=*/true);
    Tensor c = Tensor::randn({5, 4}, rng, 0.8f, /*requiresGrad=*/true);
    const auto lossFn = [&] {
      // matmul + elementwise + reduction in one graph, so gemmRows,
      // gemmTransARows, gemmTransBRows, mul/add/relu and the reductions
      // all participate in the backward pass.
      return sumAll(mul(relu(matmul(a, b)), c));
    };
    gradCheck(a, lossFn);
    gradCheck(b, lossFn);
    gradCheck(c, lossFn);
  }
}

TEST(KernelParity, Conv2dGradCheckEveryTier) {
  for (const Tier tier : supportedTiers()) {
    SCOPED_TRACE(tierName(tier));
    TierGuard guard(tier);
    Rng rng(37);
    Tensor img = Tensor::randn({2, 2, 5, 5}, rng, 0.7f, /*requiresGrad=*/true);
    Tensor w = Tensor::randn({3, 2, 3, 3}, rng, 0.7f, /*requiresGrad=*/true);
    Tensor bias = Tensor::randn({3}, rng, 0.2f, /*requiresGrad=*/true);
    const auto lossFn = [&] {
      return sumAll(conv2d(img, w, bias, /*stride=*/1, /*padding=*/1));
    };
    gradCheck(img, lossFn, 3e-2f);
    gradCheck(w, lossFn, 3e-2f);
    gradCheck(bias, lossFn, 3e-2f);
  }
}

TEST(KernelParity, FusedEwRowsBitwiseAcrossTiers) {
  // One program per EwOp, run over a [rows, cols] block with a full-matrix,
  // a row-vector and a column-vector operand: every tier must match the
  // scalar reference bit for bit (the fused contract in kernels.hpp).
  const std::int64_t rows = 7, cols = 19;
  Rng rng(41);
  const std::vector<float> seed =
      randomVec(static_cast<std::size_t>(rows * cols), rng);
  const std::vector<float> full =
      randomVec(static_cast<std::size_t>(rows * cols), rng);
  const std::vector<float> rowv = randomVec(static_cast<std::size_t>(cols), rng);
  const std::vector<float> colv = randomVec(static_cast<std::size_t>(rows), rng);

  const float* operands[4] = {seed.data(), full.data(), rowv.data(),
                              colv.data()};
  const std::uint8_t kinds[4] = {
      static_cast<std::uint8_t>(EwOperandKind::kFull),
      static_cast<std::uint8_t>(EwOperandKind::kFull),
      static_cast<std::uint8_t>(EwOperandKind::kRowVec),
      static_cast<std::uint8_t>(EwOperandKind::kColVec)};

  const EwOp allOps[] = {EwOp::kAddV,   EwOp::kSubV,      EwOp::kRsubV,
                         EwOp::kMulV,   EwOp::kDivV,      EwOp::kRdivV,
                         EwOp::kAddS,   EwOp::kMulS,      EwOp::kRelu,
                         EwOp::kLeakyRelu, EwOp::kTanh,   EwOp::kSigmoid,
                         EwOp::kExp,    EwOp::kLog,       EwOp::kSqrt,
                         EwOp::kSquare, EwOp::kSoftplus,  EwOp::kPowInt};
  for (const EwOp op : allOps) {
    SCOPED_TRACE(static_cast<int>(op));
    // Each program: the op under test against every operand kind it
    // accepts, bracketed by a scale so the accumulator is never trivial.
    std::vector<EwStep> steps;
    steps.push_back({EwOp::kMulS, -1, 0.75f, 0});
    const bool binary = op == EwOp::kAddV || op == EwOp::kSubV ||
                        op == EwOp::kRsubV || op == EwOp::kMulV ||
                        op == EwOp::kDivV || op == EwOp::kRdivV;
    if (binary) {
      for (std::int32_t operand = 1; operand <= 3; ++operand) {
        steps.push_back({op, operand, 0.0f, 0});
      }
    } else {
      EwStep s{op, -1, 0.0f, 0};
      if (op == EwOp::kAddS || op == EwOp::kMulS) s.scalar = 1.25f;
      if (op == EwOp::kLeakyRelu) s.scalar = 0.1f;
      if (op == EwOp::kLog || op == EwOp::kSqrt) s.scalar = 1e-6f;
      if (op == EwOp::kPowInt) s.ipow = 3;
      steps.push_back(s);
    }

    std::vector<float> ref(static_cast<std::size_t>(rows * cols));
    table(Tier::kScalar)
        .fusedEwRows(operands, kinds, 4, steps.data(),
                     static_cast<int>(steps.size()), ref.data(), rows, cols);
    for (const Tier tier : supportedTiers()) {
      SCOPED_TRACE(tierName(tier));
      std::vector<float> out(ref.size(), -1.0f);
      table(tier).fusedEwRows(operands, kinds, 4, steps.data(),
                              static_cast<int>(steps.size()), out.data(),
                              rows, cols);
      EXPECT_TRUE(bitwiseEqual(ref, out));
    }
  }
}

TEST(KernelParity, FusedGemmEpilogueMatchesGemmPlusScalarEpilogue) {
  // Contract: the GEMM part of fusedGemmEpilogueRows rounds exactly like
  // the tier's own gemmRows, and the epilogue (bias -> activation ->
  // residual) is bitwise identical across tiers. So for every tier,
  // fused == gemmRows-of-that-tier + the scalar reference epilogue, bit
  // for bit — including the AVX2 single-pass epilogue.
  const std::int64_t n = 13, k = 27, m = 22;
  Rng rng(43);
  const std::vector<float> a = randomVec(static_cast<std::size_t>(n * k), rng);
  const std::vector<float> b = randomVec(static_cast<std::size_t>(k * m), rng);
  const std::vector<float> bias = randomVec(static_cast<std::size_t>(m), rng);
  const std::vector<float> residual =
      randomVec(static_cast<std::size_t>(n * m), rng);

  for (const Tier tier : supportedTiers()) {
    SCOPED_TRACE(tierName(tier));
    const KernelTable& kt = table(tier);
    for (std::int32_t activation = 0; activation <= 4; ++activation) {
      for (const bool withBias : {false, true}) {
        for (const bool withResidual : {false, true}) {
          SCOPED_TRACE("act=" + std::to_string(activation) +
                       " bias=" + std::to_string(withBias) +
                       " res=" + std::to_string(withResidual));
          GemmEpilogue ep;
          ep.bias = withBias ? bias.data() : nullptr;
          ep.residual = withResidual ? residual.data() : nullptr;
          ep.activation = activation;
          ep.slope = activation == 4 ? 0.15f : 0.0f;

          // Unfused reference: the tier's own GEMM, then the scalar
          // epilogue expressions (exactly the eager op chain).
          std::vector<float> ref(static_cast<std::size_t>(n * m), 0.0f);
          kt.gemmRows(a.data(), b.data(), ref.data(), 0, n, k, m);
          for (std::int64_t r = 0; r < n; ++r) {
            float* crow = ref.data() + r * m;
            if (ep.bias != nullptr) {
              for (std::int64_t j = 0; j < m; ++j) crow[j] += ep.bias[j];
            }
            for (std::int64_t j = 0; j < m; ++j) {
              switch (activation) {
                case 1: crow[j] = crow[j] > 0.0f ? crow[j] : 0.0f; break;
                case 2: crow[j] = std::tanh(crow[j]); break;
                case 3: crow[j] = 1.0f / (1.0f + std::exp(-crow[j])); break;
                case 4:
                  crow[j] = crow[j] > 0.0f ? crow[j] : ep.slope * crow[j];
                  break;
                default: break;
              }
            }
            if (ep.residual != nullptr) {
              const float* rrow = ep.residual + r * m;
              for (std::int64_t j = 0; j < m; ++j) crow[j] += rrow[j];
            }
          }

          std::vector<float> fused(static_cast<std::size_t>(n * m), 0.0f);
          kt.fusedGemmEpilogueRows(a.data(), b.data(), /*packedB=*/nullptr,
                                   fused.data(), 0, n, k, m, &ep);
          EXPECT_TRUE(bitwiseEqual(ref, fused));

          // Prepacked-B path: same rounding as the plain-B path.
          const std::int64_t packSize = kt.gemmPackBSize(k, m);
          if (packSize > 0) {
            std::vector<float> panel(static_cast<std::size_t>(packSize));
            kt.gemmPackB(b.data(), k, m, panel.data());
            std::vector<float> packed(static_cast<std::size_t>(n * m), 0.0f);
            kt.fusedGemmEpilogueRows(a.data(), b.data(), panel.data(),
                                     packed.data(), 0, n, k, m, &ep);
            EXPECT_TRUE(bitwiseEqual(fused, packed));
          }
        }
      }
    }
  }
}

TEST(KernelParity, SegmentSumRowsBitwiseAcrossTiers) {
  const std::int64_t rows = 23, cols = 17, segments = 5;
  Rng rng(47);
  const std::vector<float> src =
      randomVec(static_cast<std::size_t>(rows * cols), rng);
  std::vector<std::int64_t> segment(static_cast<std::size_t>(rows));
  for (std::int64_t r = 0; r < rows; ++r) {
    segment[static_cast<std::size_t>(r)] =
        static_cast<std::int64_t>(rng.uniform(0.0, 1.0) * segments) % segments;
  }
  std::vector<float> ref(static_cast<std::size_t>(segments * cols), 0.0f);
  table(Tier::kScalar)
      .segmentSumRows(src.data(), segment.data(), rows, cols, ref.data());
  for (const Tier tier : supportedTiers()) {
    SCOPED_TRACE(tierName(tier));
    std::vector<float> out(ref.size(), 0.0f);
    table(tier).segmentSumRows(src.data(), segment.data(), rows, cols,
                               out.data());
    EXPECT_TRUE(bitwiseEqual(ref, out));
  }
}

TEST(KernelParity, GatherRowsPtrsBitwiseAcrossTiers) {
  const std::int64_t rows = 29, cols = 13;
  Rng rng(53);
  const std::vector<float> pool =
      randomVec(static_cast<std::size_t>(rows * cols * 2), rng);
  std::vector<const float*> ptrs(static_cast<std::size_t>(rows));
  for (std::int64_t r = 0; r < rows; ++r) {
    const auto offset =
        static_cast<std::size_t>(rng.uniform(0.0, 1.0) * (rows * 2 - 1));
    ptrs[static_cast<std::size_t>(r)] =
        pool.data() + offset * static_cast<std::size_t>(cols);
  }
  std::vector<float> ref(static_cast<std::size_t>(rows * cols), 0.0f);
  table(Tier::kScalar).gatherRowsPtrs(ptrs.data(), rows, cols, ref.data());
  for (const Tier tier : supportedTiers()) {
    SCOPED_TRACE(tierName(tier));
    std::vector<float> out(ref.size(), -7.0f);
    table(tier).gatherRowsPtrs(ptrs.data(), rows, cols, out.data());
    EXPECT_TRUE(bitwiseEqual(ref, out));
  }
}

// -- GNN level kernels against the eager chains they replace ------------------

/// Overwrite about `rate` of t's entries with +0, -0, +inf, -inf or a NaN of
/// either sign.
void sprinkleSpecials(Tensor& t, Rng& rng, double rate) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float specials[] = {0.0f, -0.0f, inf, -inf, nan, -nan};
  float* p = t.data();
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    if (rng.uniform() < rate) p[i] = specials[rng.uniformInt(6)];
  }
}

void expectSameBits(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<std::size_t>(a.numel()) * sizeof(float)),
            0)
      << what;
}

/// Bitwise equality, except that any NaN matches any NaN: when both
/// operands of an add or multiply are NaN, IEEE 754 leaves open which one
/// comes out, and the compiler's operand order decides it (the eager
/// kernels themselves differ there between their vector bodies and tails).
void expectSameBitsOrNaN(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  std::int64_t mismatches = 0;
  std::int64_t nans = 0;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    const float x = a.data()[i];
    const float y = b.data()[i];
    if (std::isnan(x) && std::isnan(y)) {
      ++nans;
      continue;
    }
    if (std::memcmp(&x, &y, sizeof(float)) != 0) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0) << what << " (" << nans << " NaN entries)";
}

TEST(KernelParity, SegmentMeanMaxMatchesEagerChainEveryTier) {
  const float inf = std::numeric_limits<float>::infinity();
  for (const Tier tier : supportedTiers()) {
    SCOPED_TRACE(tierName(tier));
    TierGuard guard(tier);
    NoGradGuard noGrad;
    Rng rng(71);
    for (const std::int64_t numDst : {1, 2, 7, 13, 64, 65, 300}) {
      for (const std::int64_t cols : {64, 9}) {
        SCOPED_TRACE(testing::Message() << numDst << " x " << cols);
        // Three source levels of different heights, row 0 of the middle
        // one all -inf.
        std::vector<Tensor> mats;
        for (const std::int64_t height : {numDst, std::int64_t{5},
                                          2 * numDst + 1}) {
          Tensor m = Tensor::randn({height, cols}, rng);
          sprinkleSpecials(m, rng, 0.1);
          mats.push_back(m);
        }
        std::fill(mats[1].data(), mats[1].data() + cols, -inf);
        // Destination 0 reads only the -inf row, twice; the last one (when
        // there are several) reads nothing; the rest read ~3 random
        // sources each, repeats included, in shuffled destination order.
        std::vector<std::pair<std::int32_t, std::int64_t>> src = {{1, 0},
                                                                  {1, 0}};
        std::vector<std::int64_t> dst = {0, 0};
        for (std::int64_t e = 0; numDst > 2 && e < 3 * numDst; ++e) {
          const auto ord = static_cast<std::int32_t>(rng.uniformInt(3));
          src.emplace_back(ord, rng.uniformInt(0, mats[ord].dim(0) - 1));
          dst.push_back(rng.uniformInt(1, numDst - 2));
        }
        for (std::size_t e = src.size(); e > 1; --e) {
          const std::size_t j = rng.uniformInt(e);
          std::swap(src[e - 1], src[j]);
          std::swap(dst[e - 1], dst[j]);
        }

        const Tensor gathered = gatherRowsMulti(mats, src);
        std::vector<float> invCount(static_cast<std::size_t>(numDst), 0.0f);
        for (const std::int64_t d : dst) {
          invCount[static_cast<std::size_t>(d)] += 1.0f;
        }
        for (float& c : invCount) c = c > 0.0f ? 1.0f / c : 0.0f;
        const Tensor refMean =
            mulColVec(segmentSum(gathered, dst, numDst),
                      Tensor::fromVector({numDst}, invCount));
        const Tensor refMax = segmentMax(gathered, dst, numDst);

        // The kernel reads each edge's source row where it sits, into
        // zero-filled outputs.
        std::vector<const float*> rowPtrs;
        for (const auto& [ord, row] : src) {
          rowPtrs.push_back(mats[static_cast<std::size_t>(ord)].data() +
                            row * cols);
        }
        Tensor mean = Tensor::zeros({numDst, cols});
        Tensor max = Tensor::zeros({numDst, cols});
        active().segmentMeanMaxRows(
            rowPtrs.data(), dst.data(), static_cast<std::int64_t>(src.size()),
            cols, invCount.data(), numDst, mean.data(), max.data(),
            /*argmax=*/nullptr);
        expectSameBitsOrNaN(refMean, mean, "mean");
        expectSameBits(refMax, max, "max");
        // The all -inf destination and (when present) the edgeless one.
        EXPECT_EQ(max.data()[0], 0.0f);
        if (numDst > 1) {
          EXPECT_EQ(mean.data()[(numDst - 1) * cols], 0.0f);
          EXPECT_EQ(max.data()[(numDst - 1) * cols], 0.0f);
        }
      }
    }
  }
}

/// nn::LayerNorm's op chain, op for op.
Tensor layerNormChain(const Tensor& x, const Tensor& gain, const Tensor& bias,
                      float eps) {
  const Tensor mean = meanDim1(x);
  const Tensor centered = addColVec(x, neg(mean));
  const Tensor var = meanDim1(square(centered));
  const Tensor invStd =
      div(Tensor::ones({x.dim(0)}), sqrtOp(addScalar(var, eps)));
  const Tensor normalized = mulColVec(centered, invStd);
  return addBias(mul(normalized, repeatRows(reshape(gain, {1, x.dim(1)}),
                                            x.dim(0))),
                 bias);
}

TEST(KernelParity, LayerNormMatchesEagerChainEveryTier) {
  for (const Tier tier : supportedTiers()) {
    SCOPED_TRACE(tierName(tier));
    TierGuard guard(tier);
    NoGradGuard noGrad;
    Rng rng(73);
    for (const std::int64_t rows : {1, 3, 13, 64, 300}) {
      for (const std::int64_t cols : {64, 9, 1}) {
        SCOPED_TRACE(testing::Message() << rows << " x " << cols);
        Tensor x = Tensor::randn({rows, cols}, rng, 3.0f);
        sprinkleSpecials(x, rng, 0.02);
        Tensor gain = Tensor::randn({cols}, rng);
        Tensor bias = Tensor::randn({cols}, rng);
        sprinkleSpecials(gain, rng, 0.05);
        sprinkleSpecials(bias, rng, 0.05);
        const Tensor ref = layerNormChain(x, gain, bias, 1e-5f);
        for (const bool withRelu : {false, true}) {
          Tensor out = Tensor::zeros({rows, cols});
          active().layerNormRows(x.data(), gain.data(), bias.data(), 1e-5f,
                                 withRelu, rows, cols, out.data(),
                                 /*saved=*/nullptr);
          if (withRelu) {
            expectSameBits(relu(ref), out, "relu");
          } else {
            expectSameBitsOrNaN(ref, out, "plain");
          }
        }
      }
    }
  }
}

// -- conv2d im2col against the per-element bounds-tested reference -----------

/// The im2col conv2d computed before the contiguous-run rewrite: every
/// entry tested against the image bounds. Forward and the three gradients
/// with the same kernels conv2d uses, so the comparison isolates im2col.
struct ConvReference {
  std::vector<float> out, dImg, dW, dBias;
};

ConvReference referenceConv(const Tensor& img, const Tensor& w,
                            const Tensor& bias, std::int64_t stride,
                            std::int64_t pad, const std::vector<float>& gOut) {
  const std::int64_t n = img.dim(0), c = img.dim(1), h = img.dim(2),
                     wd = img.dim(3);
  const std::int64_t f = w.dim(0), kh = w.dim(2), kw = w.dim(3);
  const std::int64_t oh = (h + 2 * pad - kh) / stride + 1;
  const std::int64_t ow = (wd + 2 * pad - kw) / stride + 1;
  const std::int64_t colRows = c * kh * kw, colCols = oh * ow;
  const KernelTable& kt = active();
  ConvReference ref;
  ref.out.assign(static_cast<std::size_t>(n * f * colCols), 0.0f);
  ref.dImg.assign(static_cast<std::size_t>(img.numel()), 0.0f);
  ref.dW.assign(static_cast<std::size_t>(w.numel()), 0.0f);
  ref.dBias.assign(static_cast<std::size_t>(f), 0.0f);
  std::vector<float> col(static_cast<std::size_t>(colRows * colCols));
  std::vector<float> colGrad(col.size());
  for (std::int64_t s = 0; s < n; ++s) {
    const float* in = img.data() + s * c * h * wd;
    for (std::int64_t ch = 0; ch < c; ++ch) {
      for (std::int64_t ky = 0; ky < kh; ++ky) {
        for (std::int64_t kx = 0; kx < kw; ++kx) {
          float* dst = col.data() + ((ch * kh + ky) * kw + kx) * colCols;
          for (std::int64_t oy = 0; oy < oh; ++oy) {
            for (std::int64_t ox = 0; ox < ow; ++ox) {
              const std::int64_t iy = oy * stride + ky - pad;
              const std::int64_t ix = ox * stride + kx - pad;
              const bool inside = iy >= 0 && iy < h && ix >= 0 && ix < wd;
              dst[oy * ow + ox] = inside ? in[(ch * h + iy) * wd + ix] : 0.0f;
            }
          }
        }
      }
    }
    float* o = ref.out.data() + s * f * colCols;
    for (std::int64_t fi = 0; fi < f; ++fi) {
      std::fill(o + fi * colCols, o + (fi + 1) * colCols, bias.data()[fi]);
    }
    kt.gemmRows(w.data(), col.data(), o, 0, f, colRows, colCols);
    const float* go = gOut.data() + s * f * colCols;
    kt.gemmTransBRows(go, col.data(), ref.dW.data(), 0, f, colCols, colRows);
    for (std::int64_t fi = 0; fi < f; ++fi) {
      ref.dBias[static_cast<std::size_t>(fi)] += static_cast<float>(
          kt.sumVec(go + fi * colCols, static_cast<std::size_t>(colCols)));
    }
    std::fill(colGrad.begin(), colGrad.end(), 0.0f);
    kt.gemmTransARows(w.data(), go, colGrad.data(), 0, colRows, f, colRows,
                      colCols);
    float* gi = ref.dImg.data() + s * c * h * wd;
    for (std::int64_t ch = 0; ch < c; ++ch) {
      for (std::int64_t ky = 0; ky < kh; ++ky) {
        for (std::int64_t kx = 0; kx < kw; ++kx) {
          const float* srcRow =
              colGrad.data() + ((ch * kh + ky) * kw + kx) * colCols;
          for (std::int64_t oy = 0; oy < oh; ++oy) {
            const std::int64_t iy = oy * stride + ky - pad;
            if (iy < 0 || iy >= h) continue;
            for (std::int64_t ox = 0; ox < ow; ++ox) {
              const std::int64_t ix = ox * stride + kx - pad;
              if (ix < 0 || ix >= wd) continue;
              gi[(ch * h + iy) * wd + ix] += srcRow[oy * ow + ox];
            }
          }
        }
      }
    }
  }
  return ref;
}

bool sameBits(const float* a, const std::vector<float>& b) {
  return std::memcmp(a, b.data(), b.size() * sizeof(float)) == 0;
}

TEST(KernelParity, Conv2dMatchesBoundsTestedIm2colEveryTier) {
  for (const Tier tier : supportedTiers()) {
    SCOPED_TRACE(tierName(tier));
    TierGuard guard(tier);
    Rng rng(75);
    for (const std::int64_t stride : {1, 2}) {
      for (const std::int64_t pad : {0, 1}) {
        for (const std::int64_t k : {1, 2, 3}) {
          for (const std::int64_t size : {5, 7, 8}) {
            SCOPED_TRACE(testing::Message() << "stride " << stride << " pad "
                                            << pad << " k " << k << " size "
                                            << size);
            Tensor img = Tensor::randn({2, 3, size, size + 2}, rng, 1.0f,
                                       /*requiresGrad=*/true);
            Tensor w =
                Tensor::randn({4, 3, k, k}, rng, 0.5f, /*requiresGrad=*/true);
            Tensor bias =
                Tensor::randn({4}, rng, 0.2f, /*requiresGrad=*/true);
            Tensor out = conv2d(img, w, bias, stride, pad);
            std::vector<float> gOut(static_cast<std::size_t>(out.numel()));
            for (float& g : gOut) g = static_cast<float>(rng.uniform(-1, 1));
            const ConvReference ref =
                referenceConv(img, w, bias, stride, pad, gOut);
            ASSERT_EQ(static_cast<std::size_t>(out.numel()), ref.out.size());
            EXPECT_TRUE(sameBits(out.data(), ref.out)) << "forward";
            img.zeroGrad();
            w.zeroGrad();
            bias.zeroGrad();
            sumAll(mul(out, Tensor::fromVector(out.shape(), gOut))).backward();
            EXPECT_TRUE(sameBits(img.grad().data(), ref.dImg)) << "d input";
            EXPECT_TRUE(sameBits(w.grad().data(), ref.dW)) << "d weight";
            EXPECT_TRUE(sameBits(bias.grad().data(), ref.dBias)) << "d bias";
          }
        }
      }
    }
  }
}

// -- conv stack against the eager conv2d -> relu ... -> globalAvgPool chain ---

struct StackStage {
  std::int64_t outChannels, kernel, stride, pad;
  bool bias;
};

struct StackGeometry {
  const char* name;
  std::int64_t channels, h, w;
  std::vector<StackStage> stages;
};

/// PathCnn's stack, plus odd ones: stride 1 and 3, output planes that are
/// not a multiple of 16 pixels (so avx2fma runs its mul-then-add tail),
/// channel counts that are not a multiple of 8, a 1x1 and a 5x5 kernel,
/// and a stage without bias.
const std::vector<StackGeometry>& stackGeometries() {
  static const std::vector<StackGeometry> geometries = {
      {"path-cnn", 3, 32, 32,
       {{8, 3, 2, 1, true}, {16, 3, 2, 1, true}, {32, 3, 2, 1, true}}},
      {"stride-1-and-3", 5, 11, 9, {{7, 3, 1, 1, true}, {13, 2, 3, 0, true}}},
      {"odd-planes", 2, 20, 20,
       {{3, 5, 3, 2, true}, {9, 1, 1, 0, false}, {17, 3, 2, 1, true}}},
      {"one-stage", 4, 6, 6, {{24, 3, 1, 0, true}}},
  };
  return geometries;
}

struct BuiltStack {
  std::vector<Tensor> weights, biases;
  std::vector<ConvStage> stages;
};

BuiltStack buildStack(const StackGeometry& g, Rng& rng) {
  BuiltStack built;
  std::int64_t c = g.channels, h = g.h, w = g.w;
  for (const StackStage& s : g.stages) {
    built.weights.push_back(
        Tensor::randn({s.outChannels, c, s.kernel, s.kernel}, rng, 0.4f));
    built.biases.push_back(s.bias ? Tensor::randn({s.outChannels}, rng, 0.2f)
                                  : Tensor());
    ConvStage st;
    st.weight = built.weights.back().data();
    st.bias = s.bias ? built.biases.back().data() : nullptr;
    st.inChannels = c;
    st.inH = h;
    st.inW = w;
    st.outChannels = s.outChannels;
    st.kh = st.kw = s.kernel;
    st.stride = s.stride;
    st.pad = s.pad;
    st.outH = (h + 2 * s.pad - s.kernel) / s.stride + 1;
    st.outW = (w + 2 * s.pad - s.kernel) / s.stride + 1;
    built.stages.push_back(st);
    c = st.outChannels;
    h = st.outH;
    w = st.outW;
  }
  return built;
}

/// Images whose even samples are plain Gaussians with 5% exact +0 / -0,
/// and whose odd samples also carry +-inf and NaNs of either sign.
Tensor stackImages(const StackGeometry& g, std::int64_t batch, Rng& rng) {
  Tensor images = Tensor::randn({batch, g.channels, g.h, g.w}, rng);
  const std::int64_t sample = g.channels * g.h * g.w;
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float specials[] = {inf, -inf, nan, -nan};
  for (std::int64_t r = 0; r < batch; ++r) {
    float* p = images.data() + r * sample;
    for (std::int64_t i = 0; i < sample; ++i) {
      const double u = rng.uniform();
      if (u < 0.05) {
        p[i] = rng.uniform() < 0.5 ? 0.0f : -0.0f;
      } else if (r % 2 == 1 && u < 0.06) {
        p[i] = specials[rng.uniformInt(4)];
      }
    }
  }
  return images;
}

TEST(KernelParity, ConvReluPoolMatchesEagerChainEveryTier) {
  for (const Tier tier : supportedTiers()) {
    SCOPED_TRACE(tierName(tier));
    TierGuard guard(tier);
    NoGradGuard noGrad;
    Rng rng(77);
    for (const StackGeometry& g : stackGeometries()) {
      const BuiltStack built = buildStack(g, rng);
      for (const std::int64_t batch : {1, 8, 37, 428}) {
        SCOPED_TRACE(testing::Message() << g.name << " batch " << batch);
        const Tensor images = stackImages(g, batch, rng);
        Tensor h = images;
        for (std::size_t i = 0; i < built.stages.size(); ++i) {
          h = relu(conv2d(h, built.weights[i], built.biases[i],
                          g.stages[i].stride, g.stages[i].pad));
        }
        const Tensor eager = globalAvgPool(h);
        // Two calls over a split row range: the kernel must index rows
        // from the batch start, not from rowBegin.
        Tensor fused = Tensor::full(eager.shape(), -7.0f);
        const std::int64_t split = batch / 3;
        table(tier).convReluPoolRows(
            images.data(), built.stages.data(),
            static_cast<int>(built.stages.size()), fused.data(), 0, split);
        table(tier).convReluPoolRows(
            images.data(), built.stages.data(),
            static_cast<int>(built.stages.size()), fused.data(), split,
            batch);
        expectSameBits(eager, fused, "stack");
        // Each stage's weights packed once, as a compiled program passes
        // them (the scalar tier reads them as they lie).
        std::vector<ConvStage> stages = built.stages;
        std::vector<std::vector<float>> packs;
        packs.reserve(stages.size());
        for (ConvStage& st : stages) {
          const std::int64_t size = table(tier).convPackSize(st);
          if (size == 0) continue;
          packs.emplace_back(static_cast<std::size_t>(size));
          table(tier).convPack(st, packs.back().data());
          st.packed = packs.back().data();
        }
        Tensor prepacked = Tensor::full(eager.shape(), -7.0f);
        table(tier).convReluPoolRows(images.data(), stages.data(),
                                     static_cast<int>(stages.size()),
                                     prepacked.data(), 0, batch);
        expectSameBits(eager, prepacked, "prepacked stack");
      }
    }
  }
}

}  // namespace
}  // namespace dagt::tensor::kernels
