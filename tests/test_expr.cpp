// Expression-compiler suite: proves the fusion layer honors the parity
// contract documented in src/tensor/expr.hpp.
//
//   * Every fusion pattern (elementwise chains, GEMM epilogues, row-dot
//     reductions) replays bitwise identical to the eager op chain at the
//     scalar and avx2 tiers, and within a tight relative tolerance at
//     avx2fma (where only the GEMM rounding contract differs).
//   * Fusion actually fires: compiled programs carry the composite node the
//     pattern lowers to, and fewer live nodes than the eager tape.
//   * Training is untouched: with gradients enabled nothing records, and a
//     finite-difference gradcheck passes with fusion globally enabled.
//   * ProgramCache keys on the shape/weight signature and invalidates when
//     either changes; a row-local program serves every row count, one that
//     bakes its row count in keys by shape, and a full cache evicts its
//     least recently used entry.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "tensor/expr.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace dagt::tensor {
namespace {

using kernels::Tier;

std::vector<Tier> supportedTiers() {
  std::vector<Tier> tiers;
  for (int t = 0; t < kernels::kTierCount; ++t) {
    const Tier tier = static_cast<Tier>(t);
    if (kernels::tierSupported(tier)) tiers.push_back(tier);
  }
  return tiers;
}

class TierGuard {
 public:
  explicit TierGuard(Tier tier) { kernels::forceTier(tier); }
  ~TierGuard() { kernels::resetTier(); }
};

/// Restore the global fusion switch on scope exit (tests flip it).
class FusionGuard {
 public:
  FusionGuard() : saved_(expr::fusionEnabled()) {}
  ~FusionGuard() { expr::setFusionEnabled(saved_); }

 private:
  bool saved_;
};

/// A pattern body: maps (lazy or real) inputs to outputs using tensor ops.
using BodyFn =
    std::function<std::vector<Tensor>(const std::vector<Tensor>&)>;

std::shared_ptr<const expr::FusedProgram> compileBody(
    const BodyFn& body, const std::vector<Tensor>& inputs) {
  NoGradGuard noGrad;
  expr::Capture cap;
  std::vector<Tensor> lazy;
  lazy.reserve(inputs.size());
  for (const Tensor& t : inputs) lazy.push_back(cap.input(t));
  const std::vector<Tensor> outs = body(lazy);
  std::vector<const Tensor*> ptrs;
  ptrs.reserve(outs.size());
  for (const Tensor& o : outs) ptrs.push_back(&o);
  return cap.compile(ptrs);
}

void expectBitwise(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  EXPECT_EQ(
      std::memcmp(a.data(), b.data(),
                  static_cast<std::size_t>(a.numel()) * sizeof(float)),
      0)
      << what;
}

void expectClose(const Tensor& a, const Tensor& b, const char* what,
                 float relTol = 2e-5f) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    const float x = a.data()[i];
    const float y = b.data()[i];
    const float scale = std::max({1.0f, std::abs(x), std::abs(y)});
    EXPECT_NEAR(x, y, relTol * scale) << what << " element " << i;
  }
}

/// Compile `body` once per tier, replay it, and compare against the eager
/// run at the same tier. `exactAtFma` is true for elementwise-only bodies
/// (fusedEwRows is bitwise in every tier); GEMM-bearing bodies compare
/// within tolerance at avx2fma, bitwise elsewhere.
void checkParity(const BodyFn& body, const std::vector<Tensor>& inputs,
                 bool exactAtFma,
                 const std::function<void(const expr::FusedProgram&)>&
                     inspect = nullptr) {
  for (const Tier tier : supportedTiers()) {
    SCOPED_TRACE(kernels::tierName(tier));
    TierGuard guard(tier);
    const auto program = compileBody(body, inputs);
    if (inspect) inspect(*program);
    NoGradGuard noGrad;
    const std::vector<Tensor> eager = body(inputs);
    const std::vector<Tensor> fused = program->run(inputs);
    ASSERT_EQ(eager.size(), fused.size());
    const bool exact = exactAtFma || tier != Tier::kAvx2Fma;
    for (std::size_t i = 0; i < eager.size(); ++i) {
      if (exact) {
        expectBitwise(eager[i], fused[i], "output");
      } else {
        expectClose(eager[i], fused[i], "output");
      }
    }
  }
}

TEST(ExprGating, ShouldFuseRequiresInferenceAndEnable) {
  FusionGuard restore;
  expr::setFusionEnabled(true);
  EXPECT_FALSE(expr::shouldFuse()) << "gradients are on by default";
  {
    NoGradGuard noGrad;
    EXPECT_TRUE(expr::shouldFuse());
    expr::setFusionEnabled(false);
    EXPECT_FALSE(expr::shouldFuse()) << "DAGT_FUSION=0 must win";
    expr::setFusionEnabled(true);
    // A module compiled inside another module's capture must record into
    // the outer graph instead of nesting a program.
    expr::Capture cap;
    EXPECT_FALSE(expr::shouldFuse()) << "no nesting under an active capture";
  }
}

TEST(ExprParity, ElementwiseChainsBitwiseEveryTier) {
  Rng rng(11);
  const Tensor x = Tensor::randn({13, 37}, rng);
  const Tensor y = Tensor::randn({13, 37}, rng);

  const auto fusedEwFired = [](const expr::FusedProgram& p) {
    EXPECT_GE(p.countKind(expr::OpKind::kFusedEw), 1);
  };

  // Scalar/unary chain (all-kFull operands: exercises the flattened
  // one-row replay path).
  checkParity(
      [](const std::vector<Tensor>& in) {
        return std::vector<Tensor>{
            relu(addScalar(mulScalar(in[0], 1.7f), -0.25f))};
      },
      {x}, /*exactAtFma=*/true, fusedEwFired);

  // Binary + transcendental chains.
  checkParity(
      [](const std::vector<Tensor>& in) {
        return std::vector<Tensor>{sigmoid(add(in[0], in[1])),
                                   tanhOp(mul(in[0], in[1]))};
      },
      {x, y}, true, fusedEwFired);

  // Non-commutative ops with the chain on the right (rsub/rdiv steps).
  checkParity(
      [](const std::vector<Tensor>& in) {
        const Tensor chain = expOp(mulScalar(in[0], 0.5f));
        return std::vector<Tensor>{sub(in[1], chain),
                                   div(in[1], softplus(in[0]))};
      },
      {x, y}, true, fusedEwFired);

  // Same tensor on both sides (x + x, then square / powInt / log / sqrt).
  checkParity(
      [](const std::vector<Tensor>& in) {
        const Tensor doubled = add(in[0], in[0]);
        return std::vector<Tensor>{logOp(addScalar(square(doubled), 1.0f)),
                                   sqrtOp(addScalar(powInt(in[0], 3), 9.0f))};
      },
      {x}, true, fusedEwFired);
}

TEST(ExprParity, BroadcastChainsBitwiseEveryTier) {
  Rng rng(12);
  const Tensor x = Tensor::randn({9, 24}, rng);
  const Tensor y = Tensor::randn({9, 24}, rng);
  const Tensor row = Tensor::randn({24}, rng);
  const Tensor col = Tensor::randn({9}, rng);

  const auto fusedEwFired = [](const expr::FusedProgram& p) {
    EXPECT_GE(p.countKind(expr::OpKind::kFusedEw), 1);
  };

  // Row-vector broadcast inside a chain (kRowVec operand).
  checkParity(
      [&](const std::vector<Tensor>& in) {
        return std::vector<Tensor>{relu(addBias(mul(in[0], in[1]), in[2]))};
      },
      {x, y, row}, true, fusedEwFired);

  // Column-vector broadcasts (kColVec operands).
  checkParity(
      [&](const std::vector<Tensor>& in) {
        return std::vector<Tensor>{
            sigmoid(mulColVec(add(in[0], in[1]), in[2])),
            leakyRelu(addColVec(in[0], in[2]), 0.1f)};
      },
      {x, y, col}, true, fusedEwFired);

  // repeatRows feeding a chain folds into a row-vector operand.
  const Tensor row2d = reshape(row, {1, 24});
  checkParity(
      [&](const std::vector<Tensor>& in) {
        return std::vector<Tensor>{
            relu(add(repeatRows(in[1], in[0].dim(0)), in[0]))};
      },
      {x, row2d}, true, fusedEwFired);
}

TEST(ExprParity, GemmEpiloguePatterns) {
  Rng rng(13);
  const Tensor a = Tensor::randn({17, 29}, rng);
  const Tensor b = Tensor::randn({29, 21}, rng);
  const Tensor bias = Tensor::randn({21}, rng);

  const auto fusedGemmFired = [](const expr::FusedProgram& p) {
    EXPECT_EQ(p.countKind(expr::OpKind::kFusedGemm), 1);
    EXPECT_EQ(p.countKind(expr::OpKind::kMatmul), 0);
  };

  const std::vector<Tensor> inputs{a, b, bias};
  using Body = std::function<Tensor(const std::vector<Tensor>&)>;
  const std::vector<std::pair<const char*, Body>> patterns{
      {"bias", [](const std::vector<Tensor>& in) {
         return addBias(matmul(in[0], in[1]), in[2]);
       }},
      {"bias+relu", [](const std::vector<Tensor>& in) {
         return relu(addBias(matmul(in[0], in[1]), in[2]));
       }},
      {"bias+tanh", [](const std::vector<Tensor>& in) {
         return tanhOp(addBias(matmul(in[0], in[1]), in[2]));
       }},
      {"bias+sigmoid", [](const std::vector<Tensor>& in) {
         return sigmoid(addBias(matmul(in[0], in[1]), in[2]));
       }},
      {"bias+leaky", [](const std::vector<Tensor>& in) {
         return leakyRelu(addBias(matmul(in[0], in[1]), in[2]), 0.2f);
       }},
      {"relu-no-bias", [](const std::vector<Tensor>& in) {
         return relu(matmul(in[0], in[1]));
       }},
  };
  for (const auto& [name, pattern] : patterns) {
    SCOPED_TRACE(name);
    checkParity(
        [&pattern](const std::vector<Tensor>& in) {
          return std::vector<Tensor>{pattern(in)};
        },
        inputs, /*exactAtFma=*/false, fusedGemmFired);
  }
}

TEST(ExprParity, RowDotReduction) {
  Rng rng(14);
  const Tensor a = Tensor::randn({19, 33}, rng);
  const Tensor b = Tensor::randn({19, 33}, rng);

  const auto rowDotFired = [](const expr::FusedProgram& p) {
    EXPECT_GE(p.countKind(expr::OpKind::kRowDot), 1);
    EXPECT_EQ(p.countKind(expr::OpKind::kSumDim1), 0);
  };

  checkParity(
      [](const std::vector<Tensor>& in) {
        return std::vector<Tensor>{sumDim1(mul(in[0], in[1])),
                                   sumDim1(mul(in[0], in[0]))};
      },
      {a, b}, /*exactAtFma=*/false, rowDotFired);
}

TEST(ExprParity, MultiOutputProgramSharesIntermediates) {
  Rng rng(15);
  const Tensor x = Tensor::randn({8, 16}, rng);
  const Tensor w = Tensor::randn({16, 16}, rng);
  const Tensor bias = Tensor::randn({16}, rng);
  checkParity(
      [](const std::vector<Tensor>& in) {
        const Tensor h = addBias(matmul(in[0], in[1]), in[2]);
        return std::vector<Tensor>{relu(h), tanhOp(h), h};
      },
      {x, w, bias}, /*exactAtFma=*/false,
      [](const expr::FusedProgram& p) { EXPECT_EQ(p.numOutputs(), 3); });
}

TEST(ExprParity, OutputsAreNeverFoldedIntoTheirConsumer) {
  // A capture that returns a value and also a consumer of it: no pass may
  // fold the returned value into that consumer (its replay would read an
  // input list the pass cleared), so the consumer keeps its own node and
  // every output replays equal to the eager ops.
  Rng rng(18);
  const Tensor x = Tensor::randn({9, 13}, rng);
  const Tensor w = Tensor::randn({13, 11}, rng);
  const Tensor bias = Tensor::randn({11}, rng);
  const Tensor y = Tensor::randn({9, 13}, rng);
  const Tensor img = Tensor::randn({3, 2, 8, 8}, rng);
  const Tensor kernel = Tensor::randn({4, 2, 3, 3}, rng);
  const Tensor kernelBias = Tensor::randn({4}, rng);
  const std::vector<Tensor> inputs{x, w, bias, y, img, kernel, kernelBias};
  using Body = std::function<std::vector<Tensor>(const std::vector<Tensor>&)>;
  struct Pattern {
    const char* name;
    Body body;
    expr::OpKind keptKind;  // the consumer's kind, a node of its own
    int kept;               // live nodes of that kind
  };
  const std::vector<Pattern> patterns{
      {"matmul and its addBias",
       [](const std::vector<Tensor>& in) {
         const Tensor h = matmul(in[0], in[1]);
         return std::vector<Tensor>{h, addBias(h, in[2])};
       },
       expr::OpKind::kAddBias, 1},
      {"matmul and its relu",
       [](const std::vector<Tensor>& in) {
         const Tensor h = matmul(in[0], in[1]);
         return std::vector<Tensor>{relu(h), h};
       },
       expr::OpKind::kRelu, 1},
      {"elementwise link after a dead intermediate",
       [](const std::vector<Tensor>& in) {
         const Tensor a = add(relu(in[0]), in[3]);
         return std::vector<Tensor>{a, tanhOp(mulScalar(a, 0.5f))};
       },
       expr::OpKind::kFusedEw, 2},
      {"row-dot product",
       [](const std::vector<Tensor>& in) {
         const Tensor m = mul(in[0], in[3]);
         return std::vector<Tensor>{sumDim1(m), m};
       },
       expr::OpKind::kSumDim1, 1},
      {"conv stack relu",
       [](const std::vector<Tensor>& in) {
         const Tensor h = relu(conv2d(in[4], in[5], in[6], 2, 1));
         return std::vector<Tensor>{globalAvgPool(h), h};
       },
       expr::OpKind::kGlobalAvgPool, 1},
      {"conv stack conv",
       [](const std::vector<Tensor>& in) {
         const Tensor c = conv2d(in[4], in[5], in[6], 1, 0);
         return std::vector<Tensor>{c, globalAvgPool(relu(c))};
       },
       expr::OpKind::kGlobalAvgPool, 1},
  };
  for (const Pattern& pattern : patterns) {
    SCOPED_TRACE(pattern.name);
    checkParity(pattern.body, inputs, /*exactAtFma=*/false,
                [&](const expr::FusedProgram& p) {
                  EXPECT_EQ(p.numOutputs(), 2);
                  EXPECT_EQ(p.countKind(pattern.keptKind), pattern.kept);
                  EXPECT_EQ(p.countKind(expr::OpKind::kConvReluPool), 0);
                });
  }
}

TEST(ExprParity, ConvStackLowersToOneRowLocalNode) {
  // conv2d -> relu -> conv2d -> relu -> globalAvgPool -> a Linear becomes
  // one kConvReluPool node and a fused GEMM, replays at any row count from
  // one compile, and is bitwise equal to the eager chain in every tier.
  Rng rng(19);
  const Tensor w1 = Tensor::randn({6, 3, 3, 3}, rng, 0.5f);
  const Tensor b1 = Tensor::randn({6}, rng, 0.2f);
  const Tensor w2 = Tensor::randn({10, 6, 3, 3}, rng, 0.5f);
  const Tensor b2 = Tensor::randn({10}, rng, 0.2f);
  const Tensor project = Tensor::randn({10, 4}, rng);
  const auto stack = [&](const Tensor& images) {
    const Tensor h = relu(conv2d(images, w1, b1, 2, 1));
    return globalAvgPool(relu(conv2d(h, w2, b2, 1, 1)));
  };
  for (const Tier tier : supportedTiers()) {
    SCOPED_TRACE(kernels::tierName(tier));
    TierGuard guard(tier);
    NoGradGuard noGrad;
    std::shared_ptr<const expr::FusedProgram> program;
    {
      expr::Capture cap;
      const Tensor out =
          matmul(stack(cap.input(Tensor::zeros({2, 3, 12, 10}))), project);
      program = cap.compile({&out});
    }
    EXPECT_TRUE(program->rowPolymorphic());
    EXPECT_EQ(program->countKind(expr::OpKind::kConvReluPool), 1);
    EXPECT_EQ(program->countKind(expr::OpKind::kConv2d), 0);
    EXPECT_EQ(program->countKind(expr::OpKind::kRelu), 0);
    EXPECT_EQ(program->liveNodeCount(), 2);
    for (const std::int64_t rows : {1, 2, 37}) {
      const Tensor images = Tensor::randn({rows, 3, 12, 10}, rng);
      expectBitwise(matmul(stack(images), project), program->runOne({images}),
                    "conv stack");
    }
  }
}

TEST(ExprReplay, RepeatedRunsAreBitwiseStable) {
  Rng rng(16);
  const Tensor x = Tensor::randn({6, 48}, rng);
  const Tensor w = Tensor::randn({48, 32}, rng);
  const Tensor bias = Tensor::randn({32}, rng);
  const BodyFn body = [](const std::vector<Tensor>& in) {
    return std::vector<Tensor>{
        sigmoid(addBias(matmul(in[0], in[1]), in[2]))};
  };
  const auto program = compileBody(body, {x, w, bias});
  NoGradGuard noGrad;
  expr::resetStats();
  const Tensor first = program->runOne({x, w, bias});
  const Tensor second = program->runOne({x, w, bias});
  expectBitwise(first, second, "replay determinism");
  const expr::FusionStats s = expr::stats();
  EXPECT_EQ(s.programReplays, 2u);
  EXPECT_GE(s.fusedGemmLaunches, 2u);
}

TEST(ExprStats, CompileAndLaunchCountersAdvance) {
  Rng rng(17);
  const Tensor x = Tensor::randn({5, 40}, rng);
  expr::resetStats();
  const auto program = compileBody(
      [](const std::vector<Tensor>& in) {
        return std::vector<Tensor>{relu(addScalar(in[0], 0.5f))};
      },
      {x});
  NoGradGuard noGrad;
  (void)program->runOne({x});
  const expr::FusionStats s = expr::stats();
  EXPECT_GE(s.programsCompiled, 1u);
  EXPECT_EQ(s.programReplays, 1u);
  EXPECT_GE(s.fusedEwLaunches, 1u);
}

TEST(ExprTraining, GradModeNeverCapturesAndGradcheckPasses) {
  FusionGuard restore;
  expr::setFusionEnabled(true);
  Rng rng(18);
  Tensor x = Tensor::randn({4, 6}, rng, /*stddev=*/1.0f,
                           /*requiresGrad=*/true);
  const Tensor w = Tensor::randn({6, 5}, rng);
  const Tensor bias = Tensor::randn({5}, rng);

  const auto lossFn = [&] {
    return sumAll(relu(addBias(matmul(x, w), bias)));
  };

  expr::resetStats();
  // Forward + backward with gradients on: the tape path, not the compiler.
  x.zeroGrad();
  Tensor loss = lossFn();
  loss.backward();
  ASSERT_TRUE(x.grad().defined());
  const expr::FusionStats s = expr::stats();
  EXPECT_EQ(s.programsCompiled, 0u) << "training must not compile programs";
  EXPECT_EQ(s.programReplays, 0u);

  // Finite-difference check against the analytic gradient.
  const Tensor analytic = x.grad();
  float* p = x.data();
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const float saved = p[i];
    const float eps = 1e-3f;
    p[i] = saved + eps;
    const float up = lossFn().item();
    p[i] = saved - eps;
    const float down = lossFn().item();
    p[i] = saved;
    const float numeric = (up - down) / (2.0f * eps);
    const float got = analytic.data()[i];
    const float scale = std::max({1.0f, std::abs(numeric), std::abs(got)});
    EXPECT_NEAR(got, numeric, 2e-2f * scale) << "element " << i;
  }
}

TEST(ExprCache, MissCompilesOnceThenHits) {
  Rng rng(19);
  const Tensor x = Tensor::randn({3, 10}, rng);
  expr::ProgramCache cache;
  int builds = 0;
  const auto build = [&] {
    ++builds;
    return compileBody(
        [](const std::vector<Tensor>& in) {
          return std::vector<Tensor>{relu(in[0])};
        },
        {x});
  };
  const auto p1 = cache.getOrCompile(42, x.dim(0), build);
  const auto p2 = cache.getOrCompile(42, x.dim(0), build);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(p1.get(), p2.get());
  (void)cache.getOrCompile(43, x.dim(0), build);
  EXPECT_EQ(builds, 2);
  EXPECT_EQ(cache.size(), 2u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  (void)cache.getOrCompile(42, x.dim(0), build);
  EXPECT_EQ(builds, 3);
}

TEST(ExprCache, SignatureChangesWithShapeAndWeightRebind) {
  Rng rng(20);
  const Tensor w1 = Tensor::randn({4, 4}, rng);
  const Tensor w2 = Tensor::randn({4, 4}, rng);

  const auto sigFor = [](const Shape& inShape, const Tensor& weight) {
    expr::SigHash sig;
    sig.mixShape(inShape);
    sig.mixTensor(weight);
    return sig.h;
  };

  // A new input shape is a new program.
  EXPECT_NE(sigFor({2, 4}, w1), sigFor({3, 4}, w1));
  // Rebinding the weight storage (same shape, different buffer) is a new
  // program: the compiled kConst nodes alias the old storage.
  EXPECT_NE(sigFor({2, 4}, w1), sigFor({2, 4}, w2));
  // Same shape + same storage is a hit.
  EXPECT_EQ(sigFor({2, 4}, w1), sigFor({2, 4}, w1));
}

TEST(ExprCache, OneProgramServesEveryRowCount) {
  // A row-local body (weights captured as constants, one [rows, 12] input)
  // compiles once and replays at every row count bitwise equal to the eager
  // body, GEMM tolerance aside at avx2fma.
  Rng rng(21);
  const Tensor w = Tensor::randn({12, 7}, rng);
  const Tensor bias = Tensor::randn({7}, rng);
  const Tensor shift = Tensor::randn({7}, rng);
  const auto body = [&](const Tensor& x) {
    const Tensor h = relu(addBias(matmul(x, w), bias));
    return addBias(mulColVec(h, sumDim1(mul(h, h))), shift);
  };
  expr::ProgramCache cache;
  NoGradGuard noGrad;
  int builds = 0;
  for (std::int64_t rows = 1; rows <= 64; ++rows) {
    const Tensor x = Tensor::randn({rows, 12}, rng);
    expr::SigHash sig;
    sig.mixTrailingDims(x.shape());
    sig.mixTensor(w);
    const auto program = cache.getOrCompile(sig.h, rows, [&] {
      ++builds;
      expr::Capture cap;
      const Tensor y = body(cap.input(x));
      return cap.compile({&y});
    });
    EXPECT_TRUE(program->rowPolymorphic());
    const Tensor fused = program->runOne({x});
    const Tensor eager = body(x);
    if (kernels::activeTier() != Tier::kAvx2Fma) {
      expectBitwise(eager, fused, "row-polymorphic replay");
    } else {
      expectClose(eager, fused, "row-polymorphic replay");
    }
  }
  EXPECT_EQ(builds, 1) << "one program for row counts 1-64";
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ExprCache, ProgramsThatBakeTheirRowCountKeyByShape) {
  // repeatRows, a reshape to {rows} and a [rows] constant each tie a program
  // to its capture's row count: it keys by shape and each row count compiles
  // its own program, still replaying bitwise equal to the eager body.
  Rng rng(22);
  const Tensor w = Tensor::randn({12, 7}, rng);
  const Tensor wCol = Tensor::randn({12, 1}, rng);
  const Tensor row = Tensor::randn({1, 7}, rng);
  const std::vector<std::function<Tensor(const Tensor&)>> bodies = {
      [&](const Tensor& x) {
        return add(repeatRows(row, x.dim(0)), matmul(x, w));
      },
      [&](const Tensor& x) {
        return relu(reshape(matmul(x, wCol), {x.dim(0)}));
      },
      [&](const Tensor& x) {
        return mulColVec(matmul(x, w), Tensor::ones({x.dim(0)}));
      },
  };
  NoGradGuard noGrad;
  for (std::size_t b = 0; b < bodies.size(); ++b) {
    SCOPED_TRACE(testing::Message() << "body " << b);
    expr::ProgramCache cache;
    int builds = 0;
    for (const std::int64_t rows : {2, 5, 2}) {
      const Tensor x = Tensor::randn({rows, 12}, rng);
      expr::SigHash sig;
      sig.mixTrailingDims(x.shape());
      const auto program = cache.getOrCompile(sig.h, rows, [&] {
        ++builds;
        expr::Capture cap;
        const Tensor y = bodies[b](cap.input(x));
        return cap.compile({&y});
      });
      EXPECT_FALSE(program->rowPolymorphic());
      const Tensor fused = program->runOne({x});
      const Tensor eager = bodies[b](x);
      if (kernels::activeTier() != Tier::kAvx2Fma) {
        expectBitwise(eager, fused, "exact-shape replay");
      } else {
        expectClose(eager, fused, "exact-shape replay");
      }
    }
    EXPECT_EQ(builds, 2) << "two row counts -> two programs";
    EXPECT_EQ(cache.size(), 2u);
  }
}

TEST(ExprCache, FullCacheEvictsTheLeastRecentlyUsedEntry) {
  Rng rng(23);
  const Tensor x = Tensor::randn({3, 10}, rng);
  expr::ProgramCache cache;
  int builds = 0;
  const auto build = [&] {
    ++builds;
    return compileBody(
        [](const std::vector<Tensor>& in) {
          return std::vector<Tensor>{relu(in[0])};
        },
        {x});
  };
  constexpr auto kCapacity =
      static_cast<std::uint64_t>(expr::ProgramCache::kMaxEntries);
  // Signatures as callers make them: a raw small key can equal another
  // key mixed with the row count (3 mixed with 3 rows is 0).
  const auto sig = [](std::uint64_t key) {
    expr::SigHash h;
    h.mix(key);
    return h.h;
  };
  for (std::uint64_t key = 0; key < kCapacity; ++key) {
    (void)cache.getOrCompile(sig(key), x.dim(0), build);
  }
  ASSERT_EQ(builds, static_cast<int>(kCapacity));
  // Key 0 becomes the most recently used, leaving key 1 the least.
  (void)cache.getOrCompile(sig(0), x.dim(0), build);
  // One past capacity.
  (void)cache.getOrCompile(sig(kCapacity), x.dim(0), build);
  EXPECT_EQ(builds, static_cast<int>(kCapacity) + 1);
  EXPECT_EQ(cache.size(), expr::ProgramCache::kMaxEntries);
  // Every entry used more recently than key 1 survived the overflow.
  for (std::uint64_t key = 0; key <= kCapacity; ++key) {
    if (key != 1) (void)cache.getOrCompile(sig(key), x.dim(0), build);
  }
  EXPECT_EQ(builds, static_cast<int>(kCapacity) + 1);
  // Key 1 itself was the one evicted.
  (void)cache.getOrCompile(sig(1), x.dim(0), build);
  EXPECT_EQ(builds, static_cast<int>(kCapacity) + 2);
}

}  // namespace
}  // namespace dagt::tensor
