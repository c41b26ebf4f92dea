#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "tensor/ops.hpp"
#include "tensor/storage.hpp"
#include "tensor/tensor.hpp"

namespace dagt::tensor {
namespace {

/// Numeric gradient check: compares autograd dLoss/dInput against central
/// finite differences for every element of `input`.
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

Rng testRng(std::uint64_t seed = 42) { return Rng(seed); }

TEST(Tensor, ConstructorsAndShape) {
  Tensor z = Tensor::zeros({2, 3});
  EXPECT_EQ(z.numel(), 6);
  EXPECT_EQ(z.dim(0), 2);
  EXPECT_EQ(z.dim(-1), 3);
  EXPECT_EQ(z.ndim(), 2);
  for (std::int64_t i = 0; i < 6; ++i) EXPECT_EQ(z.data()[i], 0.0f);

  Tensor f = Tensor::full({4}, 2.5f);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_EQ(f.data()[i], 2.5f);

  Tensor v = Tensor::fromVector({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(v.at(1, 0), 3.0f);
  EXPECT_EQ(v.at(1, 1), 4.0f);

  Tensor s = Tensor::scalar(7.0f);
  EXPECT_EQ(s.item(), 7.0f);
}

TEST(Tensor, FromVectorRejectsWrongCount) {
  EXPECT_THROW((Tensor::fromVector({2, 2}, {1, 2, 3})), CheckError);
}

TEST(Tensor, RandnIsSeedDeterministic) {
  Rng a(7), b(7);
  Tensor ta = Tensor::randn({16}, a);
  Tensor tb = Tensor::randn({16}, b);
  for (std::int64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(ta.data()[i], tb.data()[i]);
  }
}

TEST(Tensor, DetachBreaksGraph) {
  Tensor a = Tensor::ones({2}, /*requiresGrad=*/true);
  Tensor b = mulScalar(a, 3.0f).detach();
  EXPECT_FALSE(b.requiresGrad());
  Tensor c = sumAll(mul(b, b));
  EXPECT_FALSE(c.requiresGrad());
}

TEST(Tensor, BackwardRequiresScalar) {
  Tensor a = Tensor::ones({3}, true);
  Tensor b = mulScalar(a, 2.0f);
  EXPECT_THROW(b.backward(), CheckError);
}

TEST(Ops, AddSubMulDivForward) {
  Tensor a = Tensor::fromVector({4}, {1, 2, 3, 4});
  Tensor b = Tensor::fromVector({4}, {4, 3, 2, 1});
  EXPECT_EQ(add(a, b).data()[0], 5.0f);
  EXPECT_EQ(sub(a, b).data()[3], 3.0f);
  EXPECT_EQ(mul(a, b).data()[1], 6.0f);
  EXPECT_FLOAT_EQ(div(a, b).data()[2], 1.5f);
}

TEST(Ops, ShapeMismatchThrows) {
  Tensor a = Tensor::zeros({2, 3});
  Tensor b = Tensor::zeros({3, 2});
  EXPECT_THROW((add(a, b)), CheckError);
  EXPECT_THROW((matmul(a, a)), CheckError);
}

TEST(Ops, GradAddMulChain) {
  Rng rng = testRng();
  Tensor x = Tensor::randn({3, 4}, rng, 1.0f, true);
  Tensor y = Tensor::randn({3, 4}, rng, 1.0f, false);
  gradCheck(x, [&] { return sumAll(mul(add(x, y), sub(x, y))); });
}

TEST(Ops, GradDiv) {
  Rng rng = testRng();
  Tensor x = Tensor::randn({6}, rng, 1.0f, true);
  Tensor y = addScalar(Tensor::randn({6}, rng, 0.2f), 2.0f);
  gradCheck(x, [&] { return sumAll(div(x, y)); });
  gradCheck(x, [&] { return sumAll(div(y, addScalar(square(x), 1.0f))); });
}

TEST(Ops, GradUnaryFunctions) {
  Rng rng = testRng(3);
  Tensor x = Tensor::randn({8}, rng, 0.8f, true);
  gradCheck(x, [&] { return sumAll(tanhOp(x)); });
  gradCheck(x, [&] { return sumAll(sigmoid(x)); });
  gradCheck(x, [&] { return sumAll(expOp(x)); });
  gradCheck(x, [&] { return sumAll(softplus(x)); });
  gradCheck(x, [&] { return sumAll(square(x)); });
  gradCheck(x, [&] { return sumAll(logOp(addScalar(square(x), 1.0f))); });
}

TEST(Ops, GradReluAwayFromKink) {
  // Values chosen away from 0 so the finite difference is well-defined.
  Tensor x = Tensor::fromVector({4}, {-1.0f, -0.5f, 0.5f, 2.0f}, true);
  gradCheck(x, [&] { return sumAll(relu(x)); });
  gradCheck(x, [&] { return sumAll(leakyRelu(x, 0.1f)); });
}

TEST(Ops, GradPowInt) {
  Rng rng = testRng(5);
  Tensor x = Tensor::randn({5}, rng, 0.7f, true);
  gradCheck(x, [&] { return sumAll(powInt(x, 3)); });
  gradCheck(x, [&] { return sumAll(powInt(x, 5)); });
}

TEST(Ops, GradMatmulBothSides) {
  Rng rng = testRng(9);
  Tensor a = Tensor::randn({3, 5}, rng, 0.5f, true);
  Tensor b = Tensor::randn({5, 2}, rng, 0.5f, true);
  gradCheck(a, [&] { return sumAll(square(matmul(a, b))); });
  gradCheck(b, [&] { return sumAll(square(matmul(a, b))); });
}

TEST(Ops, MatmulForwardKnown) {
  Tensor a = Tensor::fromVector({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::fromVector({2, 2}, {5, 6, 7, 8});
  Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50.0f);
}

TEST(Ops, GradBroadcastHelpers) {
  Rng rng = testRng(11);
  Tensor m = Tensor::randn({4, 3}, rng, 1.0f, true);
  Tensor bias = Tensor::randn({3}, rng, 1.0f, true);
  Tensor col = Tensor::randn({4}, rng, 1.0f, true);
  gradCheck(m, [&] { return sumAll(square(addBias(m, bias))); });
  gradCheck(bias, [&] { return sumAll(square(addBias(m, bias))); });
  gradCheck(col, [&] { return sumAll(square(addColVec(m, col))); });
  Tensor row = Tensor::randn({1, 3}, rng, 1.0f, true);
  gradCheck(row, [&] { return sumAll(square(repeatRows(row, 5))); });
}

TEST(Ops, GradReductions) {
  Rng rng = testRng(13);
  Tensor x = Tensor::randn({3, 4}, rng, 1.0f, true);
  gradCheck(x, [&] { return sumAll(square(x)); });
  gradCheck(x, [&] { return meanAll(square(x)); });
  gradCheck(x, [&] { return sumAll(square(sumDim0(x))); });
  gradCheck(x, [&] { return sumAll(square(meanDim0(x))); });
  gradCheck(x, [&] { return sumAll(square(sumDim1(x))); });
  gradCheck(x, [&] { return sumAll(square(logSumExpDim1(x))); });
}

TEST(Ops, LogSumExpMatchesNaive) {
  Tensor x = Tensor::fromVector({2, 3}, {0, 1, 2, 100, 100, 100});
  Tensor lse = logSumExpDim1(x);
  const float expect0 =
      std::log(std::exp(0.0f) + std::exp(1.0f) + std::exp(2.0f));
  EXPECT_NEAR(lse.data()[0], expect0, 1e-5f);
  EXPECT_NEAR(lse.data()[1], 100.0f + std::log(3.0f), 1e-4f);
}

TEST(Ops, GradTranspose) {
  Rng rng = testRng(17);
  Tensor x = Tensor::randn({3, 5}, rng, 1.0f, true);
  gradCheck(x, [&] { return sumAll(square(transpose2d(x))); });
  Tensor t = transpose2d(x);
  EXPECT_EQ(t.dim(0), 5);
  EXPECT_EQ(t.dim(1), 3);
  EXPECT_EQ(t.at(4, 2), x.at(2, 4));
}

TEST(Ops, GradShapeOps) {
  Rng rng = testRng(19);
  Tensor a = Tensor::randn({2, 3}, rng, 1.0f, true);
  Tensor b = Tensor::randn({2, 3}, rng, 1.0f, true);
  gradCheck(a, [&] { return sumAll(square(concat0({a, b}))); });
  gradCheck(a, [&] { return sumAll(square(concat1({a, b}))); });
  gradCheck(b, [&] { return sumAll(square(concat1({a, b}))); });
  gradCheck(a, [&] { return sumAll(square(sliceCols(concat1({a, b}), 2, 5))); });
  gradCheck(a, [&] { return sumAll(square(sliceRows(a, 0, 1))); });
  gradCheck(a, [&] { return sumAll(square(reshape(a, {3, 2}))); });
}

TEST(Ops, ConcatForwardLayout) {
  Tensor a = Tensor::fromVector({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::fromVector({2, 1}, {9, 8});
  Tensor c = concat1({a, b});
  EXPECT_EQ(c.dim(1), 3);
  EXPECT_FLOAT_EQ(c.at(0, 2), 9.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 3.0f);
  Tensor d = concat0({a, a});
  EXPECT_EQ(d.dim(0), 4);
  EXPECT_FLOAT_EQ(d.at(3, 1), 4.0f);
}

TEST(Ops, GradIndexSelectWithDuplicates) {
  Rng rng = testRng(23);
  Tensor x = Tensor::randn({4, 3}, rng, 1.0f, true);
  const std::vector<std::int64_t> idx = {0, 2, 2, 3, 0};
  gradCheck(x, [&] { return sumAll(square(indexSelect0(x, idx))); });
}

TEST(Ops, IndexSelectOutOfRangeThrows) {
  Tensor x = Tensor::zeros({4, 3});
  const std::vector<std::int64_t> tooBig = {4};
  const std::vector<std::int64_t> negative = {-1};
  EXPECT_THROW((indexSelect0(x, tooBig)), CheckError);
  EXPECT_THROW((indexSelect0(x, negative)), CheckError);
}

TEST(Ops, GradGatherRowsMulti) {
  Rng rng = testRng(29);
  Tensor a = Tensor::randn({3, 4}, rng, 1.0f, true);
  Tensor b = Tensor::randn({2, 4}, rng, 1.0f, true);
  const std::vector<std::pair<std::int32_t, std::int64_t>> idx = {
      {0, 1}, {1, 0}, {0, 2}, {1, 1}, {0, 1}};
  gradCheck(a, [&] { return sumAll(square(gatherRowsMulti({a, b}, idx))); });
  gradCheck(b, [&] { return sumAll(square(gatherRowsMulti({a, b}, idx))); });
}

TEST(Ops, GradSegmentSum) {
  Rng rng = testRng(31);
  Tensor src = Tensor::randn({5, 3}, rng, 1.0f, true);
  const std::vector<std::int64_t> seg = {0, 1, 1, 2, 0};
  Tensor out = segmentSum(src, seg, 4);
  EXPECT_EQ(out.dim(0), 4);
  // Segment 3 is empty -> all zeros.
  for (std::int64_t c = 0; c < 3; ++c) EXPECT_EQ(out.at(3, c), 0.0f);
  gradCheck(src, [&] { return sumAll(square(segmentSum(src, seg, 4))); });
}

TEST(Ops, SegmentSumForwardKnown) {
  Tensor src = Tensor::fromVector({3, 2}, {1, 2, 10, 20, 100, 200});
  Tensor out = segmentSum(src, {1, 1, 0}, 2);
  EXPECT_FLOAT_EQ(out.at(0, 0), 100.0f);
  EXPECT_FLOAT_EQ(out.at(1, 1), 22.0f);
}

TEST(Ops, GradSegmentMax) {
  // Distinct values so the argmax is stable under the finite-difference eps.
  Tensor src = Tensor::fromVector(
      {5, 2}, {1.0f, -2.0f, 3.0f, 0.5f, -1.0f, 4.0f, 2.0f, 2.5f, 0.0f, 1.0f},
      true);
  const std::vector<std::int64_t> seg = {0, 0, 1, 1, 1};
  Tensor out = segmentMax(src, seg, 3);
  EXPECT_FLOAT_EQ(out.at(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(out.at(0, 1), 0.5f);
  EXPECT_FLOAT_EQ(out.at(1, 1), 4.0f);
  // Empty segment clamps to zero.
  EXPECT_FLOAT_EQ(out.at(2, 0), 0.0f);
  gradCheck(src, [&] { return sumAll(square(segmentMax(src, seg, 3))); });
}

TEST(Ops, GradConv2d) {
  Rng rng = testRng(37);
  Tensor x = Tensor::randn({2, 2, 5, 5}, rng, 0.7f, true);
  Tensor w = Tensor::randn({3, 2, 3, 3}, rng, 0.4f, true);
  Tensor b = Tensor::randn({3}, rng, 0.4f, true);
  auto loss = [&] { return sumAll(square(conv2d(x, w, b, 2, 1))); };
  gradCheck(x, loss);
  gradCheck(w, loss);
  gradCheck(b, loss);
}

TEST(Ops, Conv2dShapes) {
  Tensor x = Tensor::zeros({1, 3, 32, 32});
  Tensor w = Tensor::zeros({8, 3, 3, 3});
  Tensor out = conv2d(x, w, Tensor(), 2, 1);
  EXPECT_EQ(out.shape(), (Shape{1, 8, 16, 16}));
  Tensor out2 = conv2d(x, w, Tensor(), 1, 1);
  EXPECT_EQ(out2.shape(), (Shape{1, 8, 32, 32}));
}

TEST(Ops, Conv2dIdentityKernel) {
  // 1x1 kernel with weight 1 reproduces the input channel.
  Tensor x = Tensor::fromVector({1, 1, 2, 2}, {1, 2, 3, 4});
  Tensor w = Tensor::ones({1, 1, 1, 1});
  Tensor out = conv2d(x, w, Tensor(), 1, 0);
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(out.data()[i], x.data()[i]);
  }
}

TEST(Ops, GradMaxPoolAndGlobalAvg) {
  Rng rng = testRng(41);
  Tensor x = Tensor::randn({2, 3, 4, 4}, rng, 1.0f, true);
  gradCheck(x, [&] { return sumAll(square(maxPool2d(x))); });
  gradCheck(x, [&] { return sumAll(square(globalAvgPool(x))); });
  EXPECT_EQ(maxPool2d(x).shape(), (Shape{2, 3, 2, 2}));
  EXPECT_EQ(globalAvgPool(x).shape(), (Shape{2, 3}));
}

// ---------------------------------------------------------------------------
// Zero-copy views: aliasing semantics and gradient scatter
// ---------------------------------------------------------------------------

TEST(Views, ReshapeSliceDetachShareStorage) {
  Tensor a = Tensor::fromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = reshape(a, {3, 2});
  EXPECT_TRUE(r.sharesStorageWith(a));
  EXPECT_EQ(r.data(), a.data());  // whole-buffer view: same pointer
  a.data()[0] = 42.0f;            // writes through the base...
  EXPECT_FLOAT_EQ(r.data()[0], 42.0f);  // ...are visible in the view
  r.data()[5] = -1.0f;            // and vice versa
  EXPECT_FLOAT_EQ(a.at(1, 2), -1.0f);

  Tensor s = sliceRows(a, 1, 2);  // contiguous row run at offset 3
  EXPECT_TRUE(s.sharesStorageWith(a));
  EXPECT_EQ(s.data(), a.data() + 3);
  EXPECT_FLOAT_EQ(s.at(0, 2), -1.0f);

  Tensor f = flattenView(s);
  EXPECT_TRUE(f.sharesStorageWith(a));
  EXPECT_EQ(f.data(), s.data());
  EXPECT_EQ(f.numel(), 3);

  Tensor d = a.detach();          // O(1) alias without the tape
  EXPECT_TRUE(d.sharesStorageWith(a));
  EXPECT_FALSE(d.requiresGrad());

  Tensor c = a.clone();           // the deep copy lives here now
  EXPECT_FALSE(c.sharesStorageWith(a));
  c.data()[0] = 7.0f;
  EXPECT_FLOAT_EQ(a.data()[0], 42.0f);
}

TEST(Views, SliceGradScattersAtOffset) {
  Tensor x = Tensor::fromVector({4}, {1, 2, 3, 4}, /*requiresGrad=*/true);
  Tensor head = sliceRows(x, 0, 2);
  Tensor tail = sliceRows(x, 2, 4);
  Tensor loss = sumAll(add(mulScalar(head, 2.0f), mulScalar(tail, 3.0f)));
  loss.backward();
  const Tensor g = x.grad();
  EXPECT_FLOAT_EQ(g.data()[0], 2.0f);
  EXPECT_FLOAT_EQ(g.data()[1], 2.0f);
  EXPECT_FLOAT_EQ(g.data()[2], 3.0f);
  EXPECT_FLOAT_EQ(g.data()[3], 3.0f);
}

TEST(Views, ReshapeGradMatchesBaseLayout) {
  Tensor x = Tensor::fromVector({2, 2}, {1, 1, 1, 1}, /*requiresGrad=*/true);
  Tensor r = flattenView(x);
  Tensor weights = Tensor::fromVector({4}, {1, 2, 3, 4});
  Tensor loss = sumAll(mul(r, weights));
  loss.backward();
  const Tensor g = x.grad();
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(g.data()[i], static_cast<float>(i + 1));
  }
}

TEST(Views, GradCheckThroughViewChain) {
  // reshape -> sliceRows -> flattenView, all O(1) aliases of x's buffer:
  // backward must scatter level-by-level back into x's (dense) grad.
  Rng rng = testRng(29);
  Tensor x = Tensor::randn({4, 6}, rng, 1.0f, true);
  gradCheck(x, [&] {
    Tensor r = reshape(x, {6, 4});
    Tensor s = sliceRows(r, 1, 5);
    Tensor f = flattenView(s);
    return sumAll(square(f));
  });
}

TEST(Views, ViewsAreConstantTime) {
  // A view of a large tensor must not touch the payload: its data pointer
  // is the base's (plus offset), not a fresh buffer.
  Tensor big = Tensor::zeros({1 << 12, 64});
  Tensor r = reshape(big, {1 << 13, 32});
  Tensor s = sliceRows(big, 100, 200);
  Tensor f = flattenView(big);
  EXPECT_EQ(r.data(), big.data());
  EXPECT_EQ(s.data(), big.data() + 100 * 64);
  EXPECT_EQ(f.data(), big.data());
}

// ---------------------------------------------------------------------------
// Buffer pool and workspace recycling
// ---------------------------------------------------------------------------

TEST(Pool, WorkspaceCachesAndDrainsToGlobalPool) {
  BufferPool::global().trim();
  BufferPool::global().resetStats();
  {
    Workspace ws;
    { Storage s = Storage::allocate(100); (void)s; }  // heap alloc, parked
    EXPECT_EQ(ws.cachedBuffers(), 1u);
    { Storage s = Storage::allocate(100); (void)s; }  // same bucket: cached
    EXPECT_EQ(BufferPool::global().stats().workspaceReuses, 1u);
    EXPECT_EQ(BufferPool::global().stats().heapAllocs, 1u);
  }
  // Workspace destruction drains its cache into the global free lists.
  { Storage s = Storage::allocate(100); (void)s; }
  EXPECT_EQ(BufferPool::global().stats().poolReuses, 1u);
  EXPECT_EQ(BufferPool::global().stats().heapAllocs, 1u);
}

TEST(Pool, WorkspaceCacheIsBoundedPerBucket) {
  // A workspace that gets back more of its own buffers of one bucket than
  // it reacquires (a burst of live tensors in one step) keeps at most
  // kMaxPerBucket; the rest go to the (equally bounded) global list or
  // back to the heap.
  constexpr std::size_t kElems = std::size_t{1} << 13;  // one bucket
  constexpr std::size_t kCount = 2 * BufferPool::kMaxPerBucket + 1;
  constexpr std::uint64_t kBytes = kElems * sizeof(float);
  BufferPool& pool = BufferPool::global();
  pool.trim();
  pool.resetStats();
  const std::uint64_t pooledBefore = pool.stats().bytesPooled;
  Workspace ws;
  {
    std::vector<Storage> live;
    for (std::size_t i = 0; i < kCount; ++i) {
      live.push_back(Storage::allocate(kElems));
    }
  }  // all released into the active workspace
  EXPECT_EQ(ws.cachedBuffers(), BufferPool::kMaxPerBucket);
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.released, kCount);
  EXPECT_LE(stats.bytesPooled - pooledBefore,
            2 * BufferPool::kMaxPerBucket * kBytes);
  EXPECT_EQ(stats.freed, kCount - 2 * BufferPool::kMaxPerBucket);
}

TEST(Pool, WorkspaceCachesOnlyBuffersItHandedOut) {
  // A long-lived workspace (a serve worker's) also gets back buffers that
  // were acquired elsewhere, such as the level tensors of the memo a
  // design load's warm-up filled, dropped by the worker's next memo fill.
  // It may never acquire their bucket, so they go to the global list,
  // while the buffers it handed out stay in its cache.
  BufferPool& pool = BufferPool::global();
  pool.trim();
  pool.resetStats();
  Storage foreign = Storage::allocate(100);
  Workspace ws;
  Storage own = Storage::allocate(100);
  own.reset();
  EXPECT_EQ(ws.cachedBuffers(), 1u);
  foreign.reset();
  EXPECT_EQ(ws.cachedBuffers(), 1u);
  EXPECT_EQ(pool.stats().released, 2u);
  EXPECT_EQ(pool.trim(), 1u);  // the global list held the foreign buffer
  // The cached one is handed back without touching the global list.
  { Storage again = Storage::allocate(100); (void)again; }
  EXPECT_EQ(pool.stats().workspaceReuses, 1u);
  EXPECT_EQ(pool.stats().poolReuses, 0u);
}

TEST(Pool, SteadyStateForwardIsAllocationFree) {
  Rng rng = testRng(91);
  Tensor x = Tensor::randn({8, 16}, rng, 1.0f, false);
  Tensor w = Tensor::randn({16, 16}, rng, 1.0f, false);
  auto run = [&] {
    NoGradGuard guard;
    return sumAll(tanhOp(matmul(x, w))).item();
  };
  Workspace workspace;
  const float first = run();  // warm-up populates the workspace cache
  BufferPool::global().resetStats();
  const float second = run();
  const PoolStats stats = BufferPool::global().stats();
  EXPECT_GT(stats.acquisitions(), 0u);
  EXPECT_EQ(stats.heapAllocs, 0u);  // every temporary came from the cache
  EXPECT_GT(stats.workspaceReuses, 0u);
  // Pooled buffers are zero-filled on acquire, so reuse is bit-exact.
  EXPECT_EQ(first, second);
}

TEST(Pool, ReuseIsBitDeterministic) {
  Rng rng = testRng(92);
  Tensor x = Tensor::randn({5, 7}, rng, 1.0f, false);
  Workspace workspace;
  NoGradGuard guard;
  const Tensor reference = tanhOp(matmul(x, transpose2d(x)));
  std::vector<float> want = reference.toVector();
  for (int iter = 0; iter < 16; ++iter) {
    const Tensor got = tanhOp(matmul(x, transpose2d(x)));
    ASSERT_EQ(got.toVector(), want) << "iteration " << iter;
  }
}

TEST(Ops, NoGradGuardSuppressesTape) {
  Tensor a = Tensor::ones({3}, true);
  {
    NoGradGuard guard;
    Tensor b = mulScalar(a, 2.0f);
    EXPECT_FALSE(b.requiresGrad());
  }
  Tensor c = mulScalar(a, 2.0f);
  EXPECT_TRUE(c.requiresGrad());
}

TEST(Ops, GradAccumulatesAcrossUses) {
  // x used twice: gradient must be the sum of both paths.
  Tensor x = Tensor::fromVector({2}, {1.0f, 2.0f}, true);
  Tensor loss = sumAll(add(mulScalar(x, 2.0f), mulScalar(x, 3.0f)));
  loss.backward();
  EXPECT_FLOAT_EQ(x.grad().data()[0], 5.0f);
  EXPECT_FLOAT_EQ(x.grad().data()[1], 5.0f);
}

TEST(Ops, DeepChainBackwardSurvives) {
  // 2000-deep op chain: the iterative topo sort must not overflow the stack.
  Tensor x = Tensor::scalar(1.0f, true);
  Tensor y = x;
  for (int i = 0; i < 2000; ++i) y = addScalar(y, 0.001f);
  Tensor loss = sumAll(y);
  loss.backward();
  EXPECT_FLOAT_EQ(x.grad().data()[0], 1.0f);
}

}  // namespace
}  // namespace dagt::tensor
