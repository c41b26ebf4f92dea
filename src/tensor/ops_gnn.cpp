#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "tensor/expr.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/ops_common.hpp"

// gnnLevel: one level of the timing GNN as one op. Serving and what-if
// cone fills call it outside autograd, where it records nothing; training
// records it as one tape node.
//
// The eager level (core::TimingGnn with DAGT_FUSION=0) records up to 38
// ops: the self Linear; per edge kind gatherRowsMulti, segmentSum,
// mulColVec, segmentMax, two Linears and two adds; nn::LayerNorm's chain
// and relu. Read from the sweep's select (gatherRowsMulti over every level,
// ascending), Tensor::backward's reverse DFS post-order runs each level's
// ops as one contiguous block, later levels first, so the node below only
// has to replay its own block. Within the block the chain's backward runs
//   relu, addBias(norm bias), mul(normalized, gain rows), repeatRows,
//   reshape(gain), mulColVec(centered, rstd), div(1, stddev), sqrt,
//   addScalar(eps), the variance's meanDim1 and square, addColVec(x, -mean),
//   the mean's neg and meanDim1,
// then the add chain in reverse: the cell kind's max Linear, segmentMax,
// mean Linear, mulColVec, segmentSum and gather (its scatter into the
// earlier levels), the same for the net kind, and the self Linear last.
// Every tensor of the chain starts its gradient at +0 and accumulates; the
// backward below performs those same roundings in that order into the
// weights' and earlier levels' gradients. Where a chain gradient is a
// single accumulation onto +0 of a buffer that itself accumulated from +0
// (the add chain passing x's gradient to each Linear), it is that buffer
// unchanged: such a buffer never holds -0, and 0 + v == v bitwise for
// every other v.

namespace dagt::tensor {

using detail::makeOut;

namespace {

/// One edge kind of a level, as the forward and (when recording) the
/// backward read it.
struct KindState {
  bool present = false;
  std::vector<std::int64_t> dst;
  /// Per edge: the source's slot in LevelState::sources (-1 when its level
  /// needs no gradient) and its row there.
  std::vector<std::int32_t> slot;
  std::vector<std::int64_t> row;
  // Views into LevelState::buffer: 1 / fanin [n] (0 without edges), the
  // mean and the max [n, D].
  float* invCount = nullptr;
  float* mean = nullptr;
  float* max = nullptr;
  std::vector<std::int32_t> argmax;  // [n, D]: edge of each max, -1 none
  bool sourcesNeedGrad = false;
};

struct LevelState {
  GnnLevelWeights w;
  Tensor x;
  std::int64_t n = 0;
  std::int64_t inDim = 0;
  std::int64_t dim = 0;
  KindState net;
  KindState cell;
  /// The earlier levels the edges read that need a gradient, first read
  /// first.
  std::vector<std::shared_ptr<TensorImpl>> sources;
  /// One pooled, zero-filled buffer for the aggregates, 1 / fanin and, when
  /// recording, LayerNorm's centered rows [n, D] and per-row var + eps,
  /// stddev and rstd [3, n].
  Storage buffer;
  float* centered = nullptr;
  float* rowStats = nullptr;
};

/// C = A B + bias (+ residual) into a zero-filled C: matmul, addBias and
/// add's roundings.
void gemmEpilogue(const float* a, const Tensor& weight, const Tensor& bias,
                  const float* residual, float* c, std::int64_t n,
                  std::int64_t k, std::int64_t m) {
  DAGT_TRACE_SCOPE("kernel/gemm");
  kernels::GemmEpilogue ep;
  ep.bias = bias.data();
  ep.residual = residual;
  kernels::active().fusedGemmEpilogueRows(a, weight.data(), nullptr, c, 0, n,
                                          k, m, &ep);
}

/// Aggregate one edge kind into `kind` (1 / fanin, mean and max into its
/// zero-filled buffers and, when recording, argmax and each edge's source
/// slot).
void aggregate(const std::vector<Tensor>& earlier, const GnnLevelEdges& edges,
               std::int64_t n, std::int64_t dim, bool tape,
               std::vector<std::shared_ptr<TensorImpl>>& sources,
               KindState& kind) {
  DAGT_CHECK(edges.src != nullptr && edges.dst != nullptr);
  const auto& src = *edges.src;
  const auto& dst = *edges.dst;
  DAGT_CHECK_MSG(src.size() == dst.size(),
                 "gnnLevel: " << src.size() << " sources for " << dst.size()
                              << " destinations");
  const std::size_t edgeCount = src.size();
  kind.present = true;
  thread_local std::vector<const float*> rowPtrs;
  if (rowPtrs.size() < edgeCount) rowPtrs.resize(edgeCount);
  for (std::size_t e = 0; e < edgeCount; ++e) {
    rowPtrs[e] = detail::checkedRow(earlier, src[e], dim, "gnnLevel");
    const std::int64_t d = dst[e];
    DAGT_CHECK_MSG(d >= 0 && d < n,
                   "gnnLevel: destination " << d << " out of " << n);
    kind.invCount[static_cast<std::size_t>(d)] += 1.0f;
  }
  if (tape) {
    // Slot of each earlier level in `sources`, -1 until first read. Every
    // edge is checked above, so the levels set here are reset below.
    thread_local std::vector<std::int32_t> slotOf;
    if (slotOf.size() < earlier.size()) slotOf.resize(earlier.size(), -1);
    kind.dst = dst;
    kind.slot.resize(edgeCount);
    kind.row.resize(edgeCount);
    for (std::size_t e = 0; e < edgeCount; ++e) {
      const auto ord = static_cast<std::size_t>(src[e].first);
      kind.row[e] = src[e].second;
      const Tensor& level = earlier[ord];
      if (!level.requiresGrad()) {
        kind.slot[e] = -1;
        continue;
      }
      if (slotOf[ord] < 0) {
        slotOf[ord] = static_cast<std::int32_t>(sources.size());
        sources.push_back(level.impl());
      }
      kind.slot[e] = slotOf[ord];
      kind.sourcesNeedGrad = true;
    }
    for (const auto& at : src) slotOf[static_cast<std::size_t>(at.first)] = -1;
  }
  // 1 / fanin, inverted exactly like the eager chain's mulColVec operand.
  for (std::int64_t d = 0; d < n; ++d) {
    float& c = kind.invCount[d];
    c = c > 0.0f ? 1.0f / c : 0.0f;
  }
  if (tape) kind.argmax.resize(static_cast<std::size_t>(n * dim));
  kernels::active().segmentMeanMaxRows(
      rowPtrs.data(), dst.data(), static_cast<std::int64_t>(edgeCount), dim,
      kind.invCount, n, kind.mean, kind.max,
      tape ? kind.argmax.data() : nullptr);
}

/// A Linear's backward (addBias, then matmul): the bias sums dH's rows,
/// dInput (when non-null, zero-filled) receives dH W^T, and the weight
/// accumulates input^T dH.
void linearBackward(const float* dH, const float* input, std::int64_t n,
                    std::int64_t inDim, std::int64_t dim, const Tensor& weight,
                    const Tensor& bias, float* dInput) {
  const kernels::KernelTable& kt = kernels::active();
  const auto width = static_cast<std::size_t>(dim);
  TensorImpl& b = *bias.impl();
  b.ensureGrad();
  for (std::int64_t r = 0; r < n; ++r) {
    kt.accAddVec(dH + r * dim, b.grad.data(), width);
  }
  DAGT_TRACE_SCOPE("kernel/gemm");
  if (dInput != nullptr) {
    kt.gemmTransBRows(dH, weight.data(), dInput, 0, n, dim, inDim);
  }
  TensorImpl& w = *weight.impl();
  w.ensureGrad();
  kt.gemmTransARows(input, dH, w.grad.data(), 0, inDim, n, inDim, dim);
}

void levelBackward(const LevelState& s, TensorImpl& self) {
  const kernels::KernelTable& kt = kernels::active();
  const std::int64_t n = s.n;
  const std::int64_t dim = s.dim;
  const auto width = static_cast<std::size_t>(dim);
  const auto block = static_cast<std::size_t>(n * dim);
  // Per-thread scratch: four [n, D] blocks, then six [D] rows.
  thread_local std::vector<float> scratch;
  if (scratch.size() < 4 * block + 6 * width) {
    scratch.resize(4 * block + 6 * width);
  }
  float* dH = scratch.data();
  float* dMax = dH + block;
  float* dMean = dMax + block;
  float* dSeg = dMean + block;
  float* dy = dSeg + block;
  float* normalized = dy + dim;
  float* dNormalized = normalized + dim;
  float* dGainRow = dNormalized + dim;
  float* dCentered = dGainRow + dim;
  float* dGain = dCentered + dim;

  const float* dOut = self.grad.data();
  const float* out = self.data.data();
  const float* centeredRows = s.centered;
  const float* variance = s.rowStats;
  const float* stddev = variance + n;
  const float* rstd = stddev + n;
  const float* gain = s.w.normGain.data();
  TensorImpl& gainImpl = *s.w.normGain.impl();
  TensorImpl& normBias = *s.w.normBias.impl();
  normBias.ensureGrad();
  const float invCols = 1.0f / static_cast<float>(dim);
  const float one = 1.0f;  // div's numerator, Tensor::ones
  std::fill(dGain, dGain + dim, 0.0f);
  // relu and the LayerNorm chain, row by row: each of their backwards is
  // row-local but the bias's and gain's sums over rows, which run in row
  // order as in the chain.
  for (std::int64_t r = 0; r < n; ++r) {
    const float* gOut = dOut + r * dim;
    const float* o = out + r * dim;
    const float* centered = centeredRows + r * dim;
    // relu: the mask is out > 0, which holds exactly where its input did.
    for (std::int64_t c = 0; c < dim; ++c) {
      dy[c] = 0.0f;
      dy[c] += o[c] > 0.0f ? gOut[c] : 0.0f;
    }
    // addBias(·, norm bias).
    kt.accAddVec(dy, normBias.grad.data(), width);
    // mul(normalized, gain rows), then repeatRows' sum of the gain rows.
    kt.scaleVec(centered, rstd[r], normalized, width);
    std::fill(dNormalized, dNormalized + dim, 0.0f);
    kt.accMulVec(dy, gain, dNormalized, width);
    std::fill(dGainRow, dGainRow + dim, 0.0f);
    kt.accMulVec(dy, normalized, dGainRow, width);
    kt.accAddVec(dGainRow, dGain, width);
    // mulColVec(centered, rstd).
    std::fill(dCentered, dCentered + dim, 0.0f);
    kt.accScaleVec(dNormalized, rstd[r], dCentered, width);
    float dRstd = 0.0f;
    dRstd += static_cast<float>(kt.dotVec(dNormalized, centered, width));
    // div(ones, stddev), sqrtOp(var + eps), addScalar(var, eps).
    const float sd = stddev[r];
    float dStd = 0.0f;
    dStd += -dRstd * one / (sd * sd);
    float dVarEps = 0.0f;
    dVarEps += variance[r] <= 1e-12f ? 0.0f : dStd / (2.0f * sd);
    float dVar = 0.0f;
    dVar += dVarEps;
    // The variance's meanDim1: mulScalar(sumDim1(square), 1 / D).
    float dSumSq = 0.0f;
    dSumSq += dVar * invCols;
    float dSquare = 0.0f;
    dSquare += dSumSq;
    // square(centered).
    for (std::int64_t c = 0; c < dim; ++c) {
      dCentered[c] += 2.0f * centered[c] * dSquare;
    }
    // addColVec(x, -mean): x's gradient, then the negated mean's.
    float* dx = dH + r * dim;
    std::fill(dx, dx + dim, 0.0f);
    kt.accAddVec(dCentered, dx, width);
    float dNegMean = 0.0f;
    dNegMean += static_cast<float>(kt.sumVec(dCentered, width));
    // neg = mulScalar(mean, -1), then the mean's meanDim1.
    float dMeanX = 0.0f;
    dMeanX += dNegMean * -1.0f;
    float dSumX = 0.0f;
    dSumX += dMeanX * invCols;
    kt.addScalarVec(dx, dSumX, dx, width);
  }
  // reshape(gain)'s accumulate into the gain.
  gainImpl.ensureGrad();
  kt.accAddVec(dGain, gainImpl.grad.data(), width);

  // The add chain hands dH to every Linear; cell kind first, then net.
  const auto kindBackward = [&](const KindState& kind, const Tensor& meanW,
                                const Tensor& meanB, const Tensor& maxW,
                                const Tensor& maxB) {
    if (!kind.present) return;
    const bool scatter = kind.sourcesNeedGrad;
    if (scatter) {
      std::fill(dMax, dMax + block, 0.0f);
      std::fill(dMean, dMean + block, 0.0f);
    }
    linearBackward(dH, kind.max, n, dim, dim, maxW, maxB,
                   scatter ? dMax : nullptr);
    linearBackward(dH, kind.mean, n, dim, dim, meanW, meanB,
                   scatter ? dMean : nullptr);
    if (!scatter) return;
    // mulColVec(segmentSum, 1 / fanin).
    std::fill(dSeg, dSeg + block, 0.0f);
    for (std::int64_t r = 0; r < n; ++r) {
      kt.accScaleVec(dMean + r * dim,
                     kind.invCount[static_cast<std::size_t>(r)],
                     dSeg + r * dim, width);
    }
    // Each edge's gathered row: segmentMax's share, then segmentSum's, from
    // +0; then gatherRowsMulti's scatter into its source, in edge order.
    const std::size_t edgeCount = kind.dst.size();
    for (std::size_t e = 0; e < edgeCount; ++e) {
      const std::int32_t slot = kind.slot[e];
      if (slot < 0) continue;
      TensorImpl& source = *s.sources[static_cast<std::size_t>(slot)];
      source.ensureGrad();
      float* g = source.grad.data() + kind.row[e] * dim;
      const std::int64_t d = kind.dst[e];
      const std::int32_t* arg = kind.argmax.data() + d * dim;
      const float* gMax = dMax + d * dim;
      const float* gSeg = dSeg + d * dim;
      const auto edge = static_cast<std::int32_t>(e);
      for (std::int64_t c = 0; c < dim; ++c) {
        float v = 0.0f;
        if (arg[c] == edge) v += gMax[c];
        v += gSeg[c];
        g[c] += v;
      }
    }
  };
  const GnnLevelWeights& w = s.w;
  kindBackward(s.cell, w.cellMeanWeight, w.cellMeanBias, w.cellMaxWeight,
               w.cellMaxBias);
  kindBackward(s.net, w.netMeanWeight, w.netMeanBias, w.netMaxWeight,
               w.netMaxBias);
  linearBackward(dH, s.x.data(), n, s.inDim, dim, w.selfWeight, w.selfBias,
                 nullptr);
}

}  // namespace

Tensor gnnLevel(const Tensor& x, const std::vector<Tensor>& earlier,
                const GnnLevelEdges* net, const GnnLevelEdges* cell,
                const GnnLevelWeights& weights) {
  DAGT_DCHECK_MSG(!expr::Recorder::active(),
                  "gnnLevel is not expression-capturable");
  const GnnLevelWeights& w = weights;
  DAGT_CHECK(x.ndim() == 2 && w.normGain.ndim() == 1);
  const std::int64_t n = x.dim(0);
  const std::int64_t inDim = x.dim(1);
  const std::int64_t dim = w.normGain.dim(0);
  const Tensor* params[] = {&w.selfWeight,     &w.selfBias,
                            &w.netMeanWeight,  &w.netMeanBias,
                            &w.netMaxWeight,   &w.netMaxBias,
                            &w.cellMeanWeight, &w.cellMeanBias,
                            &w.cellMaxWeight,  &w.cellMaxBias,
                            &w.normGain,       &w.normBias};
  bool anyParamGrad = false;
  bool allParamGrad = true;
  for (std::size_t i = 0; i < std::size(params); ++i) {
    const Tensor& p = *params[i];
    // Projection weights [rows, D] at even indices below 10 (the self
    // projection's rows are x's width), the rest vectors [D].
    const bool shaped =
        i < 10 && i % 2 == 0
            ? p.ndim() == 2 && p.dim(0) == (i == 0 ? inDim : dim) &&
                  p.dim(1) == dim
            : p.ndim() == 1 && p.dim(0) == dim;
    DAGT_CHECK_MSG(shaped, "gnnLevel: weight " << i << " shape");
    anyParamGrad = anyParamGrad || p.requiresGrad();
    allParamGrad = allParamGrad && p.requiresGrad();
  }
  bool anySourceGrad = false;
  if (NoGradGuard::gradEnabled()) {
    for (const Tensor& level : earlier) {
      anySourceGrad = anySourceGrad || level.requiresGrad();
    }
  }
  const bool tape =
      NoGradGuard::gradEnabled() && (anyParamGrad || anySourceGrad);
  if (tape) {
    DAGT_CHECK_MSG(allParamGrad && !x.requiresGrad(),
                   "gnnLevel records a level whose every weight trains and "
                   "whose features do not; run the eager chain otherwise");
  }

  // The state lives on the heap only when the tape node keeps it.
  LevelState local;
  const std::shared_ptr<LevelState> kept =
      tape ? std::make_shared<LevelState>() : nullptr;
  LevelState& state = tape ? *kept : local;
  state.n = n;
  state.inDim = inDim;
  state.dim = dim;
  const auto block = static_cast<std::size_t>(n * dim);
  {
    // [n, D] blocks first (each kind's mean and max, then the centered
    // rows), then the [n] vectors (each kind's 1 / fanin, then the row
    // statistics).
    const std::size_t kinds =
        (net != nullptr ? 1 : 0) + (cell != nullptr ? 1 : 0);
    const auto rows = static_cast<std::size_t>(n);
    const std::size_t recorded = tape ? block + 3 * rows : 0;
    state.buffer = makeOut({static_cast<std::int64_t>(
                               (2 * block + rows) * kinds + recorded)})
                       ->data;
    float* next = state.buffer.data();
    KindState* present[2] = {net != nullptr ? &state.net : nullptr,
                             cell != nullptr ? &state.cell : nullptr};
    for (KindState* kind : present) {
      if (kind == nullptr) continue;
      kind->mean = next;
      kind->max = next + block;
      next += 2 * block;
    }
    if (tape) {
      state.centered = next;
      next += block;
    }
    for (KindState* kind : present) {
      if (kind == nullptr) continue;
      kind->invCount = next;
      next += rows;
    }
    if (tape) state.rowStats = next;
  }
  if (net != nullptr) {
    aggregate(earlier, *net, n, dim, tape, state.sources, state.net);
  }
  if (cell != nullptr) {
    aggregate(earlier, *cell, n, dim, tape, state.sources, state.cell);
  }

  // x Ws + bs, then each aggregate's projection with its bias and the sum
  // so far as the residual, in the eager chain's add order.
  thread_local std::vector<float> sums;
  if (sums.size() < 2 * block) sums.resize(2 * block);
  float* h = sums.data();
  float* next = sums.data() + block;
  std::fill(h, h + block, 0.0f);
  gemmEpilogue(x.data(), w.selfWeight, w.selfBias, nullptr, h, n, inDim, dim);
  const auto project = [&](const float* agg, const Tensor& weight,
                           const Tensor& bias) {
    std::fill(next, next + block, 0.0f);
    gemmEpilogue(agg, weight, bias, h, next, n, dim, dim);
    std::swap(h, next);
  };
  if (state.net.present) {
    project(state.net.mean, w.netMeanWeight, w.netMeanBias);
    project(state.net.max, w.netMaxWeight, w.netMaxBias);
  }
  if (state.cell.present) {
    project(state.cell.mean, w.cellMeanWeight, w.cellMeanBias);
    project(state.cell.max, w.cellMaxWeight, w.cellMaxBias);
  }

  auto out = makeOut({n, dim});
  kernels::LayerNormSaved saved;
  if (tape) {
    saved.centered = state.centered;
    saved.variance = state.rowStats;
    saved.stddev = saved.variance + n;
    saved.rstd = saved.stddev + n;
  }
  kernels::active().layerNormRows(h, w.normGain.data(), w.normBias.data(),
                                  w.normEps, /*relu=*/true, n, dim,
                                  out->data.data(), tape ? &saved : nullptr);
  if (!tape) return Tensor(std::move(out));

  state.w = w;
  state.x = x;
  out->requiresGrad = true;
  out->parents.reserve(std::size(params) + state.sources.size());
  for (const Tensor* p : params) out->parents.push_back(p->impl());
  for (const auto& source : state.sources) out->parents.push_back(source);
  out->backwardFn = [kept](TensorImpl& self) { levelBackward(*kept, self); };
  return Tensor(std::move(out));
}

}  // namespace dagt::tensor
