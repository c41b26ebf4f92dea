#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "tensor/tensor.hpp"

/// Differentiable operations on dagt::tensor::Tensor.
///
/// Compute ops allocate their output through the BufferPool (see
/// tensor/storage.hpp); reshape / flattenView / sliceRows return O(1)
/// zero-copy aliases of their input's storage. When gradients are enabled
/// and any input requires grad, a backward closure is recorded on the
/// output. Shapes are validated eagerly with DAGT_CHECK.
namespace dagt::tensor {

// ---------------------------------------------------------------------------
// Elementwise binary (operands must have identical shapes)
// ---------------------------------------------------------------------------
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);

// ---------------------------------------------------------------------------
// Broadcast helpers
// ---------------------------------------------------------------------------
/// [N,D] + [D]: adds the row vector to every row.
Tensor addBias(const Tensor& matrix, const Tensor& bias);
/// [N,M] + [N]: adds the column vector to every column.
Tensor addColVec(const Tensor& matrix, const Tensor& colVec);
/// [N,M] * [N]: scales each row by the corresponding vector entry.
Tensor mulColVec(const Tensor& matrix, const Tensor& colVec);
/// [1,D] -> [N,D] by repetition (backward sums over rows).
Tensor repeatRows(const Tensor& row, std::int64_t n);

// ---------------------------------------------------------------------------
// Scalar / unary
// ---------------------------------------------------------------------------
Tensor addScalar(const Tensor& t, float s);
Tensor mulScalar(const Tensor& t, float s);
Tensor neg(const Tensor& t);
Tensor relu(const Tensor& t);
/// Leaky ReLU with the given negative-side slope.
Tensor leakyRelu(const Tensor& t, float slope = 0.01f);
Tensor tanhOp(const Tensor& t);
Tensor sigmoid(const Tensor& t);
Tensor expOp(const Tensor& t);
/// Natural log; inputs are clamped to >= eps for numeric safety.
Tensor logOp(const Tensor& t, float eps = 1e-12f);
Tensor sqrtOp(const Tensor& t, float eps = 1e-12f);
Tensor square(const Tensor& t);
/// log(1 + exp(t)), numerically stable; used for positive variance heads.
Tensor softplus(const Tensor& t);
/// Integer power by repeated multiplication (k >= 1).
Tensor powInt(const Tensor& t, int k);

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------
/// Sum of all elements -> rank-1 scalar tensor of shape {1}.
Tensor sumAll(const Tensor& t);
Tensor meanAll(const Tensor& t);
/// [N,D] -> [D]: sum over rows.
Tensor sumDim0(const Tensor& t);
Tensor meanDim0(const Tensor& t);
/// [N,D] -> [N]: sum over columns.
Tensor sumDim1(const Tensor& t);
Tensor meanDim1(const Tensor& t);
/// [N,M] -> [N]: log(sum(exp(row))) with max-subtraction stabilization.
Tensor logSumExpDim1(const Tensor& t);

// ---------------------------------------------------------------------------
// Linear algebra
// ---------------------------------------------------------------------------
/// [N,K] x [K,M] -> [N,M]; multithreaded over output rows.
Tensor matmul(const Tensor& a, const Tensor& b);
/// [N,M] -> [M,N].
Tensor transpose2d(const Tensor& t);

// ---------------------------------------------------------------------------
// Shape manipulation
// ---------------------------------------------------------------------------
/// Same storage under a new shape (numel must match): O(1) zero-copy
/// alias; writes through either tensor are visible in both.
Tensor reshape(const Tensor& t, const Shape& shape);
/// Rank-1 alias of the whole tensor: reshape(t, {t.numel()}) without the
/// shape arithmetic at call sites.
Tensor flattenView(const Tensor& t);
/// Concatenate along dim 0 (all other dims equal).
Tensor concat0(const std::vector<Tensor>& parts);
/// Concatenate 2-D tensors along dim 1 (equal row counts).
Tensor concat1(const std::vector<Tensor>& parts);
/// Columns [begin, end) of a 2-D tensor (copies: columns are strided).
Tensor sliceCols(const Tensor& t, std::int64_t begin, std::int64_t end);
/// Rows [begin, end) along dim 0: O(1) zero-copy alias (rows are
/// contiguous in row-major storage).
Tensor sliceRows(const Tensor& t, std::int64_t begin, std::int64_t end);

// ---------------------------------------------------------------------------
// Indexed gather / scatter (GNN primitives)
// ---------------------------------------------------------------------------
/// Rows of a 2-D tensor selected by index (duplicates allowed).
Tensor indexSelect0(const Tensor& t, const std::vector<std::int64_t>& index);
/// indexSelect0 of a matrix held as row blocks: row r is row
/// r % rowsPerBlock of blocks[r / rowsPerBlock], every block is
/// [rowsPerBlock, cols] except the last, which may be shorter, and
/// rowsPerBlock is a power of two. Same kernel and index check as
/// indexSelect0. Records no tape: for inputs that never require grad
/// (features::PinFeatures).
Tensor indexSelectBlocks(const std::vector<Tensor>& blocks,
                         std::int64_t rowsPerBlock,
                         const std::vector<std::int64_t>& index);
/// Gather rows out of a *list* of 2-D tensors (same column count).
/// index[i] = {tensor ordinal, row within that tensor}. Used by the
/// levelized GNN to read embeddings from any earlier level in one op.
Tensor gatherRowsMulti(
    const std::vector<Tensor>& mats,
    const std::vector<std::pair<std::int32_t, std::int64_t>>& index);
/// Segment sum: out[segment[e], :] += src[e, :]; out has numSegments rows.
Tensor segmentSum(const Tensor& src, const std::vector<std::int64_t>& segment,
                  std::int64_t numSegments);
/// Segment max with -inf identity; empty segments yield 0 (and no grad).
Tensor segmentMax(const Tensor& src, const std::vector<std::int64_t>& segment,
                  std::int64_t numSegments);

/// Weights of one level of the timing GNN (core::TimingGnn): the self
/// projection [inDim, D] and bias [D]; per edge kind a mean and a max
/// projection [D, D] with biases [D]; the LayerNorm's gain and bias [D].
struct GnnLevelWeights {
  Tensor selfWeight, selfBias;
  Tensor netMeanWeight, netMeanBias, netMaxWeight, netMaxBias;
  Tensor cellMeanWeight, cellMeanBias, cellMaxWeight, cellMaxBias;
  Tensor normGain, normBias;
  float normEps = 1e-5f;
};

/// In-edges of one kind into a level: edge e reads row src[e] of the
/// earlier levels (coordinates as in gatherRowsMulti) into row dst[e].
struct GnnLevelEdges {
  const std::vector<std::pair<std::int32_t, std::int64_t>>* src = nullptr;
  const std::vector<std::int64_t>* dst = nullptr;
};

/// One level of the timing GNN's sweep, as one op:
///   relu(LayerNorm(x Ws + bs + Σ_k (mean_k Wkm + bkm + max_k WkM + bkM)))
/// over the present edge kinds k (a null `net` / `cell` has no edges, so
/// its projections and biases are skipped; a row without edges of a
/// present kind aggregates zeros). mean_k and max_k aggregate each row's
/// in-edge sources, read in place out of `earlier`, bitwise equal to
/// mulColVec(segmentSum(g, dst, n), 1 / fanin) and segmentMax(g, dst, n)
/// over g = gatherRowsMulti(earlier, src).
///
/// The forward runs segmentMeanMaxRows per edge kind, the five GEMMs with
/// bias and residual epilogues, then layerNormRows with relu. Outside
/// autograd (serving, a what-if cone fill) it records nothing and
/// allocates only its pooled buffers. Under autograd it records ONE tape
/// node, which keeps x, the aggregates, the max's argmax, 1 / fanin and
/// LayerNorm's centered rows and per-row scalars. Its backward performs
/// exactly the accumulations that core::TimingGnn's eager op chain
/// (DAGT_FUSION=0) performs into the weights' and earlier levels'
/// gradients, in the order the tape runs that chain's block of nodes, so
/// with the sweep read through gatherRowsMulti over every level
/// (TimingGnn::select) all gradients are bitwise equal to the chain's at
/// every kernel tier, as the output is. Every weight must require grad
/// when the node is recorded, and x must not.
Tensor gnnLevel(const Tensor& x, const std::vector<Tensor>& earlier,
                const GnnLevelEdges* net, const GnnLevelEdges* cell,
                const GnnLevelWeights& weights);

// ---------------------------------------------------------------------------
// Convolution / pooling (NCHW)
// ---------------------------------------------------------------------------
/// 2-D convolution via im2col. input [N,C,H,W], weight [F,C,kh,kw],
/// bias [F] (may be undefined for no bias).
Tensor conv2d(const Tensor& input, const Tensor& weight, const Tensor& bias,
              std::int64_t stride, std::int64_t padding);
/// 2x2 max pooling with stride 2 (floor semantics).
Tensor maxPool2d(const Tensor& input);
/// [N,C,H,W] -> [N,C] mean over the spatial dims.
Tensor globalAvgPool(const Tensor& input);

}  // namespace dagt::tensor
