#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "tensor/kernels/kernels.hpp"

// Internal wiring between the per-tier translation units and dispatch.cpp.
// Each SIMD TU is compiled with its own -m flags (see src/tensor/CMakeLists),
// so the tables are handed across as opaque references — nothing here may be
// called before tierSupported() said yes for the matching tier.
//
// The inline helpers below are shared by the tier TUs only (never included
// outside src/tensor/kernels/), so they inherit each TU's -ffp-contract=off
// and stay bitwise identical wherever they are instantiated.
namespace dagt::tensor::kernels {

const KernelTable& scalarTable();

#if DAGT_SIMD_X86
const KernelTable& avx2Table();
const KernelTable& avx2FmaTable();
#endif

namespace detail {

/// Column-block width of the fused elementwise interpreter. Large enough to
/// amortize the step dispatch, small enough to stay resident in L1.
inline constexpr std::int64_t kEwBlock = 512;

/// One fused elementwise step applied to a scalar lane. This is THE
/// reference semantics: every tier's vector path must match it bitwise.
inline float ewApplyScalar(const EwStep& s, float acc, float operand) {
  switch (s.op) {
    case EwOp::kAddV: return acc + operand;
    case EwOp::kSubV: return acc - operand;
    case EwOp::kRsubV: return operand - acc;
    case EwOp::kMulV: return acc * operand;
    case EwOp::kDivV: return acc / operand;
    case EwOp::kRdivV: return operand / acc;
    case EwOp::kAddS: return acc + s.scalar;
    case EwOp::kMulS: return acc * s.scalar;
    case EwOp::kRelu: return acc > 0.0f ? acc : 0.0f;
    case EwOp::kLeakyRelu: return acc > 0.0f ? acc : s.scalar * acc;
    case EwOp::kTanh: return std::tanh(acc);
    case EwOp::kSigmoid: return 1.0f / (1.0f + std::exp(-acc));
    case EwOp::kExp: return std::exp(acc);
    case EwOp::kLog: return std::log(std::max(acc, s.scalar));
    case EwOp::kSqrt: return std::sqrt(std::max(acc, s.scalar));
    case EwOp::kSquare: return acc * acc;
    case EwOp::kSoftplus:
      return std::max(acc, 0.0f) + std::log1p(std::exp(-std::abs(acc)));
    case EwOp::kPowInt: {
      float y = acc;
      for (std::int32_t i = 1; i < s.ipow; ++i) y *= acc;
      return y;
    }
  }
  return acc;
}

/// One fused step over a block, dispatching the op switch ONCE per block
/// instead of once per element (the per-element form defeats -O2 loop
/// optimization and made the scalar interpreter slower than eager's
/// dedicated loops). `get(i)` yields the operand lane; every case computes
/// the exact expression of ewApplyScalar, so output is bitwise unchanged.
template <typename Get>
inline void ewApplyBlock(const EwStep& s, float* buf, std::int64_t w,
                         Get get) {
  switch (s.op) {
    case EwOp::kAddV:
      for (std::int64_t i = 0; i < w; ++i) buf[i] = buf[i] + get(i);
      break;
    case EwOp::kSubV:
      for (std::int64_t i = 0; i < w; ++i) buf[i] = buf[i] - get(i);
      break;
    case EwOp::kRsubV:
      for (std::int64_t i = 0; i < w; ++i) buf[i] = get(i) - buf[i];
      break;
    case EwOp::kMulV:
      for (std::int64_t i = 0; i < w; ++i) buf[i] = buf[i] * get(i);
      break;
    case EwOp::kDivV:
      for (std::int64_t i = 0; i < w; ++i) buf[i] = buf[i] / get(i);
      break;
    case EwOp::kRdivV:
      for (std::int64_t i = 0; i < w; ++i) buf[i] = get(i) / buf[i];
      break;
    case EwOp::kAddS:
      for (std::int64_t i = 0; i < w; ++i) buf[i] = buf[i] + s.scalar;
      break;
    case EwOp::kMulS:
      for (std::int64_t i = 0; i < w; ++i) buf[i] = buf[i] * s.scalar;
      break;
    case EwOp::kRelu:
      for (std::int64_t i = 0; i < w; ++i)
        buf[i] = buf[i] > 0.0f ? buf[i] : 0.0f;
      break;
    case EwOp::kLeakyRelu:
      for (std::int64_t i = 0; i < w; ++i)
        buf[i] = buf[i] > 0.0f ? buf[i] : s.scalar * buf[i];
      break;
    case EwOp::kTanh:
      for (std::int64_t i = 0; i < w; ++i) buf[i] = std::tanh(buf[i]);
      break;
    case EwOp::kSigmoid:
      for (std::int64_t i = 0; i < w; ++i)
        buf[i] = 1.0f / (1.0f + std::exp(-buf[i]));
      break;
    case EwOp::kExp:
      for (std::int64_t i = 0; i < w; ++i) buf[i] = std::exp(buf[i]);
      break;
    case EwOp::kLog:
      for (std::int64_t i = 0; i < w; ++i)
        buf[i] = std::log(std::max(buf[i], s.scalar));
      break;
    case EwOp::kSqrt:
      for (std::int64_t i = 0; i < w; ++i)
        buf[i] = std::sqrt(std::max(buf[i], s.scalar));
      break;
    case EwOp::kSquare:
      for (std::int64_t i = 0; i < w; ++i) buf[i] = buf[i] * buf[i];
      break;
    case EwOp::kSoftplus:
      for (std::int64_t i = 0; i < w; ++i)
        buf[i] = std::max(buf[i], 0.0f) +
                 std::log1p(std::exp(-std::abs(buf[i])));
      break;
    case EwOp::kPowInt:
      for (std::int64_t i = 0; i < w; ++i) {
        const float acc = buf[i];
        float y = acc;
        for (std::int32_t p = 1; p < s.ipow; ++p) y *= acc;
        buf[i] = y;
      }
      break;
  }
}

/// Reference fused elementwise interpreter: processes each row in L1-sized
/// column blocks, resolving operand pointers per EwOperandKind. The scalar
/// tier registers this directly; SIMD tiers must produce bitwise-identical
/// output (vectorizing only IEEE-exact ops).
inline void fusedEwRowsImpl(const float* const* operands,
                            const std::uint8_t* kinds, int /*numOperands*/,
                            const EwStep* steps, int numSteps, float* out,
                            std::int64_t rows, std::int64_t cols) {
  alignas(32) float buf[kEwBlock];
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c0 = 0; c0 < cols; c0 += kEwBlock) {
      const std::int64_t w = std::min(kEwBlock, cols - c0);
      // Seed from operand 0.
      {
        const auto kind = static_cast<EwOperandKind>(kinds[0]);
        if (kind == EwOperandKind::kColVec) {
          const float v = operands[0][r];
          for (std::int64_t i = 0; i < w; ++i) buf[i] = v;
        } else {
          const float* src = kind == EwOperandKind::kFull
                                 ? operands[0] + r * cols + c0
                                 : operands[0] + c0;
          for (std::int64_t i = 0; i < w; ++i) buf[i] = src[i];
        }
      }
      for (int si = 0; si < numSteps; ++si) {
        const EwStep& s = steps[si];
        if (s.operand >= 0) {
          const auto kind = static_cast<EwOperandKind>(kinds[s.operand]);
          if (kind == EwOperandKind::kColVec) {
            const float v = operands[s.operand][r];
            ewApplyBlock(s, buf, w, [v](std::int64_t) { return v; });
          } else {
            const float* src = kind == EwOperandKind::kFull
                                   ? operands[s.operand] + r * cols + c0
                                   : operands[s.operand] + c0;
            ewApplyBlock(s, buf, w, [src](std::int64_t i) { return src[i]; });
          }
        } else {
          ewApplyBlock(s, buf, w, [](std::int64_t) { return 0.0f; });
        }
      }
      float* dst = out + r * cols + c0;
      for (std::int64_t i = 0; i < w; ++i) dst[i] = buf[i];
    }
  }
}

/// GEMM epilogue: bias -> activation -> residual per produced row, plain
/// scalar float math (one rounding per op, identical expressions in every
/// tier ⇒ bitwise identical everywhere).
inline void applyGemmEpilogueRows(float* c, std::int64_t rowBegin,
                                  std::int64_t rowEnd, std::int64_t m,
                                  const GemmEpilogue& ep) {
  for (std::int64_t r = rowBegin; r < rowEnd; ++r) {
    float* crow = c + r * m;
    if (ep.bias != nullptr) {
      for (std::int64_t j = 0; j < m; ++j) crow[j] += ep.bias[j];
    }
    switch (ep.activation) {
      case 1:
        for (std::int64_t j = 0; j < m; ++j)
          crow[j] = crow[j] > 0.0f ? crow[j] : 0.0f;
        break;
      case 2:
        for (std::int64_t j = 0; j < m; ++j) crow[j] = std::tanh(crow[j]);
        break;
      case 3:
        for (std::int64_t j = 0; j < m; ++j)
          crow[j] = 1.0f / (1.0f + std::exp(-crow[j]));
        break;
      case 4:
        for (std::int64_t j = 0; j < m; ++j)
          crow[j] = crow[j] > 0.0f ? crow[j] : ep.slope * crow[j];
        break;
      default:
        break;
    }
    if (ep.residual != nullptr) {
      const float* rrow = ep.residual + r * m;
      for (std::int64_t j = 0; j < m; ++j) crow[j] += rrow[j];
    }
  }
}

#if defined(__AVX2__)
/// AVX2 epilogue for the IEEE-exact cases (bias add, relu, leaky-relu,
/// residual add): one rounding per op in both scalar and vector lanes, so the
/// output is bitwise identical to applyGemmEpilogueRows while touching each
/// element of C exactly once. Transcendental activations (tanh, sigmoid) are
/// not exact under vectorization and take the scalar reference path instead.
inline void applyGemmEpilogueRowsAvx2(float* c, std::int64_t rowBegin,
                                      std::int64_t rowEnd, std::int64_t m,
                                      const GemmEpilogue& ep) {
  if (ep.activation == 2 || ep.activation == 3) {
    applyGemmEpilogueRows(c, rowBegin, rowEnd, m, ep);
    return;
  }
  const __m256 zero = _mm256_setzero_ps();
  const __m256 slope = _mm256_set1_ps(ep.slope);
  for (std::int64_t r = rowBegin; r < rowEnd; ++r) {
    float* crow = c + r * m;
    const float* rrow =
        ep.residual != nullptr ? ep.residual + r * m : nullptr;
    std::int64_t j = 0;
    for (; j + 8 <= m; j += 8) {
      __m256 v = _mm256_loadu_ps(crow + j);
      if (ep.bias != nullptr)
        v = _mm256_add_ps(v, _mm256_loadu_ps(ep.bias + j));
      if (ep.activation == 1) {
        v = _mm256_max_ps(v, zero);
      } else if (ep.activation == 4) {
        const __m256 neg = _mm256_mul_ps(slope, v);
        const __m256 pos = _mm256_cmp_ps(v, zero, _CMP_GT_OQ);
        v = _mm256_blendv_ps(neg, v, pos);
      }
      if (rrow != nullptr) v = _mm256_add_ps(v, _mm256_loadu_ps(rrow + j));
      _mm256_storeu_ps(crow + j, v);
    }
    for (; j < m; ++j) {
      float v = crow[j];
      if (ep.bias != nullptr) v += ep.bias[j];
      if (ep.activation == 1) {
        v = v > 0.0f ? v : 0.0f;
      } else if (ep.activation == 4) {
        v = v > 0.0f ? v : ep.slope * v;
      }
      if (rrow != nullptr) v += rrow[j];
      crow[j] = v;
    }
  }
}
#endif  // defined(__AVX2__)

/// Segment-sum reference: strict r = 0..rows-1 accumulation order (bitwise
/// contract — matches the eager ops_index.cpp loop it replaces).
inline void segmentSumRowsImpl(const float* src, const std::int64_t* segment,
                               std::int64_t rows, std::int64_t cols,
                               float* out) {
  for (std::int64_t r = 0; r < rows; ++r) {
    float* dst = out + segment[r] * cols;
    const float* s = src + r * cols;
    for (std::int64_t c = 0; c < cols; ++c) dst[c] += s[c];
  }
}

/// -1.0f read through a volatile. LayerNorm's eager chain negates its mean
/// by multiplying with a runtime -1.0f, which keeps a NaN's sign bit; with a
/// constant the compiler may fold `x * -1.0f` into a sign flip, which does
/// not.
inline float runtimeMinusOne() {
  volatile float minusOne = -1.0f;
  return minusOne;
}

// The GNN level kernels, written once over a tier's own elementwise and
// reduction kernels. `Ops` names them (static members accAddVec, scaleVec,
// sumVec, dotVec, addScalarVec, divVec, mulVec, addVec, reluVec), so each
// tier's instantiation runs, step for step, the kernels its eager op chain
// runs and is bitwise equal to that chain by construction.

// Row selections of segmentMeanMaxRowsImpl, in blocks of 8 lanes over
// non-aliasing rows so that the compiler turns them into whole-vector max
// and compare instructions in every tier; a selection is exact however it
// is vectorized. Static, so each tier's TU keeps its own copy, compiled
// with that tier's flags.

/// acc[c] = in[c] > acc[c] ? in[c] : acc[c], the eager segmentMax's step
/// (a NaN source is skipped).
static inline void maxRowInto(const float* __restrict in,
                              float* __restrict acc, std::int64_t cols) {
  std::int64_t c = 0;
  for (; c + 8 <= cols; c += 8) {
    for (int l = 0; l < 8; ++l) {
      acc[c + l] = in[c + l] > acc[c + l] ? in[c + l] : acc[c + l];
    }
  }
  for (; c < cols; ++c) acc[c] = in[c] > acc[c] ? in[c] : acc[c];
}

/// A max still at -inf had no larger source (or none at all): it becomes 0.
static inline void zeroLowestRow(float* __restrict row, std::int64_t cols) {
  const float lowest = -std::numeric_limits<float>::infinity();
  std::int64_t c = 0;
  for (; c + 8 <= cols; c += 8) {
    for (int l = 0; l < 8; ++l) {
      row[c + l] = row[c + l] == lowest ? 0.0f : row[c + l];
    }
  }
  for (; c < cols; ++c) row[c] = row[c] == lowest ? 0.0f : row[c];
}

/// KernelTable::segmentMeanMaxRows: segmentSumRows's accumulation (by
/// accAddVec), the eager segmentMax's selection, then mulColVec's scaleVec
/// per row.
template <typename Ops>
inline void segmentMeanMaxRowsImpl(const float* const* srcRows,
                                   const std::int64_t* dst,
                                   std::int64_t edges, std::int64_t cols,
                                   const float* invCount, std::int64_t numDst,
                                   float* mean, float* max) {
  const float lowest = -std::numeric_limits<float>::infinity();
  const auto width = static_cast<std::size_t>(cols);
  std::fill(max, max + numDst * cols, lowest);
  for (std::int64_t e = 0; e < edges; ++e) {
    Ops::accAddVec(srcRows[e], mean + dst[e] * cols, width);
    maxRowInto(srcRows[e], max + dst[e] * cols, cols);
  }
  for (std::int64_t d = 0; d < numDst; ++d) {
    Ops::scaleVec(mean + d * cols, invCount[d], mean + d * cols, width);
    zeroLowestRow(max + d * cols, cols);
  }
}

/// KernelTable::layerNormRows: nn::LayerNorm's op chain per row. Each
/// per-row scalar goes through a one-element call of the kernel the eager
/// op runs over the [rows] column (scaleVec for the 1/D and -1 factors,
/// addScalarVec for eps, divVec for 1/x), so it repeats that op's rounding.
template <typename Ops>
inline void layerNormRowsImpl(const float* x, const float* gain,
                              const float* bias, float eps, bool relu,
                              std::int64_t rows, std::int64_t cols,
                              float* out) {
  const auto width = static_cast<std::size_t>(cols);
  const float invCols = 1.0f / static_cast<float>(cols);
  const float one = 1.0f;
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* in = x + r * cols;
    float* o = out + r * cols;
    float mean = static_cast<float>(Ops::sumVec(in, width));
    Ops::scaleVec(&mean, invCols, &mean, 1);
    Ops::scaleVec(&mean, runtimeMinusOne(), &mean, 1);
    Ops::addScalarVec(in, mean, o, width);  // centered
    // dotVec(o, o) is the sumVec of the rounded squares.
    float var = static_cast<float>(Ops::dotVec(o, o, width));
    Ops::scaleVec(&var, invCols, &var, 1);
    Ops::addScalarVec(&var, eps, &var, 1);
    const float denom = std::sqrt(std::max(var, 1e-12f));
    float rstd = 0.0f;
    Ops::divVec(&one, &denom, &rstd, 1);
    Ops::scaleVec(o, rstd, o, width);
    Ops::mulVec(o, gain, o, width);
    Ops::addVec(o, bias, o, width);
    if (relu) Ops::reluVec(o, o, width);
  }
}

// -- Conv stack (convReluPoolRows) -------------------------------------------
//
// Each stage's input lives in zero-bordered planes split by stride phase:
// input channel c's padded plane P (P[y][x] = in[c][y - pad][x - pad], +0
// outside the image) is kept as stride^2 planes Q[a][b] of qh x qw floats,
// Q[a][b][y][x] = P[y * s + a][x * s + b]. What output pixel (oy, ox) reads
// at kernel offset (ky, kx) is then Q[ky % s][kx % s][oy + ky / s][ox +
// kx / s]: a per-pixel base plus a per-k offset. So every stage, at any
// stride, is one table-driven loop, and a stage writes its relu'd outputs
// straight into the next stage's planes. Each call zeroes the planes once;
// the borders are never written after that, and every sample overwrites
// every inside slot. The helpers sit in an unnamed namespace so that each
// tier's TU keeps its own copy, compiled with that tier's flags.

namespace {

/// One stage's tables and planes inside a call's scratch.
struct ConvPlan {
  std::int64_t kDim = 0;        // inChannels * kh * kw
  std::int64_t pixels = 0;      // outH * outW
  std::int64_t chanStride = 0;  // floats per input channel (its phases)
  float* planes = nullptr;      // [inChannels * chanStride]
  const float* packed = nullptr;        // the tier's weight layout, if any
  const std::int32_t* koff = nullptr;   // [kDim] offset of k = (c, ky, kx)
  const std::int32_t* pbase = nullptr;  // [pixels] base of output pixel j
  const std::int32_t* slot = nullptr;   // [inH * inW] slot of input pixel
};

/// A thread's scratch, grown to the largest stack it has run.
struct ConvScratch {
  std::vector<float> floats;
  std::vector<std::int32_t> ints;
};

/// convReluPoolRows over a tier policy `Tier`: Tier::packFloats(stage) and
/// Tier::pack(stage, kDim, dst) lay out the tier's weights (packFloats may
/// be 0); Tier::run(stage, plan, dst, dstSlot, dstStride) computes one
/// stage for one sample, writing the relu'd output (f, j) to
/// dst[f * dstStride + dstSlot[j]]; Tier::sumVec is the tier's reduction.
template <typename Tier>
void convReluPoolRowsImpl(const float* in, const ConvStage* stages,
                          int numStages, float* out, std::int64_t rowBegin,
                          std::int64_t rowEnd) {
  if (rowEnd <= rowBegin || numStages <= 0) return;
  thread_local ConvScratch scratch;
  ConvPlan plans[kConvMaxStages];
  std::int64_t floats = 0;
  std::int64_t ints = 0;
  std::int64_t qhs[kConvMaxStages];
  std::int64_t qws[kConvMaxStages];
  for (int i = 0; i < numStages; ++i) {
    const ConvStage& st = stages[i];
    ConvPlan& plan = plans[i];
    qhs[i] = (st.inH + 2 * st.pad + st.stride - 1) / st.stride;
    qws[i] = (st.inW + 2 * st.pad + st.stride - 1) / st.stride;
    plan.kDim = st.inChannels * st.kh * st.kw;
    plan.pixels = st.outH * st.outW;
    plan.chanStride = st.stride * st.stride * qhs[i] * qws[i];
    floats += st.inChannels * plan.chanStride + Tier::packFloats(st);
    ints += plan.kDim + plan.pixels + st.inH * st.inW;
  }
  const ConvStage& last = stages[numStages - 1];
  const std::int64_t spatial = last.outH * last.outW;
  floats += last.outChannels * spatial;  // the pooled stage's output
  ints += spatial;                       // its identity slots
  if (static_cast<std::int64_t>(scratch.floats.size()) < floats) {
    scratch.floats.resize(static_cast<std::size_t>(floats));
  }
  if (static_cast<std::int64_t>(scratch.ints.size()) < ints) {
    scratch.ints.resize(static_cast<std::size_t>(ints));
  }

  float* fp = scratch.floats.data();
  std::int32_t* ip = scratch.ints.data();
  for (int i = 0; i < numStages; ++i) {
    const ConvStage& st = stages[i];
    ConvPlan& plan = plans[i];
    const std::int64_t s = st.stride;
    const std::int64_t qh = qhs[i];
    const std::int64_t qw = qws[i];
    plan.planes = fp;
    std::fill(fp, fp + st.inChannels * plan.chanStride, 0.0f);
    fp += st.inChannels * plan.chanStride;
    Tier::pack(st, plan.kDim, fp);
    plan.packed = fp;
    fp += Tier::packFloats(st);
    // Channel 0's offsets, then each channel's shifted by its planes (the
    // tables are built once per call, without a division per entry).
    std::int32_t* koff = ip;
    const std::int64_t taps = st.kh * st.kw;
    for (std::int64_t ky = 0; ky < st.kh; ++ky) {
      for (std::int64_t kx = 0; kx < st.kw; ++kx) {
        koff[ky * st.kw + kx] = static_cast<std::int32_t>(
            ((ky % s) * s + kx % s) * qh * qw + (ky / s) * qw + kx / s);
      }
    }
    for (std::int64_t c = 1; c < st.inChannels; ++c) {
      for (std::int64_t t = 0; t < taps; ++t) {
        koff[c * taps + t] =
            koff[t] + static_cast<std::int32_t>(c * plan.chanStride);
      }
    }
    ip += plan.kDim;
    std::int32_t* pbase = ip;
    for (std::int64_t oy = 0; oy < st.outH; ++oy) {
      for (std::int64_t ox = 0; ox < st.outW; ++ox) {
        *ip++ = static_cast<std::int32_t>(oy * qw + ox);
      }
    }
    // The slot of padded (py, px) is ((py % s) * s + px % s) * qh * qw +
    // (py / s) * qw + px / s: a row part plus a column part. Row 0's slots
    // hold the column parts until row 0, the last one filled, adds its own.
    std::int32_t* slot = ip;
    for (std::int64_t ix = 0; ix < st.inW; ++ix) {
      const std::int64_t px = ix + st.pad;
      slot[ix] = static_cast<std::int32_t>((px % s) * qh * qw + px / s);
    }
    for (std::int64_t iy = st.inH - 1; iy >= 0; --iy) {
      const std::int64_t py = iy + st.pad;
      const auto row =
          static_cast<std::int32_t>((py % s) * s * qh * qw + (py / s) * qw);
      for (std::int64_t ix = 0; ix < st.inW; ++ix) {
        slot[iy * st.inW + ix] = row + slot[ix];
      }
    }
    ip += st.inH * st.inW;
    plan.koff = koff;
    plan.pbase = pbase;
    plan.slot = slot;
  }
  float* pooled = fp;
  std::int32_t* identity = ip;
  for (std::int64_t j = 0; j < spatial; ++j) {
    identity[j] = static_cast<std::int32_t>(j);
  }

  const ConvStage& first = stages[0];
  const std::int64_t inPixels = first.inH * first.inW;
  const std::int64_t sampleSize = first.inChannels * inPixels;
  for (std::int64_t r = rowBegin; r < rowEnd; ++r) {
    const float* img = in + r * sampleSize;
    for (std::int64_t c = 0; c < first.inChannels; ++c) {
      float* dst = plans[0].planes + c * plans[0].chanStride;
      const float* src = img + c * inPixels;
      for (std::int64_t j = 0; j < inPixels; ++j) {
        dst[plans[0].slot[j]] = src[j];
      }
    }
    for (int i = 0; i < numStages; ++i) {
      const bool pool = i + 1 == numStages;
      Tier::run(stages[i], plans[i], pool ? pooled : plans[i + 1].planes,
                pool ? identity : plans[i + 1].slot,
                pool ? spatial : plans[i + 1].chanStride);
    }
    float* o = out + r * last.outChannels;
    for (std::int64_t f = 0; f < last.outChannels; ++f) {
      o[f] = static_cast<float>(
          Tier::sumVec(pooled + f * spatial,
                       static_cast<std::size_t>(spatial)) /
          static_cast<double>(spatial));
    }
  }
}

/// The reference stage: per output (f, j), from the bias over k in order,
/// one mul and one add rounding per step (gemmRows' scalar arithmetic).
template <typename Ops>
struct ConvScalar {
  static std::int64_t packFloats(const ConvStage&) { return 0; }
  static void pack(const ConvStage&, std::int64_t, float*) {}
  static void run(const ConvStage& st, const ConvPlan& plan, float* dst,
                  const std::int32_t* dstSlot, std::int64_t dstStride) {
    for (std::int64_t f = 0; f < st.outChannels; ++f) {
      const float* w = st.weight + f * plan.kDim;
      const float b = st.bias != nullptr ? st.bias[f] : 0.0f;
      float* d = dst + f * dstStride;
      for (std::int64_t j = 0; j < plan.pixels; ++j) {
        const float* base = plan.planes + plan.pbase[j];
        float acc = b;
        for (std::int64_t k = 0; k < plan.kDim; ++k) {
          acc += w[k] * base[plan.koff[k]];
        }
        d[dstSlot[j]] = acc > 0.0f ? acc : 0.0f;
      }
    }
  }
  static double sumVec(const float* x, std::size_t n) {
    return Ops::sumVec(x, n);
  }
};

#if defined(__AVX2__)
/// acc + x * w: fused at avx2fma (kFused), one mul and one add rounding
/// otherwise, as the tier's gemmRows steps.
template <bool kFused>
inline __m256 convStep(__m256 x, __m256 w, __m256 acc) {
#if defined(__FMA__)
  if constexpr (kFused) return _mm256_fmadd_ps(x, w, acc);
#endif
  return _mm256_add_ps(acc, _mm256_mul_ps(x, w));
}

/// P output pixels from j by V blocks of 8 output channels: the weights
/// are packed [kDim, fp] (fp = channels rounded up to 8, zero-filled) so a
/// k step is V loads, P broadcasts and P * V steps. `channels` of the 8 * V
/// lanes are real; the rest (zero weights, relu'd) are never stored.
template <int P, int V, bool kFused>
inline void convTile(const ConvPlan& plan, const float* wt, std::int64_t fp,
                     const float* bias, std::int64_t j, float* dst,
                     const std::int32_t* dstSlot, std::int64_t dstStride,
                     std::int64_t channels) {
  __m256 acc[P][V];
#pragma GCC unroll 4
  for (int v = 0; v < V; ++v) {
    const __m256 b = _mm256_loadu_ps(bias + 8 * v);
#pragma GCC unroll 8
    for (int p = 0; p < P; ++p) acc[p][v] = b;
  }
  const float* src[P];
#pragma GCC unroll 8
  for (int p = 0; p < P; ++p) src[p] = plan.planes + plan.pbase[j + p];
  for (std::int64_t k = 0; k < plan.kDim; ++k) {
    const std::int32_t off = plan.koff[k];
    const float* wk = wt + k * fp;
    __m256 w[V];
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) w[v] = _mm256_loadu_ps(wk + 8 * v);
#pragma GCC unroll 8
    for (int p = 0; p < P; ++p) {
      const __m256 x = _mm256_broadcast_ss(src[p] + off);
#pragma GCC unroll 4
      for (int v = 0; v < V; ++v) {
        acc[p][v] = convStep<kFused>(x, w[v], acc[p][v]);
      }
    }
  }
  // Every acc index is a constant (the loops above and this one unroll),
  // so the accumulators live in registers.
  const __m256 zero = _mm256_setzero_ps();
  alignas(32) float lanes[P][8 * V];
#pragma GCC unroll 8
  for (int p = 0; p < P; ++p) {
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) {
      // max(acc, 0) returns 0 for NaN and -0: reluVec's select.
      _mm256_store_ps(lanes[p] + 8 * v, _mm256_max_ps(acc[p][v], zero));
    }
  }
  for (int p = 0; p < P; ++p) {
    float* d = dst + dstSlot[j + p];
    if (channels == 8 * V) {
#pragma GCC unroll 16
      for (int c = 0; c < 8 * V; ++c) d[c * dstStride] = lanes[p][c];
    } else {
      for (std::int64_t c = 0; c < channels; ++c) {
        d[c * dstStride] = lanes[p][c];
      }
    }
  }
}

/// Pixels [jBegin, jEnd) of one channel block, in tiles of P.
template <int P, int V, bool kFused>
inline void convPixels(const ConvPlan& plan, const float* wt, std::int64_t fp,
                       const float* bias, std::int64_t jBegin,
                       std::int64_t jEnd, float* dst,
                       const std::int32_t* dstSlot, std::int64_t dstStride,
                       std::int64_t channels) {
  std::int64_t j = jBegin;
  for (; j + P <= jEnd; j += P) {
    convTile<P, V, kFused>(plan, wt, fp, bias, j, dst, dstSlot, dstStride,
                           channels);
  }
  for (; j < jEnd; ++j) {
    convTile<1, V, kFused>(plan, wt, fp, bias, j, dst, dstSlot, dstStride,
                           channels);
  }
}

/// The avx2 (kFma false) and avx2fma stage. At avx2fma the pixels of full
/// 16-pixel blocks take fused steps and the rest mul then add, as
/// gemmBlocked's column blocks and tail do.
template <bool kFma, typename Ops>
struct ConvAvx2 {
  static std::int64_t channelsPadded(const ConvStage& st) {
    return (st.outChannels + 7) / 8 * 8;
  }
  static std::int64_t packFloats(const ConvStage& st) {
    const std::int64_t fp = channelsPadded(st);
    return (st.inChannels * st.kh * st.kw + 1) * fp;
  }
  /// [kDim, fp] transposed weights, then the [fp] bias; lanes past
  /// outChannels are zero.
  static void pack(const ConvStage& st, std::int64_t kDim, float* dst) {
    const std::int64_t f = st.outChannels;
    const std::int64_t fp = channelsPadded(st);
    for (std::int64_t k = 0; k < kDim; ++k) {
      float* row = dst + k * fp;
      for (std::int64_t c = 0; c < f; ++c) row[c] = st.weight[c * kDim + k];
      std::fill(row + f, row + fp, 0.0f);
    }
    float* bias = dst + kDim * fp;
    std::fill(bias, bias + fp, 0.0f);
    if (st.bias != nullptr) std::copy(st.bias, st.bias + f, bias);
  }
  static void run(const ConvStage& st, const ConvPlan& plan, float* dst,
                  const std::int32_t* dstSlot, std::int64_t dstStride) {
    const std::int64_t fp = channelsPadded(st);
    const float* bias = plan.packed + plan.kDim * fp;
    const std::int64_t fusedEnd = kFma ? plan.pixels / 16 * 16 : 0;
    std::int64_t cb = 0;
    for (; cb + 16 <= fp; cb += 16) {
      const std::int64_t channels = std::min<std::int64_t>(16, st.outChannels - cb);
      float* d = dst + cb * dstStride;
      convPixels<4, 2, kFma>(plan, plan.packed + cb, fp, bias + cb, 0,
                             fusedEnd, d, dstSlot, dstStride, channels);
      convPixels<4, 2, false>(plan, plan.packed + cb, fp, bias + cb,
                              fusedEnd, plan.pixels, d, dstSlot, dstStride,
                              channels);
    }
    if (cb < fp) {
      const std::int64_t channels = st.outChannels - cb;
      float* d = dst + cb * dstStride;
      convPixels<8, 1, kFma>(plan, plan.packed + cb, fp, bias + cb, 0,
                             fusedEnd, d, dstSlot, dstStride, channels);
      convPixels<8, 1, false>(plan, plan.packed + cb, fp, bias + cb,
                              fusedEnd, plan.pixels, d, dstSlot, dstStride,
                              channels);
    }
  }
  static double sumVec(const float* x, std::size_t n) {
    return Ops::sumVec(x, n);
  }
};
#endif  // defined(__AVX2__)

}  // namespace

}  // namespace detail

}  // namespace dagt::tensor::kernels
