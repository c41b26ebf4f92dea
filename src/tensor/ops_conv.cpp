#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "obs/trace.hpp"
#include "tensor/expr.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/ops_common.hpp"

namespace dagt::tensor {

using detail::attachTape;
using detail::makeOut;
using detail::tapeActive;

namespace {

struct ConvDims {
  std::int64_t n, c, h, w;        // input
  std::int64_t f, kh, kw;         // filter
  std::int64_t stride, pad;
  std::int64_t oh, ow;            // output spatial
  std::int64_t colRows;           // c*kh*kw
  std::int64_t colCols;           // oh*ow
};

ConvDims convDims(const Tensor& input, const Tensor& weight,
                  std::int64_t stride, std::int64_t pad) {
  DAGT_CHECK(input.ndim() == 4 && weight.ndim() == 4);
  ConvDims d{};
  d.n = input.dim(0);
  d.c = input.dim(1);
  d.h = input.dim(2);
  d.w = input.dim(3);
  d.f = weight.dim(0);
  DAGT_CHECK_MSG(weight.dim(1) == d.c, "conv2d: channel mismatch");
  d.kh = weight.dim(2);
  d.kw = weight.dim(3);
  d.stride = stride;
  d.pad = pad;
  DAGT_CHECK(stride >= 1 && pad >= 0);
  d.oh = (d.h + 2 * pad - d.kh) / stride + 1;
  d.ow = (d.w + 2 * pad - d.kw) / stride + 1;
  DAGT_CHECK_MSG(d.oh >= 1 && d.ow >= 1, "conv2d: kernel larger than input");
  d.colRows = d.c * d.kh * d.kw;
  d.colCols = d.oh * d.ow;
  return d;
}

/// Output positions [begin, end) along one axis whose input coordinate
/// o * stride + k - pad falls inside [0, size).
std::pair<std::int64_t, std::int64_t> insideRange(std::int64_t k,
                                                  std::int64_t size,
                                                  std::int64_t outSize,
                                                  const ConvDims& d) {
  const std::int64_t low = d.pad - k;  // o * stride >= low
  const std::int64_t high = size - 1 + d.pad - k;  // o * stride <= high
  if (high < 0) return {0, 0};
  const std::int64_t begin = low <= 0 ? 0 : (low + d.stride - 1) / d.stride;
  const std::int64_t end = std::min(outSize, high / d.stride + 1);
  return {std::min(begin, end), end};
}

/// Expand one sample (channels-first) into the im2col matrix
/// [colRows, colCols]; out-of-bounds (padding) entries are zero. Each
/// kernel offset's in-bounds output rectangle is computed once, so the
/// inner loop copies a run (contiguous at stride 1) and zero-fills the
/// padding around it without testing bounds per element. Every entry of
/// `col` is written.
void im2col(const float* img, const ConvDims& d, float* col) {
  for (std::int64_t ky = 0; ky < d.kh; ++ky) {
    const auto [oyBegin, oyEnd] = insideRange(ky, d.h, d.oh, d);
    for (std::int64_t kx = 0; kx < d.kw; ++kx) {
      const auto [oxBegin, oxEnd] = insideRange(kx, d.w, d.ow, d);
      const std::int64_t shift = kx - d.pad;
      for (std::int64_t ch = 0; ch < d.c; ++ch) {
        const std::int64_t row = (ch * d.kh + ky) * d.kw + kx;
        float* dst = col + row * d.colCols;
        std::fill(dst, dst + oyBegin * d.ow, 0.0f);
        for (std::int64_t oy = oyBegin; oy < oyEnd; ++oy) {
          const float* in =
              img + (ch * d.h + oy * d.stride + ky - d.pad) * d.w;
          float* out = dst + oy * d.ow;
          std::fill(out, out + oxBegin, 0.0f);
          if (d.stride == 1) {
            std::copy(in + oxBegin + shift, in + oxEnd + shift,
                      out + oxBegin);
          } else {
            for (std::int64_t ox = oxBegin; ox < oxEnd; ++ox) {
              out[ox] = in[ox * d.stride + shift];
            }
          }
          std::fill(out + oxEnd, out + d.ow, 0.0f);
        }
        std::fill(dst + oyEnd * d.ow, dst + d.colCols, 0.0f);
      }
    }
  }
}

/// Scatter-add the im2col gradient back into the image gradient.
void col2imAcc(const float* col, const ConvDims& d, float* imgGrad) {
  for (std::int64_t ch = 0; ch < d.c; ++ch) {
    for (std::int64_t ky = 0; ky < d.kh; ++ky) {
      for (std::int64_t kx = 0; kx < d.kw; ++kx) {
        const std::int64_t row = (ch * d.kh + ky) * d.kw + kx;
        const float* src = col + row * d.colCols;
        for (std::int64_t oy = 0; oy < d.oh; ++oy) {
          const std::int64_t iy = oy * d.stride + ky - d.pad;
          if (iy < 0 || iy >= d.h) continue;
          for (std::int64_t ox = 0; ox < d.ow; ++ox) {
            const std::int64_t ix = ox * d.stride + kx - d.pad;
            if (ix < 0 || ix >= d.w) continue;
            imgGrad[(ch * d.h + iy) * d.w + ix] += src[oy * d.ow + ox];
          }
        }
      }
    }
  }
}

}  // namespace

Tensor conv2d(const Tensor& input, const Tensor& weight, const Tensor& bias,
              std::int64_t stride, std::int64_t padding) {
  const ConvDims d = convDims(input, weight, stride, padding);
  if (bias.defined()) {
    DAGT_CHECK(bias.ndim() == 1 && bias.dim(0) == d.f);
  }
  if (expr::Recorder::active()) {
    // Bias is optional; record it only when present (the replayer passes an
    // undefined tensor for two-input conv nodes).
    if (bias.defined()) {
      return expr::Recorder::current()->record(
          expr::OpKind::kConv2d, Shape{d.n, d.f, d.oh, d.ow},
          {&input, &weight, &bias}, 0.0f, 0, stride, padding);
    }
    return expr::Recorder::current()->record(
        expr::OpKind::kConv2d, Shape{d.n, d.f, d.oh, d.ow}, {&input, &weight},
        0.0f, 0, stride, padding);
  }
  auto out = makeOut({d.n, d.f, d.oh, d.ow});

  const float* wp = weight.data();
  const float* bp = bias.defined() ? bias.data() : nullptr;
  const float* ip = input.data();
  const std::int64_t imgSize = d.c * d.h * d.w;
  const std::int64_t outSize = d.f * d.colCols;

  const kernels::KernelTable& kt = kernels::active();
  parallelFor(0, static_cast<std::size_t>(d.n), [&](std::size_t s) {
    // One im2col scratch per thread, reused across that thread's samples
    // (im2col writes every entry, so no zero-fill). parallelFor's workers
    // live for one call, so each allocates once per call; only a loop run
    // inline on the caller keeps its scratch, at its largest size, across
    // calls.
    thread_local std::vector<float> col;
    col.resize(static_cast<std::size_t>(d.colRows * d.colCols));
    im2col(ip + static_cast<std::int64_t>(s) * imgSize, d, col.data());
    float* op = out->data.data() + static_cast<std::int64_t>(s) * outSize;
    // out = W[f, colRows] * col[colRows, colCols] (+ bias), one GEMM per
    // sample through the active kernel tier. makeOut zero-filled `op`, so
    // without bias the accumulate starts from 0; with bias we seed rows.
    if (bp) {
      for (std::int64_t f = 0; f < d.f; ++f) {
        float* orow = op + f * d.colCols;
        for (std::int64_t j = 0; j < d.colCols; ++j) orow[j] = bp[f];
      }
    }
    DAGT_TRACE_SCOPE("kernel/gemm");
    kt.gemmRows(wp, col.data(), op, 0, d.f, d.colRows, d.colCols);
  }, /*grainSize=*/1);

  if (tapeActive({&input, &weight, &bias})) {
    auto ii = input.impl();
    auto wi = weight.impl();
    auto bi = bias.defined() ? bias.impl() : nullptr;
    attachTape(out, {&input, &weight, &bias},
               [ii, wi, bi, d, imgSize, outSize](TensorImpl& self) {
                 if (wi->requiresGrad) wi->ensureGrad();
                 if (bi && bi->requiresGrad) bi->ensureGrad();
                 if (ii->requiresGrad) ii->ensureGrad();
                 const kernels::KernelTable& kt = kernels::active();
                 std::vector<float> col(
                     static_cast<std::size_t>(d.colRows * d.colCols));
                 std::vector<float> colGrad(col.size());
                 // Serial over samples: weight-grad accumulation is shared.
                 for (std::int64_t s = 0; s < d.n; ++s) {
                   const float* go = self.grad.data() + s * outSize;
                   im2col(ii->data.data() + s * imgSize, d, col.data());
                   if (wi->requiresGrad) {
                     // dW[f, r] += sum_j go[f, j] * col[r, j]: one
                     // A*B^T GEMM (dot-based, bitwise across tiers).
                     DAGT_TRACE_SCOPE("kernel/gemm");
                     kt.gemmTransBRows(go, col.data(), wi->grad.data(), 0,
                                       d.f, d.colCols, d.colRows);
                   }
                   if (bi && bi->requiresGrad) {
                     float* bg = bi->grad.data();
                     for (std::int64_t f = 0; f < d.f; ++f) {
                       bg[f] += static_cast<float>(
                           kt.sumVec(go + f * d.colCols,
                                     static_cast<std::size_t>(d.colCols)));
                     }
                   }
                   if (ii->requiresGrad) {
                     // dcol = W^T * dOut (A^T B GEMM over the col rows),
                     // then scatter back with col2im.
                     std::fill(colGrad.begin(), colGrad.end(), 0.0f);
                     {
                       DAGT_TRACE_SCOPE("kernel/gemm");
                       kt.gemmTransARows(wi->data.data(), go, colGrad.data(),
                                         0, d.colRows, d.f, d.colRows,
                                         d.colCols);
                     }
                     col2imAcc(colGrad.data(), d,
                               ii->grad.data() + s * imgSize);
                   }
                 }
               });
  }
  return Tensor(std::move(out));
}

Tensor maxPool2d(const Tensor& input) {
  DAGT_CHECK(input.ndim() == 4);
  const std::int64_t n = input.dim(0);
  const std::int64_t c = input.dim(1);
  const std::int64_t h = input.dim(2);
  const std::int64_t w = input.dim(3);
  const std::int64_t oh = h / 2;
  const std::int64_t ow = w / 2;
  DAGT_CHECK_MSG(oh >= 1 && ow >= 1, "maxPool2d: input too small");
  if (expr::Recorder::active()) {
    return expr::Recorder::current()->record(expr::OpKind::kMaxPool2d,
                                             Shape{n, c, oh, ow}, {&input});
  }
  auto out = makeOut({n, c, oh, ow});
  auto argmax = std::make_shared<std::vector<std::int64_t>>(
      static_cast<std::size_t>(n * c * oh * ow));
  const float* p = input.data();
  float* po = out->data.data();
  std::size_t o = 0;
  for (std::int64_t plane = 0; plane < n * c; ++plane) {
    const float* img = p + plane * h * w;
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox, ++o) {
        float best = -std::numeric_limits<float>::infinity();
        std::int64_t bestIdx = -1;
        for (std::int64_t dy = 0; dy < 2; ++dy) {
          for (std::int64_t dx = 0; dx < 2; ++dx) {
            const std::int64_t iy = oy * 2 + dy;
            const std::int64_t ix = ox * 2 + dx;
            const float v = img[iy * w + ix];
            if (v > best) {
              best = v;
              bestIdx = plane * h * w + iy * w + ix;
            }
          }
        }
        po[o] = best;
        (*argmax)[o] = bestIdx;
      }
    }
  }
  if (tapeActive({&input})) {
    auto ii = input.impl();
    attachTape(out, {&input}, [ii, argmax](TensorImpl& self) {
      ii->ensureGrad();
      float* g = ii->grad.data();
      const float* gs = self.grad.data();
      for (std::size_t i = 0; i < self.data.size(); ++i) {
        g[(*argmax)[i]] += gs[i];
      }
    });
  }
  return Tensor(std::move(out));
}

Tensor globalAvgPool(const Tensor& input) {
  DAGT_CHECK(input.ndim() == 4);
  const std::int64_t n = input.dim(0);
  const std::int64_t c = input.dim(1);
  const std::int64_t spatial = input.dim(2) * input.dim(3);
  DAGT_CHECK(spatial > 0);
  if (expr::Recorder::active()) {
    return expr::Recorder::current()->record(expr::OpKind::kGlobalAvgPool,
                                             Shape{n, c}, {&input});
  }
  auto out = makeOut({n, c});
  const float* p = input.data();
  float* po = out->data.data();
  const kernels::KernelTable& kt = kernels::active();
  for (std::int64_t plane = 0; plane < n * c; ++plane) {
    po[plane] = static_cast<float>(
        kt.sumVec(p + plane * spatial, static_cast<std::size_t>(spatial)) /
        static_cast<double>(spatial));
  }
  if (tapeActive({&input})) {
    auto ii = input.impl();
    attachTape(out, {&input}, [ii, spatial](TensorImpl& self) {
      ii->ensureGrad();
      const kernels::KernelTable& kt = kernels::active();
      float* gi = ii->grad.data();
      const float* gs = self.grad.data();
      const float inv = 1.0f / static_cast<float>(spatial);
      for (std::size_t plane = 0; plane < self.data.size(); ++plane) {
        float* grow = gi + plane * static_cast<std::size_t>(spatial);
        kt.addScalarVec(grow, gs[plane] * inv, grow,
                        static_cast<std::size_t>(spatial));
      }
    });
  }
  return Tensor(std::move(out));
}

}  // namespace dagt::tensor
