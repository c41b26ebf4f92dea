#include <algorithm>
#include <cmath>

#include "tensor/expr.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/ops_common.hpp"

namespace dagt::tensor {

using detail::attachTape;
using detail::makeOut;
using detail::tapeActive;

Tensor sumAll(const Tensor& t) {
  if (expr::Recorder::active()) {
    return expr::Recorder::current()->record(expr::OpKind::kSumAll, Shape{1},
                                             {&t});
  }
  auto out = makeOut({1});
  // Lane-blocked double accumulation (see kernels.hpp): stable over long
  // sums and bitwise identical in every dispatch tier.
  out->data[0] = static_cast<float>(kernels::active().sumVec(
      t.data(), static_cast<std::size_t>(t.numel())));
  if (tapeActive({&t})) {
    auto ti = t.impl();
    attachTape(out, {&t}, [ti](TensorImpl& self) {
      ti->ensureGrad();
      const float g = self.grad[0];
      kernels::active().addScalarVec(ti->grad.data(), g, ti->grad.data(),
                                     ti->grad.size());
    });
  }
  return Tensor(std::move(out));
}

Tensor meanAll(const Tensor& t) {
  DAGT_CHECK(t.numel() > 0);
  return mulScalar(sumAll(t), 1.0f / static_cast<float>(t.numel()));
}

Tensor sumDim0(const Tensor& t) {
  DAGT_CHECK(t.ndim() == 2);
  if (expr::Recorder::active()) {
    return expr::Recorder::current()->record(expr::OpKind::kSumDim0,
                                             Shape{t.dim(1)}, {&t});
  }
  const std::int64_t rows = t.dim(0);
  const std::int64_t cols = t.dim(1);
  auto out = makeOut({cols});
  const float* p = t.data();
  float* po = out->data.data();
  const kernels::KernelTable& kt = kernels::active();
  for (std::int64_t r = 0; r < rows; ++r) {
    kt.accAddVec(p + r * cols, po, static_cast<std::size_t>(cols));
  }
  if (tapeActive({&t})) {
    auto ti = t.impl();
    attachTape(out, {&t}, [ti, rows, cols](TensorImpl& self) {
      ti->ensureGrad();
      float* g = ti->grad.data();
      const float* gs = self.grad.data();
      for (std::int64_t r = 0; r < rows; ++r) {
        for (std::int64_t c = 0; c < cols; ++c) {
          g[r * cols + c] += gs[c];
        }
      }
    });
  }
  return Tensor(std::move(out));
}

Tensor meanDim0(const Tensor& t) {
  DAGT_CHECK(t.ndim() == 2 && t.dim(0) > 0);
  return mulScalar(sumDim0(t), 1.0f / static_cast<float>(t.dim(0)));
}

Tensor sumDim1(const Tensor& t) {
  DAGT_CHECK(t.ndim() == 2);
  if (expr::Recorder::active()) {
    return expr::Recorder::current()->record(expr::OpKind::kSumDim1,
                                             Shape{t.dim(0)}, {&t});
  }
  const std::int64_t rows = t.dim(0);
  const std::int64_t cols = t.dim(1);
  auto out = makeOut({rows});
  const float* p = t.data();
  float* po = out->data.data();
  const kernels::KernelTable& kt = kernels::active();
  for (std::int64_t r = 0; r < rows; ++r) {
    po[r] = static_cast<float>(
        kt.sumVec(p + r * cols, static_cast<std::size_t>(cols)));
  }
  if (tapeActive({&t})) {
    auto ti = t.impl();
    attachTape(out, {&t}, [ti, rows, cols](TensorImpl& self) {
      ti->ensureGrad();
      const kernels::KernelTable& kt = kernels::active();
      float* gt = ti->grad.data();
      const float* gs = self.grad.data();
      for (std::int64_t r = 0; r < rows; ++r) {
        float* grow = gt + r * cols;
        kt.addScalarVec(grow, gs[r], grow, static_cast<std::size_t>(cols));
      }
    });
  }
  return Tensor(std::move(out));
}

Tensor meanDim1(const Tensor& t) {
  DAGT_CHECK(t.ndim() == 2 && t.dim(1) > 0);
  return mulScalar(sumDim1(t), 1.0f / static_cast<float>(t.dim(1)));
}

Tensor logSumExpDim1(const Tensor& t) {
  DAGT_CHECK(t.ndim() == 2);
  // Not capturable (double-precision max-subtracted accumulation has no
  // fused lowering); callers keep it outside compiled programs.
  DAGT_DCHECK_MSG(!expr::Recorder::active(),
                  "logSumExpDim1 is not expression-capturable");
  const std::int64_t rows = t.dim(0);
  const std::int64_t cols = t.dim(1);
  DAGT_CHECK(cols > 0);
  auto out = makeOut({rows});
  const float* p = t.data();
  // Store the row softmax implicitly via recomputation in backward; the
  // forward keeps only the LSE values. Backward: d/dx_ij = softmax_ij * g_i.
  float* po = out->data.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    float rowMax = p[r * cols];
    for (std::int64_t c = 1; c < cols; ++c) {
      rowMax = std::max(rowMax, p[r * cols + c]);
    }
    double acc = 0.0;
    for (std::int64_t c = 0; c < cols; ++c) {
      acc += std::exp(static_cast<double>(p[r * cols + c] - rowMax));
    }
    po[r] = rowMax + static_cast<float>(std::log(acc));
  }
  if (tapeActive({&t})) {
    auto ti = t.impl();
    attachTape(out, {&t}, [ti, rows, cols](TensorImpl& self) {
      ti->ensureGrad();
      const float* in = ti->data.data();
      float* gt = ti->grad.data();
      const float* fo = self.data.data();
      const float* gs = self.grad.data();
      for (std::int64_t r = 0; r < rows; ++r) {
        const float lse = fo[r];
        const float g = gs[r];
        for (std::int64_t c = 0; c < cols; ++c) {
          const float soft = std::exp(in[r * cols + c] - lse);
          gt[r * cols + c] += g * soft;
        }
      }
    });
  }
  return Tensor(std::move(out));
}

}  // namespace dagt::tensor
