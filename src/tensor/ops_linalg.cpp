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

// The three GEMM shapes (forward, dA, dB) run over all of C's rows in one
// call through the active kernel tier (see src/tensor/kernels/kernels.hpp
// for each tier's rounding contract).

/// C[n,m] += A[n,k] * B[k,m].
void gemmAcc(const float* a, const float* b, float* c, std::int64_t n,
             std::int64_t k, std::int64_t m) {
  DAGT_TRACE_SCOPE("kernel/gemm");
  kernels::active().gemmRows(a, b, c, 0, n, k, m);
}

/// C[n,m] += A^T * B for A [k,n], B [k,m]. Each C row accumulates its full
/// sum over k; the column reads a[p*n + i] are strided, but the contiguous
/// B-row reads and C-row writes dominate.
void gemmTransAAcc(const float* a, const float* b, float* c, std::int64_t k,
                   std::int64_t n, std::int64_t m) {
  DAGT_TRACE_SCOPE("kernel/gemm");
  kernels::active().gemmTransARows(a, b, c, 0, n, k, n, m);
}

/// C[n,k] += A[n,m] * B^T where B is [k,m]. Dot-product based: bitwise
/// identical in every kernel tier.
void gemmTransBAcc(const float* a, const float* b, float* c, std::int64_t n,
                   std::int64_t m, std::int64_t k) {
  DAGT_TRACE_SCOPE("kernel/gemm");
  kernels::active().gemmTransBRows(a, b, c, 0, n, m, k);
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  DAGT_CHECK(a.ndim() == 2 && b.ndim() == 2);
  const std::int64_t n = a.dim(0);
  const std::int64_t k = a.dim(1);
  const std::int64_t m = b.dim(1);
  DAGT_CHECK_MSG(b.dim(0) == k, "matmul: inner dims " << k << " vs "
                                                      << b.dim(0));
  if (expr::Recorder::active()) {
    return expr::Recorder::current()->record(expr::OpKind::kMatmul,
                                             Shape{n, m}, {&a, &b});
  }
  auto out = makeOut({n, m});
  gemmAcc(a.data(), b.data(), out->data.data(), n, k, m);
  if (tapeActive({&a, &b})) {
    auto ai = a.impl();
    auto bi = b.impl();
    attachTape(out, {&a, &b}, [ai, bi, n, k, m](TensorImpl& self) {
      // dA = dC * B^T ; dB = A^T * dC
      if (ai->requiresGrad) {
        ai->ensureGrad();
        gemmTransBAcc(self.grad.data(), bi->data.data(), ai->grad.data(), n,
                      m, k);
      }
      if (bi->requiresGrad) {
        bi->ensureGrad();
        gemmTransAAcc(ai->data.data(), self.grad.data(), bi->grad.data(), n,
                      k, m);
      }
    });
  }
  return Tensor(std::move(out));
}

Tensor transpose2d(const Tensor& t) {
  DAGT_CHECK(t.ndim() == 2);
  const std::int64_t rows = t.dim(0);
  const std::int64_t cols = t.dim(1);
  if (expr::Recorder::active()) {
    return expr::Recorder::current()->record(expr::OpKind::kTranspose2d,
                                             Shape{cols, rows}, {&t});
  }
  auto out = makeOut({cols, rows});
  const float* p = t.data();
  float* po = out->data.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      po[c * rows + r] = p[r * cols + c];
    }
  }
  if (tapeActive({&t})) {
    auto ti = t.impl();
    attachTape(out, {&t}, [ti, rows, cols](TensorImpl& self) {
      ti->ensureGrad();
      float* g = ti->grad.data();
      const float* gs = self.grad.data();
      for (std::int64_t r = 0; r < rows; ++r) {
        for (std::int64_t c = 0; c < cols; ++c) {
          g[r * cols + c] += gs[c * rows + r];
        }
      }
    });
  }
  return Tensor(std::move(out));
}

}  // namespace dagt::tensor
