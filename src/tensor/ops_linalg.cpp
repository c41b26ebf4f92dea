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

// The three GEMM shapes (forward, dA, dB) all dispatch through the active
// kernel tier and parallelize over blocks of C rows — never over the
// accumulation dimension, which is what keeps every tier bitwise
// reproducible across thread counts (see src/tensor/kernels/kernels.hpp).
constexpr std::size_t kGemmRowGrain = 32;

/// C[n,m] += A[n,k] * B[k,m]. For large shapes whose tier packs B into a
/// panel (avx2fma), the panel is packed ONCE here into a pooled buffer and
/// shared read-only by every parallelForRange worker, instead of each
/// worker re-packing its own thread-local copy per row block. Packing is a
/// bit-copy, so sharing cannot change results.
void gemmAcc(const float* a, const float* b, float* c, std::int64_t n,
             std::int64_t k, std::int64_t m) {
  DAGT_TRACE_SCOPE("kernel/gemm");
  const kernels::KernelTable& kt = kernels::active();
  const std::int64_t panelSize = kt.gemmPackBSize(k, m);
  if (panelSize > 0 && n >= static_cast<std::int64_t>(2 * kGemmRowGrain)) {
    // Pooled scratch, not an op output: the packed panel is shared by every
    // parallelForRange worker and dies with this call.
    Storage panel =  // dagt-analyze: allow(kernel-alloc) -- shared scratch
        Storage::allocate(static_cast<std::size_t>(panelSize));
    kt.gemmPackB(b, k, m, panel.data());
    const float* packed = panel.data();
    parallelForRange(0, static_cast<std::size_t>(n),
                     [&](std::size_t rowBegin, std::size_t rowEnd) {
                       kt.gemmRowsPacked(a, b, packed, c,
                                         static_cast<std::int64_t>(rowBegin),
                                         static_cast<std::int64_t>(rowEnd), k,
                                         m);
                     },
                     kGemmRowGrain);
    return;
  }
  parallelForRange(0, static_cast<std::size_t>(n),
                   [&](std::size_t rowBegin, std::size_t rowEnd) {
                     kt.gemmRows(a, b, c, static_cast<std::int64_t>(rowBegin),
                                 static_cast<std::int64_t>(rowEnd), k, m);
                   },
                   kGemmRowGrain);
}

/// C[n,m] += A^T * B for A [k,n], B [k,m]. Each worker owns a block of C
/// rows outright and accumulates its full sum over k, so there is no
/// cross-thread write sharing; the column reads a[p*n + i] are strided, but
/// the contiguous B-row reads and C-row writes dominate.
void gemmTransAAcc(const float* a, const float* b, float* c, std::int64_t k,
                   std::int64_t n, std::int64_t m) {
  DAGT_TRACE_SCOPE("kernel/gemm");
  const kernels::KernelTable& kt = kernels::active();
  parallelForRange(0, static_cast<std::size_t>(n),
                   [&](std::size_t rowBegin, std::size_t rowEnd) {
                     kt.gemmTransARows(a, b, c,
                                       static_cast<std::int64_t>(rowBegin),
                                       static_cast<std::int64_t>(rowEnd), k, n,
                                       m);
                   },
                   kGemmRowGrain);
}

/// C[n,k] += A[n,m] * B^T where B is [k,m]. Dot-product based: bitwise
/// identical in every kernel tier.
void gemmTransBAcc(const float* a, const float* b, float* c, std::int64_t n,
                   std::int64_t m, std::int64_t k) {
  DAGT_TRACE_SCOPE("kernel/gemm");
  const kernels::KernelTable& kt = kernels::active();
  parallelForRange(0, static_cast<std::size_t>(n),
                   [&](std::size_t rowBegin, std::size_t rowEnd) {
                     kt.gemmTransBRows(a, b, c,
                                       static_cast<std::int64_t>(rowBegin),
                                       static_cast<std::int64_t>(rowEnd), m,
                                       k);
                   },
                   kGemmRowGrain);
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
