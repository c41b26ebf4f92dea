// Fixture (never compiled): analyzed as src/tensor/ops_fixture.cpp.
// Exactly one kernel-alloc violation survives; the second is suppressed.
#include "tensor/ops_common.hpp"

namespace dagt::tensor {

Tensor badKernel(const Tensor& t) {
  Tensor out = Tensor::zeros(t.shape());  // naked alloc: bypasses BufferPool
  float* scratch =
      new float[16];  // dagt-analyze: allow(kernel-alloc) -- fixture suppression
  (void)scratch;
  return out;
}

Tensor goodKernel(const Tensor& t) {
  auto out = detail::makeOut(t.shape());  // pooled: what the rule wants
  return Tensor(std::move(out));
}

}  // namespace dagt::tensor
