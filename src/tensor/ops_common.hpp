#pragma once

// Internal helpers shared by the op implementation files. Not installed as
// public API; include only from src/tensor/*.cpp.

#include <initializer_list>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/tensor.hpp"

namespace dagt::tensor::detail {

/// True when this op should record a backward closure.
inline bool tapeActive(std::initializer_list<const Tensor*> inputs) {
  if (!NoGradGuard::gradEnabled()) return false;
  for (const Tensor* t : inputs) {
    if (t->defined() && t->requiresGrad()) return true;
  }
  return false;
}

/// Fresh output node with the given shape (zero-filled). The buffer comes
/// from the BufferPool, so in steady state op outputs recycle earlier
/// buffers instead of hitting the heap; zero-filling keeps reuse
/// bit-deterministic (several kernels also accumulate into the output).
inline std::shared_ptr<TensorImpl> makeOut(Shape shape) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  impl->data = Storage::zeros(static_cast<std::size_t>(numelOf(impl->shape)));
  DAGT_DCHECK_ALIGNED(impl->data.data(), alignof(float));
  return impl;
}

/// Output node aliasing `base` at [offset, offset + numelOf(shape)) —
/// the zero-copy path behind reshape / sliceRows / flattenView.
inline std::shared_ptr<TensorImpl> makeView(Shape shape, const Storage& base,
                                            std::size_t offset) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  const auto length = static_cast<std::size_t>(numelOf(impl->shape));
  DAGT_DCHECK_MSG(offset + length <= base.size(),
                  "view window [" << offset << ", " << offset + length
                                  << ") escapes base storage of "
                                  << base.size() << " elements");
  impl->data = base.view(offset, length);
  DAGT_DCHECK_ALIGNED(impl->data.data(), alignof(float));
  return impl;
}

/// Attach tape metadata: mark the output grad-requiring and register the
/// grad-requiring inputs as parents for the topological sweep.
///
/// backwardFn is taken as a template parameter (not a type-erased function
/// object parameter) so this header stays free of per-op callable wrappers;
/// the one type erasure happens at the assignment into the tape node.
template <typename BackwardFn>
inline void attachTape(const std::shared_ptr<TensorImpl>& out,
                       std::initializer_list<const Tensor*> inputs,
                       BackwardFn&& backwardFn) {
  out->requiresGrad = true;
  for (const Tensor* t : inputs) {
    if (t->defined() && t->requiresGrad()) out->parents.push_back(t->impl());
  }
  out->backwardFn = std::forward<BackwardFn>(backwardFn);
}

/// Row `row` of mats[ord], checked: the ordinal and the row must be in
/// range, and the matrix must be 2-D with `cols` columns. Only matrices an
/// index reads are checked, so a gather from the earlier levels of a deep
/// sweep costs its rows, not its level count.
inline const float* checkedRow(const std::vector<Tensor>& mats,
                               const std::pair<std::int32_t, std::int64_t>& at,
                               std::int64_t cols, const char* op) {
  const auto [ord, row] = at;
  DAGT_CHECK_MSG(ord >= 0 && ord < static_cast<std::int32_t>(mats.size()),
                 op << ": tensor ordinal " << ord);
  const Tensor& m = mats[static_cast<std::size_t>(ord)];
  DAGT_CHECK_MSG(m.ndim() == 2 && m.dim(1) == cols, op << ": column mismatch");
  DAGT_CHECK_MSG(row >= 0 && row < m.dim(0),
                 op << ": row " << row << " out of " << m.dim(0));
  return m.data() + row * cols;
}

inline void checkSameShape(const Tensor& a, const Tensor& b,
                           const char* opName) {
  DAGT_CHECK_MSG(a.shape() == b.shape(), opName << ": shape mismatch");
}

/// Accumulate src into dst->grad (allocating it first), elementwise.
inline void accumulate(const std::shared_ptr<TensorImpl>& dst,
                       const Storage& src) {
  dst->ensureGrad();
  DAGT_CHECK(dst->grad.size() == src.size());
  // Grad-scatter contract: a view's gradient is dense in its own index
  // space and must never alias the base's gradient (or its data) — the
  // += below would otherwise read its own partial writes.
  DAGT_DCHECK_MSG(!src.aliases(dst->grad),
                  "grad scatter source aliases destination grad");
  DAGT_DCHECK_MSG(!src.aliases(dst->data),
                  "grad scatter source aliases destination data");
  kernels::active().accAddVec(src.data(), dst->grad.data(), src.size());
}

}  // namespace dagt::tensor::detail
