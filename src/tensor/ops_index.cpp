#include <cstring>
#include <limits>

#include <vector>

#include "tensor/expr.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/ops_common.hpp"

namespace dagt::tensor {

using detail::attachTape;
using detail::makeOut;
using detail::tapeActive;

namespace {

/// Per-thread row-pointer scratch of at least n entries: the gathers below
/// resolve their rows into it, so a steady-state call allocates nothing but
/// its output.
std::vector<const float*>& rowPtrScratch(std::size_t n) {
  thread_local std::vector<const float*> scratch;
  if (scratch.size() < n) scratch.resize(n);
  return scratch;
}

}  // namespace

using detail::checkedRow;

Tensor indexSelect0(const Tensor& t, const std::vector<std::int64_t>& index) {
  DAGT_CHECK(t.ndim() == 2);
  // Index vectors are rebuilt per batch on the host, so capturing them would
  // recompile a program every call; gather stays outside compiled regions.
  DAGT_DCHECK_MSG(!expr::Recorder::active(),
                  "indexSelect0 is not expression-capturable");
  const std::int64_t rows = t.dim(0);
  const std::int64_t cols = t.dim(1);
  const std::int64_t outRows = static_cast<std::int64_t>(index.size());
  auto out = makeOut({outRows, cols});
  const float* p = t.data();
  float* po = out->data.data();
  std::vector<const float*>& rowPtrs = rowPtrScratch(index.size());
  for (std::int64_t r = 0; r < outRows; ++r) {
    const std::int64_t src = index[static_cast<std::size_t>(r)];
    DAGT_CHECK_MSG(src >= 0 && src < rows,
                   "indexSelect0: index " << src << " out of " << rows);
    rowPtrs[static_cast<std::size_t>(r)] = p + src * cols;
  }
  kernels::active().gatherRowsPtrs(rowPtrs.data(), outRows, cols, po);
  if (tapeActive({&t})) {
    auto ti = t.impl();
    attachTape(out, {&t}, [ti, index, cols](TensorImpl& self) {
      ti->ensureGrad();
      float* g = ti->grad.data();
      const float* gs = self.grad.data();
      const std::int64_t outCount = static_cast<std::int64_t>(index.size());
      for (std::int64_t r = 0; r < outCount; ++r) {
        const std::int64_t dst = index[static_cast<std::size_t>(r)];
        for (std::int64_t c = 0; c < cols; ++c) {
          g[dst * cols + c] += gs[r * cols + c];
        }
      }
    });
  }
  return Tensor(std::move(out));
}

Tensor indexSelectBlocks(const std::vector<Tensor>& blocks,
                         std::int64_t rowsPerBlock,
                         const std::vector<std::int64_t>& index) {
  DAGT_CHECK(!blocks.empty() && rowsPerBlock > 0);
  DAGT_DCHECK_MSG(!expr::Recorder::active(),
                  "indexSelectBlocks is not expression-capturable");
  const Tensor& last = blocks.back();
  DAGT_CHECK(last.ndim() == 2 && last.dim(0) <= rowsPerBlock);
  const std::int64_t rows =
      static_cast<std::int64_t>(blocks.size() - 1) * rowsPerBlock +
      last.dim(0);
  const std::int64_t cols = last.dim(1);
  const std::int64_t outRows = static_cast<std::int64_t>(index.size());
  auto out = makeOut({outRows, cols});
  std::vector<const float*>& rowPtrs = rowPtrScratch(index.size());
  for (std::int64_t r = 0; r < outRows; ++r) {
    const std::int64_t src = index[static_cast<std::size_t>(r)];
    DAGT_CHECK_MSG(src >= 0 && src < rows,
                   "indexSelectBlocks: index " << src << " out of " << rows);
    const Tensor& block = blocks[static_cast<std::size_t>(src / rowsPerBlock)];
    DAGT_DCHECK_MSG(block.dim(1) == cols, "indexSelectBlocks: column mismatch");
    rowPtrs[static_cast<std::size_t>(r)] =
        block.data() + (src % rowsPerBlock) * cols;
  }
  kernels::active().gatherRowsPtrs(rowPtrs.data(), outRows, cols,
                                   out->data.data());
  return Tensor(std::move(out));
}

Tensor gatherRowsMulti(
    const std::vector<Tensor>& mats,
    const std::vector<std::pair<std::int32_t, std::int64_t>>& index) {
  DAGT_CHECK(!mats.empty());
  DAGT_DCHECK_MSG(!expr::Recorder::active(),
                  "gatherRowsMulti is not expression-capturable");
  DAGT_CHECK(mats.front().ndim() == 2);
  const std::int64_t cols = mats.front().dim(1);
  const std::int64_t outRows = static_cast<std::int64_t>(index.size());
  auto out = makeOut({outRows, cols});
  float* po = out->data.data();
  std::vector<const float*>& rowPtrs = rowPtrScratch(index.size());
  for (std::int64_t r = 0; r < outRows; ++r) {
    rowPtrs[static_cast<std::size_t>(r)] = checkedRow(
        mats, index[static_cast<std::size_t>(r)], cols, "gatherRowsMulti");
  }
  kernels::active().gatherRowsPtrs(rowPtrs.data(), outRows, cols, po);

  bool anyGrad = false;
  if (NoGradGuard::gradEnabled()) {
    for (const auto& m : mats) anyGrad = anyGrad || m.requiresGrad();
  }
  if (anyGrad) {
    std::vector<std::shared_ptr<TensorImpl>> impls;
    impls.reserve(mats.size());
    for (const auto& m : mats) impls.push_back(m.impl());
    out->requiresGrad = true;
    for (const auto& m : mats) {
      if (m.requiresGrad()) out->parents.push_back(m.impl());
    }
    out->backwardFn = [impls, index, cols](TensorImpl& self) {
      const float* gs = self.grad.data();
      const std::int64_t outCount = static_cast<std::int64_t>(index.size());
      for (std::int64_t r = 0; r < outCount; ++r) {
        const auto [ord, row] = index[static_cast<std::size_t>(r)];
        auto& impl = impls[static_cast<std::size_t>(ord)];
        if (!impl->requiresGrad) continue;
        impl->ensureGrad();
        float* g = impl->grad.data();
        for (std::int64_t c = 0; c < cols; ++c) {
          g[row * cols + c] += gs[r * cols + c];
        }
      }
    };
  }
  return Tensor(std::move(out));
}

Tensor segmentSum(const Tensor& src, const std::vector<std::int64_t>& segment,
                  std::int64_t numSegments) {
  DAGT_CHECK(src.ndim() == 2);
  DAGT_DCHECK_MSG(!expr::Recorder::active(),
                  "segmentSum is not expression-capturable");
  const std::int64_t rows = src.dim(0);
  const std::int64_t cols = src.dim(1);
  DAGT_CHECK_MSG(static_cast<std::int64_t>(segment.size()) == rows,
                 "segmentSum: segment size mismatch");
  auto out = makeOut({numSegments, cols});
  const float* p = src.data();
  float* po = out->data.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::int64_t s = segment[static_cast<std::size_t>(r)];
    DAGT_CHECK_MSG(s >= 0 && s < numSegments,
                   "segmentSum: segment " << s << " out of " << numSegments);
  }
  kernels::active().segmentSumRows(p, segment.data(), rows, cols, po);
  if (tapeActive({&src})) {
    auto si = src.impl();
    attachTape(out, {&src}, [si, segment, cols](TensorImpl& self) {
      si->ensureGrad();
      float* g = si->grad.data();
      const float* gs = self.grad.data();
      const std::int64_t rowCount =
          static_cast<std::int64_t>(segment.size());
      for (std::int64_t r = 0; r < rowCount; ++r) {
        const std::int64_t s = segment[static_cast<std::size_t>(r)];
        for (std::int64_t c = 0; c < cols; ++c) {
          g[r * cols + c] += gs[s * cols + c];
        }
      }
    });
  }
  return Tensor(std::move(out));
}

Tensor segmentMax(const Tensor& src, const std::vector<std::int64_t>& segment,
                  std::int64_t numSegments) {
  DAGT_CHECK(src.ndim() == 2);
  DAGT_DCHECK_MSG(!expr::Recorder::active(),
                  "segmentMax is not expression-capturable");
  const std::int64_t rows = src.dim(0);
  const std::int64_t cols = src.dim(1);
  DAGT_CHECK_MSG(static_cast<std::int64_t>(segment.size()) == rows,
                 "segmentMax: segment size mismatch");
  auto out = makeOut({numSegments, cols});
  const float lowest = -std::numeric_limits<float>::infinity();
  std::fill(out->data.begin(), out->data.end(), lowest);
  // argmax[s*cols + c] = source row achieving the max (-1 = empty segment),
  // kept only for the backward pass.
  const bool tape = tapeActive({&src});
  std::shared_ptr<std::vector<std::int64_t>> argmax;
  if (tape) {
    argmax = std::make_shared<std::vector<std::int64_t>>(
        static_cast<std::size_t>(numSegments * cols), -1);
  }
  const float* p = src.data();
  float* po = out->data.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::int64_t s = segment[static_cast<std::size_t>(r)];
    DAGT_CHECK_MSG(s >= 0 && s < numSegments,
                   "segmentMax: segment " << s << " out of " << numSegments);
    const float* in = p + r * cols;
    float* acc = po + s * cols;
    if (argmax == nullptr) {
      for (std::int64_t c = 0; c < cols; ++c) {
        acc[c] = in[c] > acc[c] ? in[c] : acc[c];
      }
      continue;
    }
    std::int64_t* arg = argmax->data() + s * cols;
    for (std::int64_t c = 0; c < cols; ++c) {
      if (in[c] > acc[c]) {
        acc[c] = in[c];
        arg[c] = r;
      }
    }
  }
  // Empty segments: -inf would poison downstream math; define them as 0. A
  // slot still holds -inf exactly when no value beat it, i.e. when its
  // argmax would be -1.
  for (float& v : out->data) {
    if (v == lowest) v = 0.0f;
  }
  if (tape) {
    auto si = src.impl();
    attachTape(out, {&src}, [si, argmax, cols](TensorImpl& self) {
      si->ensureGrad();
      float* g = si->grad.data();
      const float* gs = self.grad.data();
      const std::int64_t outCount =
          static_cast<std::int64_t>(self.data.size());
      for (std::int64_t i = 0; i < outCount; ++i) {
        const std::int64_t r = (*argmax)[static_cast<std::size_t>(i)];
        if (r < 0) continue;
        const std::int64_t c = i % cols;
        g[r * cols + c] += gs[i];
      }
    });
  }
  return Tensor(std::move(out));
}

}  // namespace dagt::tensor
