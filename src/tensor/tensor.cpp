#include "tensor/tensor.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/check.hpp"

namespace dagt::tensor {

std::int64_t numelOf(const Shape& shape) {
  std::int64_t n = 1;
  for (const std::int64_t d : shape) {
    DAGT_CHECK_MSG(d >= 0, "negative dimension " << d);
    n *= d;
  }
  return n;
}

void TensorImpl::ensureGrad() {
  if (grad.empty()) grad = Storage::zeros(data.size());
}

namespace {

thread_local bool gGradEnabled = true;

std::shared_ptr<TensorImpl> makeImpl(const Shape& shape, bool requiresGrad) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = shape;
  impl->data = Storage::zeros(static_cast<std::size_t>(numelOf(shape)));
  impl->requiresGrad = requiresGrad;
  return impl;
}

}  // namespace

NoGradGuard::NoGradGuard() : previous_(gGradEnabled) { gGradEnabled = false; }
NoGradGuard::~NoGradGuard() { gGradEnabled = previous_; }
bool NoGradGuard::gradEnabled() { return gGradEnabled; }

Tensor Tensor::zeros(const Shape& shape, bool requiresGrad) {
  return Tensor(makeImpl(shape, requiresGrad));
}

Tensor Tensor::ones(const Shape& shape, bool requiresGrad) {
  return full(shape, 1.0f, requiresGrad);
}

Tensor Tensor::full(const Shape& shape, float value, bool requiresGrad) {
  auto impl = makeImpl(shape, requiresGrad);
  std::fill(impl->data.begin(), impl->data.end(), value);
  return Tensor(std::move(impl));
}

Tensor Tensor::fromVector(const Shape& shape, std::vector<float> values,
                          bool requiresGrad) {
  DAGT_CHECK_MSG(static_cast<std::int64_t>(values.size()) == numelOf(shape),
                 "fromVector: " << values.size() << " values for shape numel "
                                << numelOf(shape));
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = shape;
  impl->data = Storage::adopt(std::move(values));
  impl->requiresGrad = requiresGrad;
  return Tensor(std::move(impl));
}

Tensor Tensor::scalar(float value, bool requiresGrad) {
  return full({1}, value, requiresGrad);
}

Tensor Tensor::randn(const Shape& shape, Rng& rng, float stddev,
                     bool requiresGrad) {
  auto impl = makeImpl(shape, requiresGrad);
  for (auto& v : impl->data) {
    v = static_cast<float>(rng.normal(0.0, stddev));
  }
  return Tensor(std::move(impl));
}

Tensor Tensor::randu(const Shape& shape, Rng& rng, float lo, float hi,
                     bool requiresGrad) {
  auto impl = makeImpl(shape, requiresGrad);
  for (auto& v : impl->data) {
    v = static_cast<float>(rng.uniform(lo, hi));
  }
  return Tensor(std::move(impl));
}

const Shape& Tensor::shape() const {
  DAGT_CHECK(defined());
  return impl_->shape;
}

int Tensor::ndim() const { return static_cast<int>(shape().size()); }

std::int64_t Tensor::dim(int i) const {
  const auto& s = shape();
  const int n = static_cast<int>(s.size());
  if (i < 0) i += n;
  DAGT_CHECK_MSG(i >= 0 && i < n, "dim index " << i << " for rank " << n);
  return s[static_cast<std::size_t>(i)];
}

std::int64_t Tensor::numel() const {
  DAGT_CHECK(defined());
  return static_cast<std::int64_t>(impl_->data.size());
}

float* Tensor::data() {
  DAGT_CHECK(defined());
  return impl_->data.data();
}

const float* Tensor::data() const {
  DAGT_CHECK(defined());
  return impl_->data.data();
}

float Tensor::item() const {
  DAGT_CHECK_MSG(numel() == 1, "item() on tensor with numel " << numel());
  return impl_->data[0];
}

float Tensor::at(std::int64_t row, std::int64_t col) const {
  DAGT_CHECK(ndim() == 2);
  const std::int64_t rows = dim(0);
  const std::int64_t cols = dim(1);
  DAGT_CHECK_MSG(row >= 0 && row < rows && col >= 0 && col < cols,
                 "at(" << row << "," << col << ") out of " << rows << "x"
                       << cols);
  return impl_->data[static_cast<std::size_t>(row * cols + col)];
}

std::vector<float> Tensor::toVector() const {
  DAGT_CHECK(defined());
  return std::vector<float>(impl_->data.begin(), impl_->data.end());
}

bool Tensor::requiresGrad() const {
  DAGT_CHECK(defined());
  return impl_->requiresGrad;
}

void Tensor::setRequiresGrad(bool value) {
  DAGT_CHECK(defined());
  impl_->requiresGrad = value;
}

Tensor Tensor::grad() const {
  DAGT_CHECK(defined());
  if (impl_->grad.empty()) return {};
  return Tensor::fromVector(
      impl_->shape,
      std::vector<float>(impl_->grad.begin(), impl_->grad.end()));
}

void Tensor::zeroGrad() {
  DAGT_CHECK(defined());
  std::fill(impl_->grad.begin(), impl_->grad.end(), 0.0f);
}

void Tensor::backward() {
  DAGT_CHECK(defined());
  DAGT_CHECK_MSG(numel() == 1, "backward() requires a scalar loss");

  // Topological order over the tape (iterative DFS to survive deep graphs).
  std::vector<TensorImpl*> order;
  std::unordered_set<TensorImpl*> visited;
  std::vector<std::pair<TensorImpl*, std::size_t>> stack;
  stack.emplace_back(impl_.get(), 0);
  visited.insert(impl_.get());
  while (!stack.empty()) {
    auto& [node, next] = stack.back();
    if (next < node->parents.size()) {
      TensorImpl* parent = node->parents[next++].get();
      if (visited.insert(parent).second) stack.emplace_back(parent, 0);
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }

  impl_->ensureGrad();
  impl_->grad[0] = 1.0f;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TensorImpl* node = *it;
    if (node->backwardFn && !node->grad.empty()) {
      node->backwardFn(*node);
    }
  }
}

Tensor Tensor::detach() const {
  DAGT_CHECK(defined());
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = impl_->shape;
  impl->data = impl_->data;  // Storage copy = O(1) alias of the same bytes
  impl->requiresGrad = false;
  return Tensor(std::move(impl));
}

Tensor Tensor::clone() const {
  DAGT_CHECK(defined());
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = impl_->shape;
  impl->data = Storage::allocate(impl_->data.size());
  std::copy(impl_->data.begin(), impl_->data.end(), impl->data.begin());
  impl->requiresGrad = false;
  return Tensor(std::move(impl));
}

bool Tensor::sharesStorageWith(const Tensor& other) const {
  DAGT_CHECK(defined() && other.defined());
  return impl_->data.aliases(other.impl_->data);
}

}  // namespace dagt::tensor
