#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "tensor/storage.hpp"

namespace dagt::tensor {

/// Dense tensor shape; dimensions are row-major (last dim contiguous).
using Shape = std::vector<std::int64_t>;

/// Number of elements implied by a shape (1 for rank-0).
std::int64_t numelOf(const Shape& shape);

struct TensorImpl;

/// Value-semantic handle to a dense float32 tensor with reverse-mode
/// automatic differentiation.
///
/// Copies are shallow (shared storage). Ops are free functions in
/// tensor/ops.hpp; each op that sees a gradient-requiring input under an
/// enabled GradMode records a backward closure, and Tensor::backward()
/// replays the tape in reverse topological order.
///
/// This engine is deliberately small: contiguous row-major storage only,
/// float32 only, and exactly the op set the timing predictor needs.
class Tensor {
 public:
  /// Empty (undefined) tensor; defined() is false.
  Tensor() = default;

  // -- Constructors ---------------------------------------------------------
  static Tensor zeros(const Shape& shape, bool requiresGrad = false);
  static Tensor ones(const Shape& shape, bool requiresGrad = false);
  static Tensor full(const Shape& shape, float value,
                     bool requiresGrad = false);
  static Tensor fromVector(const Shape& shape, std::vector<float> values,
                           bool requiresGrad = false);
  static Tensor scalar(float value, bool requiresGrad = false);
  /// I.i.d. normal entries with the given stddev.
  static Tensor randn(const Shape& shape, Rng& rng, float stddev = 1.0f,
                      bool requiresGrad = false);
  /// I.i.d. uniform entries in [lo, hi).
  static Tensor randu(const Shape& shape, Rng& rng, float lo, float hi,
                      bool requiresGrad = false);

  // -- Introspection --------------------------------------------------------
  bool defined() const { return impl_ != nullptr; }
  const Shape& shape() const;
  int ndim() const;
  /// Size along dim i; negative i counts from the back.
  std::int64_t dim(int i) const;
  std::int64_t numel() const;

  // -- Data access ----------------------------------------------------------
  float* data();
  const float* data() const;
  /// Value of a rank-0 / single-element tensor.
  float item() const;
  /// Element of a 2-D tensor.
  float at(std::int64_t row, std::int64_t col) const;
  /// Copy of the flat contents.
  std::vector<float> toVector() const;

  // -- Autograd -------------------------------------------------------------
  bool requiresGrad() const;
  void setRequiresGrad(bool value);
  /// Gradient accumulated by the last backward(); undefined Tensor if none.
  Tensor grad() const;
  void zeroGrad();
  /// Backpropagate from this scalar tensor (numel() must be 1).
  void backward();
  /// Same storage, detached from the autograd graph: an O(1) alias that
  /// shares bytes with this tensor (writes through either are visible in
  /// both). Use clone() for an independent copy.
  Tensor detach() const;
  /// Deep copy of values (detached, freshly allocated).
  Tensor clone() const;
  /// True when both tensors alias the same underlying buffer.
  bool sharesStorageWith(const Tensor& other) const;

  /// Internal: shared implementation pointer (used by ops.hpp).
  const std::shared_ptr<TensorImpl>& impl() const { return impl_; }
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}

 private:
  std::shared_ptr<TensorImpl> impl_;
};

/// Implementation node: storage plus the autograd tape edge that produced it.
///
/// `data` is a Storage view — zero-copy ops (reshape / sliceRows / detach /
/// flattenView) make it an alias into another node's buffer. `grad` is
/// never aliased: each node owns a dense gradient in its local index
/// space, and a view's backward closure scatters it into its base.
struct TensorImpl {
  Shape shape;
  Storage data;
  bool requiresGrad = false;
  Storage grad;  // unallocated until first accumulation
  std::vector<std::shared_ptr<TensorImpl>> parents;
  /// Accumulates this node's grad into its parents' grads.
  std::function<void(TensorImpl&)> backwardFn;

  /// Allocate (zero-filled) grad storage if absent.
  void ensureGrad();
};

/// RAII guard disabling autograd tape construction (inference mode).
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

  /// True when ops should record backward closures.
  static bool gradEnabled();

 private:
  bool previous_;
};

}  // namespace dagt::tensor
