#pragma once

#include <string>
#include <vector>

#include "tensor/expr.hpp"
#include "tensor/tensor.hpp"

namespace dagt::nn {

/// Base class for neural-network building blocks.
///
/// A Module owns its parameter tensors and may contain child modules;
/// parameters() flattens the whole subtree in registration order, which is
/// the order used by optimizers and by save/load, so it must be stable.
class Module {
 public:
  virtual ~Module() = default;
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// Trainable parameters of this module and its trainable children, in
  /// registration order (what optimizers see).
  std::vector<tensor::Tensor> parameters() const;

  /// Every value tensor of the subtree, in registration order: trainable
  /// parameters plus the subtrees of frozen children. This is the
  /// serialization set — a model round-trips through save/load even when
  /// part of it is deliberately left untrained.
  std::vector<tensor::Tensor> stateTensors() const;

  /// Zero the gradient buffers of every parameter in the subtree.
  void zeroGrad();

  /// Total number of scalar parameters in the subtree.
  std::int64_t parameterCount() const;

  /// Serialize parameter values (binary, little-endian float32).
  void saveParameters(const std::string& path) const;
  /// Load values saved by saveParameters; shapes must match exactly.
  void loadParameters(const std::string& path);

  /// Mix every state tensor of the subtree (shape + data pointer) into a
  /// program-cache signature. A compiled program reads the weights it
  /// captured by address, so the key pins those addresses.
  void mixStateInto(tensor::expr::SigHash& sig) const;

 protected:
  /// Register an owned parameter; returns the same tensor for convenience.
  tensor::Tensor registerParameter(tensor::Tensor parameter);
  /// Register a child module (must outlive this module; typically a
  /// member). trainable=false freezes the child's whole subtree: its
  /// tensors are serialized but hidden from parameters(), so optimizers
  /// leave them at their seeded initialization.
  void registerChild(Module& child, bool trainable = true);

 private:
  std::vector<tensor::Tensor> ownParameters_;
  std::vector<std::pair<Module*, bool>> children_;  // (child, trainable)
};

}  // namespace dagt::nn
