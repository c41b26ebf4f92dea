#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "tensor/tensor.hpp"

namespace dagt::features {

/// The GNN's per-pin input features: a [numPins, dim] matrix, rows in
/// pin-id order, held as consecutive blocks of kRowsPerBlock rows (the last
/// block may be shorter).
///
/// Copies share every block, so a what-if snapshot costs one handle per
/// block plus the blocks its edit rewrote. The row writer clones a block
/// before writing it unless this object cloned it and holds it alone, so a
/// write never shows through another holder. A block held by two objects
/// is therefore never written, and two objects whose blocks share a data
/// pointer hold the same bytes there: changedRows skips such blocks unread.
class PinFeatures {
 public:
  /// A median or1200 what-if resize rewrites 21 rows in 9 of 63 blocks.
  static constexpr std::int64_t kRowsPerBlock = 64;

  PinFeatures() = default;
  /// Row views of `dense` ([numPins, dim], FeatureBuilder::build's matrix),
  /// without a copy. Writes clone their block, so `dense` is never written.
  explicit PinFeatures(const tensor::Tensor& dense);

  std::int64_t numPins() const { return numPins_; }
  std::int64_t dim() const { return dim_; }
  std::int64_t numBlocks() const {
    return static_cast<std::int64_t>(blocks_.size());
  }
  /// Rows [b * kRowsPerBlock, min((b + 1) * kRowsPerBlock, numPins)).
  const tensor::Tensor& block(std::int64_t b) const;

  const float* row(std::int64_t pin) const;
  /// Row `pin` for writing; clones its block first (see the class comment).
  float* mutableRow(std::int64_t pin);

  /// Rows `pins` (repeats allowed) as one [pins.size(), dim] tensor, through
  /// tensor::indexSelectBlocks. Pin features never require grad, so no tape
  /// node is recorded.
  tensor::Tensor gather(const std::vector<std::int64_t>& pins) const;

  /// Appends zero rows up to `numPins` rows in all. Every full block stays
  /// shared; a partial last block is replaced by a longer copy.
  void grow(std::int64_t numPins);

  /// Pins, ascending, whose rows differ bitwise from `base`'s (same dim),
  /// and every pin past `base`'s last row. A block whose data pointer and
  /// row count are `base`'s is skipped; the others are compared row by
  /// row, so a row rewritten to the same bytes is not reported.
  std::vector<netlist::PinId> changedRows(const PinFeatures& base) const;

  /// True when `other` has this shape and holds every one of these blocks
  /// (the same handles, as a copy does).
  bool sharesEveryBlockWith(const PinFeatures& other) const;

 private:
  std::int64_t numPins_ = 0;
  std::int64_t dim_ = 0;
  std::vector<tensor::Tensor> blocks_;
  std::vector<std::uint8_t> cloned_;  // per block: 1 once this object cloned it
};

}  // namespace dagt::features
