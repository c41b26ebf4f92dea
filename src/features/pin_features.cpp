#include "features/pin_features.hpp"

#include <algorithm>
#include <cstring>

#include "common/check.hpp"
#include "tensor/ops.hpp"

namespace dagt::features {

PinFeatures::PinFeatures(const tensor::Tensor& dense) {
  DAGT_CHECK_MSG(dense.ndim() == 2, "pin features must be [numPins, dim]");
  DAGT_CHECK_MSG(!dense.requiresGrad(), "pin features never require grad");
  numPins_ = dense.dim(0);
  dim_ = dense.dim(1);
  for (std::int64_t first = 0; first < numPins_; first += kRowsPerBlock) {
    blocks_.push_back(tensor::sliceRows(
        dense, first, std::min(first + kRowsPerBlock, numPins_)));
  }
  cloned_.assign(blocks_.size(), 0);
}

const tensor::Tensor& PinFeatures::block(std::int64_t b) const {
  DAGT_CHECK_MSG(b >= 0 && b < numBlocks(),
                 "pin-feature block " << b << " out of " << numBlocks());
  return blocks_[static_cast<std::size_t>(b)];
}

const float* PinFeatures::row(std::int64_t pin) const {
  DAGT_CHECK_MSG(pin >= 0 && pin < numPins_,
                 "pin-feature row " << pin << " out of " << numPins_);
  return blocks_[static_cast<std::size_t>(pin / kRowsPerBlock)].data() +
         (pin % kRowsPerBlock) * dim_;
}

float* PinFeatures::mutableRow(std::int64_t pin) {
  DAGT_CHECK_MSG(pin >= 0 && pin < numPins_,
                 "pin-feature row " << pin << " out of " << numPins_);
  const auto b = static_cast<std::size_t>(pin / kRowsPerBlock);
  tensor::Tensor& block = blocks_[b];
  // A copy of this object holds the same handle, so a use count above one
  // means the block is shared even if this object cloned it.
  if (cloned_[b] == 0 || block.impl().use_count() != 1) {
    // A plain vector like build()'s matrix, not a pool buffer: a block
    // lives as long as the snapshots that share it, and a revert retires
    // every block the reverted edits cloned at once, a burst the pool's
    // per-bucket bound turns into frees and then into pool heap
    // allocations at the next syncs.
    const float* rows = block.data();
    block = tensor::Tensor::fromVector(
        block.shape(), std::vector<float>(rows, rows + block.numel()));
    cloned_[b] = 1;
  }
  return block.data() + (pin % kRowsPerBlock) * dim_;
}

tensor::Tensor PinFeatures::gather(
    const std::vector<std::int64_t>& pins) const {
  return tensor::indexSelectBlocks(blocks_, kRowsPerBlock, pins);
}

void PinFeatures::grow(std::int64_t numPins) {
  DAGT_CHECK_MSG(numPins >= numPins_, "pin features cannot shrink from "
                                          << numPins_ << " to " << numPins);
  while (numPins_ < numPins) {
    const bool partial =
        !blocks_.empty() && blocks_.back().dim(0) < kRowsPerBlock;
    const std::int64_t kept = partial ? blocks_.back().dim(0) : 0;
    const std::int64_t rows =
        std::min(kRowsPerBlock, kept + numPins - numPins_);
    std::vector<float> data(static_cast<std::size_t>(rows * dim_), 0.0f);
    if (partial) {
      const float* old = blocks_.back().data();
      std::copy(old, old + kept * dim_, data.begin());
      blocks_.pop_back();
      cloned_.pop_back();
    }
    blocks_.push_back(tensor::Tensor::fromVector({rows, dim_}, std::move(data)));
    cloned_.push_back(1);
    numPins_ += rows - kept;
  }
}

std::vector<netlist::PinId> PinFeatures::changedRows(
    const PinFeatures& base) const {
  DAGT_CHECK_MSG(base.dim_ == dim_, "pin features of dim "
                                        << dim_ << " diffed against dim "
                                        << base.dim_);
  std::vector<netlist::PinId> changed;
  const std::size_t rowBytes = static_cast<std::size_t>(dim_) * sizeof(float);
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    const float* now = blocks_[b].data();
    const std::int64_t rows = blocks_[b].dim(0);
    const bool inBase = b < base.blocks_.size();
    const float* was = inBase ? base.blocks_[b].data() : nullptr;
    const std::int64_t baseRows = inBase ? base.blocks_[b].dim(0) : 0;
    if (now == was && rows == baseRows) continue;
    const std::int64_t first = static_cast<std::int64_t>(b) * kRowsPerBlock;
    for (std::int64_t r = 0; r < rows; ++r) {
      if (r >= baseRows ||
          std::memcmp(now + r * dim_, was + r * dim_, rowBytes) != 0) {
        changed.push_back(static_cast<netlist::PinId>(first + r));
      }
    }
  }
  return changed;
}

bool PinFeatures::sharesEveryBlockWith(const PinFeatures& other) const {
  if (other.numPins_ != numPins_ || other.dim_ != dim_) return false;
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    if (blocks_[b].impl() != other.blocks_[b].impl()) return false;
  }
  return true;
}

}  // namespace dagt::features
