#pragma once

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "features/design_data.hpp"
#include "tensor/tensor.hpp"

namespace dagt::core {

/// Labels are scaled from ps to ns for optimization stability. The scale is
/// deliberately *shared* by both technology nodes, preserving the
/// order-of-magnitude arrival gap between 130nm and 7nm (Figure 6) that
/// breaks naive data merging.
constexpr float kLabelScale = 1e-3f;

class GraphMemo;

/// A batch of timing paths from ONE design (the GNN runs per design):
/// endpoint indices, their masked layout images and their labels.
struct DesignBatch {
  const features::DesignData* design = nullptr;
  std::vector<std::int64_t> endpointIdx;  // indices into design->paths
  tensor::Tensor images;                  // [B, 3, R, R]
  tensor::Tensor labels;                  // [B], ns
  /// Optimistic pre-routing Elmore arrival per endpoint [B], ns. Readouts
  /// add a learnable multiple of this as a bypass (y = f(u) + w0 * pre):
  /// the network then learns the routing/optimization correction rather
  /// than reproducing absolute magnitude from bounded embeddings.
  tensor::Tensor preRouteNs;
  /// The design's GNN memo, set only by the serving engine (not owned).
  /// The extractor fills it on first use and afterwards gathers the
  /// batch's endpoint rows from it instead of re-running the sweep.
  GraphMemo* graphMemo = nullptr;
};

/// Batching front-end over a set of DesignData. Caches per-path masked
/// layout images (they are static across epochs) and assembles tensors.
class TimingDataset {
 public:
  explicit TimingDataset(std::vector<const features::DesignData*> designs);

  const std::vector<const features::DesignData*>& designs() const {
    return designs_;
  }
  const features::DesignData& design(const std::string& name) const;

  /// All endpoints of a design, in endpoint order (ignores restriction;
  /// used for evaluation).
  DesignBatch fullBatch(const features::DesignData& design) const;
  /// An explicit endpoint subset, in the given order (ignores restriction;
  /// used by the serving engine to assemble coalesced request batches).
  DesignBatch batchFor(const features::DesignData& design,
                       std::vector<std::int64_t> endpointIdx) const;
  /// Up to `cap` endpoints sampled without replacement from the design's
  /// available (possibly restricted) endpoint pool.
  DesignBatch sampleBatch(const features::DesignData& design,
                          std::int64_t cap, Rng& rng) const;

  /// Restrict a design to a fixed random subset of `budget` endpoints for
  /// sampling — models the paper's "limited data at the advanced node"
  /// premise. Deterministic for a given seed. No-op if the design has
  /// fewer endpoints than the budget.
  void restrictEndpoints(const features::DesignData& design,
                         std::int64_t budget, std::uint64_t seed);

  /// A cached masked image. Slots are shared between datasets so the
  /// incremental what-if path can hand a snapshot's still-valid images to
  /// its successor without copying the pixels (images are immutable once
  /// built).
  using ImageSlot = std::shared_ptr<const std::vector<float>>;

  /// The design's per-endpoint masked-image cache (null slots for
  /// endpoints never batched). O(endpoints) handle copies, no pixel
  /// copies. The incremental what-if path exports the previous snapshot's
  /// cache and re-imports the still-valid entries.
  std::vector<ImageSlot> exportImages(
      const features::DesignData& design) const;
  /// Seed the cache for a design with precomputed images. Null entries
  /// are built lazily on first use, exactly like a cold cache. The vector
  /// must be empty or sized to the design's endpoint count.
  void importImages(const features::DesignData& design,
                    std::vector<ImageSlot> images);
  /// Number of endpoints sampleBatch can draw from.
  std::int64_t availableEndpoints(const features::DesignData& design) const;

 private:
  DesignBatch makeBatch(const features::DesignData& design,
                        std::vector<std::int64_t> endpointIdx) const;
  ImageSlot cachedImage(const features::DesignData& design,
                        std::int64_t endpointIdx) const;

  std::vector<const features::DesignData*> designs_;
  /// Cache: design pointer -> per-endpoint masked images. Filled lazily
  /// under imageMutex_, so concurrent batch assembly (serving workers,
  /// what-if readers) is safe without a prewarm pass. A slot is written
  /// at most once; the image bytes themselves are immutable.
  // GUARDED_BY(imageMutex_)
  mutable std::unordered_map<const features::DesignData*,
                             std::vector<ImageSlot>>
      imageCache_;
  mutable std::mutex imageMutex_;
  /// Optional per-design endpoint whitelist (scarce-data restriction).
  std::unordered_map<const features::DesignData*, std::vector<std::int64_t>>
      restriction_;
};

}  // namespace dagt::core
