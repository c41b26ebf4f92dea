#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>

#include "core/dataset.hpp"
#include "core/model_config.hpp"
#include "core/path_cnn.hpp"
#include "core/timing_gnn.hpp"

namespace dagt::core {

/// One design snapshot's GNN embeddings (TimingGnn::forward's per-level
/// output), computed once and then shared by every batch on that snapshot.
/// At inference GNN(H) depends only on the snapshot, so a batch needs just
/// a gather of its endpoint rows. The serving engine keeps one memo per
/// routed snapshot; training and evaluation use none, since their weights
/// change between forwards.
///
/// Thread-safe: concurrent first callers wait for the one sweep.
class GraphMemo {
 public:
  /// `sweeps`, when non-null, is incremented for every sweep this memo
  /// runs (at most one) and must outlive the memo.
  explicit GraphMemo(std::atomic<std::uint64_t>* sweeps = nullptr)
      : sweeps_(sweeps) {}
  GraphMemo(const GraphMemo&) = delete;
  GraphMemo& operator=(const GraphMemo&) = delete;

  /// The embeddings of `design`, running `sweep` if the memo is empty. A
  /// memo belongs to the snapshot it was filled for: asking it for another
  /// design, or filling it with gradients enabled, is a contract error.
  /// The reference stays valid for the memo's lifetime.
  const TimingGnn::Output& getOrFill(
      const features::DesignData& design,
      const std::function<TimingGnn::Output()>& sweep);

  /// Bytes of float embeddings held; 0 while empty. Never waits on a fill.
  std::uint64_t bytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t>* sweeps_;
  std::atomic<std::uint64_t> bytes_{0};
  std::mutex fillMutex_;
  // Set once, by the first getOrFill, and never changed afterwards.
  const features::DesignData* design_ = nullptr;  // GUARDED_BY(fillMutex_)
  TimingGnn::Output output_;                      // GUARDED_BY(fillMutex_)
};

/// The timing-path feature extractor F(.) of Eq. (1):
///   u = F(G') = [ GNN(H), CNN(X) ]  in R^m,
/// where H is the design's heterogeneous pin graph and X the path-masked
/// layout image set. GNN(H) is one sweep over the whole design, from which
/// the batch's endpoint rows are gathered and concatenated with the CNN
/// embedding of each path's masked image. Training and evaluation sweep on
/// every call; a batch carrying a GraphMemo (the serving engine's, one per
/// snapshot) sweeps only if the memo is still empty, so a served batch
/// costs the gather, the CNN and what follows.
class PathFeatureExtractor : public nn::Module {
 public:
  PathFeatureExtractor(std::int64_t pinFeatureDim, const ModelConfig& config,
                       Rng& rng);

  /// Path features u for one batch: [B, m].
  tensor::Tensor extract(const DesignBatch& batch) const;

  std::int64_t pathFeatureDim() const { return config_.pathFeatureDim(); }
  const ModelConfig& config() const { return config_; }

 private:
  ModelConfig config_;
  TimingGnn gnn_;
  PathCnn cnn_;
};

}  // namespace dagt::core
