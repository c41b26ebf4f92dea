#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
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
/// A memo may start from a *base*: the filled memo of the snapshot routed
/// before it. The fill then re-runs the GNN only on the fanout cone of the
/// pins whose rows may differ from the base's (changed feature rows and,
/// when a buffer insertion or a revert changed the pin graph, new or
/// rewired pins) and carries every other row from the base
/// (TimingGnn::forwardFrom), bitwise equal to a full sweep. The changed
/// feature rows are found by diffing only the pin-feature blocks the two
/// snapshots do not share. The fill then drops the base, so a chain of
/// memos never grows past one link. A filled memo holds its own pin-feature
/// and pin-graph handles, so it can serve as a base after its snapshot is
/// gone.
///
/// Thread-safe: concurrent first callers wait for the one fill.
class GraphMemo {
 public:
  /// Fill counters shared by an engine's memos (relaxed).
  struct Counters {
    /// Memos filled, by a full sweep or a cone fill.
    std::atomic<std::uint64_t> fills{0};
    /// Pin rows those fills computed: every pin for a full sweep, the
    /// cone for a cone fill.
    std::atomic<std::uint64_t> rowsComputed{0};
  };

  /// `counters`, when non-null, must outlive the memo. `base` must be
  /// null or filled (see successorBase).
  explicit GraphMemo(Counters* counters = nullptr,
                     std::shared_ptr<const GraphMemo> base = nullptr);
  GraphMemo(const GraphMemo&) = delete;
  GraphMemo& operator=(const GraphMemo&) = delete;

  /// The embeddings of `design` under `gnn`, filling the memo first if it
  /// is empty: a cone fill from the base when there is one, else a full
  /// sweep. A memo belongs to the snapshot it was
  /// filled for: asking it for another design, or filling it with
  /// gradients enabled, is a contract error. The reference stays valid for
  /// the memo's lifetime.
  const TimingGnn::Output& getOrFill(const features::DesignData& design,
                                     const TimingGnn& gnn);

  /// The base for the memo routed after `memo`: `memo` itself once filled,
  /// else `memo`'s own base. Waits for a fill in flight on `memo`.
  static std::shared_ptr<const GraphMemo> successorBase(
      const std::shared_ptr<GraphMemo>& memo);

  /// Bytes of float embeddings held; 0 while empty. Never waits on a fill.
  std::uint64_t bytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }

 private:
  Counters* counters_;
  std::atomic<std::uint64_t> bytes_{0};
  /// Published (release) once the fields below are final; a successor
  /// reads them only after observing it (acquire), never under fillMutex_.
  std::atomic<bool> filled_{false};
  std::mutex fillMutex_;
  std::shared_ptr<const GraphMemo> base_;  // GUARDED_BY(fillMutex_)
  // Set once, by the fill, and never changed afterwards.
  features::PinFeatures pinFeatures_;                // GUARDED_BY(fillMutex_)
  std::shared_ptr<const features::PinGraph> graph_;  // GUARDED_BY(fillMutex_)
  TimingGnn::Output output_;                         // GUARDED_BY(fillMutex_)
};

/// The timing-path feature extractor F(.) of Eq. (1):
///   u = F(G') = [ GNN(H), CNN(X) ]  in R^m,
/// where H is the design's heterogeneous pin graph and X the path-masked
/// layout image set. GNN(H) is one sweep over the whole design, from which
/// the batch's endpoint rows are gathered and concatenated with the CNN
/// embedding of each path's masked image. Training and evaluation sweep on
/// every call; a batch carrying a GraphMemo (the serving engine's, one per
/// snapshot) fills it only if it is still empty, re-running just the dirty
/// fanout cone when the memo has a base, so a served batch costs the
/// gather, the CNN and what follows.
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
