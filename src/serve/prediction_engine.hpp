#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "retrieval/prediction_cache.hpp"
#include "serve/feature_service.hpp"
#include "serve/metrics.hpp"
#include "serve/model_bundle.hpp"

namespace dagt::serve {

/// Request-coalescing policy of the engine.
struct EngineConfig {
  /// Upper bound on endpoints per model forward. The GNN runs once per
  /// snapshot, not per forward (see GraphMemo), so a batch shares only the
  /// per-forward launch costs of the CNN, disentangler and head.
  std::int64_t maxBatch = 64;
  /// How long the batcher holds an under-full batch open waiting for
  /// concurrent callers to join it.
  std::int64_t maxWaitUs = 200;
  /// Batcher threads. One is usually right: the tensor ops inside a
  /// forward already fan out via parallelFor, so extra batchers mostly
  /// help when many small designs interleave.
  std::int32_t workerThreads = 1;
  /// false disables coalescing entirely: every request runs its own
  /// forward in the caller's thread (the single-request baseline of
  /// bench_serve_throughput).
  bool batching = true;
  /// Not read by the engine, which serves the Bayesian head in closed form.
  /// Kept only because perfbench's batch_mix check still reads it to size
  /// its 6σ·√(2/K) tolerance band; it goes once that check compares
  /// replies bitwise.
  std::int32_t mcSamples = 8;
  /// Learned prediction cache (uncertainty-gated ANN retrieval over the
  /// model's disentangled embeddings). Off by default; every knob comes
  /// from DAGT_RETRIEVAL* (see retrieval::CacheConfig and
  /// docs/retrieval.md). Only Bayesian-head "ours" bundles get a cache;
  /// with enabled=false the serve path is bitwise identical to a build
  /// without the retrieval layer.
  retrieval::CacheConfig retrieval = retrieval::CacheConfig::fromEnv();
};

/// Long-lived, queryable inference service over trained model bundles.
///
/// One bundle is registered per technology node; designs are loaded (and
/// feature-cached) once and then queried by key. Concurrent single-endpoint
/// and batch queries on the same design are coalesced into tensor-level
/// batches by a background batcher, bounded by maxBatch / maxWaitUs.
///
/// Each routed snapshot carries a memo of its GNN embeddings (GraphMemo),
/// filled once per snapshot, and every batch, full-design predict and
/// retrieval embed on that snapshot only gathers its endpoint rows. A load
/// fills its memo with a whole-design sweep in the warm-up. A what-if
/// update or revert routes an empty memo whose base is the key's previous
/// one; the first query fills it by re-running the GNN on the fanout cone
/// of the changed pin-feature rows alone, plus, when a buffer insertion or
/// a revert changed the pin graph, the cone of the new and rewired pins.
///
/// Determinism contract: every read path runs the model's one inference
/// readout (TimingModel::predictBatch), whose rows are independent. So an
/// endpoint's answer depends only on (bundle, snapshot, endpoint) and
/// agrees bitwise across read paths: served alone, inside any coalesced
/// batch, on the retrieval miss path, through predictDesign(), and with
/// the trainer's own predictDesign(). Only a retrieval-cache hit (the
/// cache is off by default) answers differently: with a stored neighbor's
/// mean.
class PredictionEngine {
 public:
  explicit PredictionEngine(EngineConfig config = EngineConfig{});
  ~PredictionEngine();

  PredictionEngine(const PredictionEngine&) = delete;
  PredictionEngine& operator=(const PredictionEngine&) = delete;

  /// Register a bundle under its manifest's target node. One bundle per
  /// node; re-adding a node replaces its designs as well.
  void addBundle(ModelBundle bundle);
  /// Convenience: load from a bundle directory and register.
  void addBundleFromDir(const std::string& dir);

  /// Nodes with a registered bundle, ascending enum order.
  std::vector<netlist::TechNode> nodes() const;
  const BundleManifest& manifest(netlist::TechNode node) const;

  /// Load a design from interchange files under `key` and route it to the
  /// bundle serving its node. Returns the endpoint count. Re-loading an
  /// unchanged file is a feature-cache hit.
  std::int64_t loadDesign(const std::string& key,
                          const std::string& netlistPath,
                          const std::string& libraryPath,
                          const std::string& placementPath = "");
  /// In-memory variant; `revision` decides feature-cache validity. The
  /// netlist is read during the call, not kept.
  std::int64_t loadDesign(const std::string& key,
                          const netlist::Netlist& netlist,
                          netlist::TechNode node,
                          const place::PlacementResult& placement,
                          const std::string& revision = "0");

  /// Incrementally refresh a loaded design after a what-if edit: features
  /// are re-extracted only for the edit's dirty cone (see
  /// FeatureService::applyConeUpdate) and subsequent queries under `key`
  /// serve the new snapshot. In-flight queries finish against the old
  /// snapshot they hold a reference to.
  FeatureService::ConeUpdateResult applyConeUpdate(
      const std::string& key, const std::string& revision,
      const FeatureService::ConeUpdate& update);

  /// Point `key` back at a previously served snapshot (what-if revert).
  void installSnapshot(const std::string& key, const std::string& revision,
                       std::shared_ptr<const ServableDesign> design);

  /// The snapshot currently routed for `key` (nullptr if not loaded).
  std::shared_ptr<const ServableDesign> currentSnapshot(
      const std::string& key) const;

  /// The retrieval cache attached to `key` (nullptr if not loaded, the
  /// retrieval layer is disabled, or the bundle is not cacheable).
  std::shared_ptr<retrieval::PredictionCache> retrievalCache(
      const std::string& key) const;

  /// Predicted sign-off arrival (ps) of one endpoint. Blocks; coalesced
  /// with concurrent callers.
  float predictEndpoint(const std::string& key, std::int64_t endpoint);
  /// Batch query; one coalescable unit, answered in request order.
  std::vector<float> predictEndpoints(const std::string& key,
                                      const std::vector<std::int64_t>& endpoints);
  /// All endpoints, bit-exact with the in-process trainer's predictions.
  std::vector<float> predictDesign(const std::string& key);

  MetricsSnapshot metrics() const;

 private:
  struct NodeEntry {
    ModelBundle bundle;
    std::unique_ptr<FeatureService> features;
  };
  struct DesignRef {
    NodeEntry* node = nullptr;
    std::shared_ptr<const ServableDesign> design;
    /// GNN embeddings of `design` under `node`'s model; replaced with an
    /// empty memo whenever the key is routed to a snapshot, filled by the
    /// first forward that needs it (from its base, if it has one).
    std::shared_ptr<core::GraphMemo> graphMemo;
    /// Per-design learned prediction cache; null unless the retrieval
    /// layer is enabled and the bundle has a Bayesian head. Survives
    /// revision re-loads (the embedding space is the model's).
    std::shared_ptr<retrieval::PredictionCache> retrieval;

    /// A batch of `endpoints` on this snapshot, carrying its GNN memo.
    core::DesignBatch batch(std::vector<std::int64_t> endpoints) const;
  };
  struct RequestGroup {
    DesignRef ref;
    std::vector<std::int64_t> endpoints;
    std::promise<std::vector<float>> reply;
    std::chrono::steady_clock::time_point enqueued;
  };

  DesignRef designRef(const std::string& key) const;
  /// An empty GNN memo whose fills count toward graph_memo_fills and
  /// graph_memo_rows_computed, filled from `base` where it can be.
  std::shared_ptr<core::GraphMemo> newGraphMemo(
      std::shared_ptr<const core::GraphMemo> base = nullptr);
  /// The load-time warm forward: one single-endpoint forward that fills
  /// the snapshot's GNN memo and compiles its fused programs, so the first
  /// real query pays neither the sweep nor the compile.
  void warmUp(const DesignRef& ref);
  /// Run one forward over the union of the groups' endpoints and fulfill
  /// their promises. noexcept-ish: failures land in the promises.
  void serveBatch(std::vector<RequestGroup> groups);
  /// The retrieval-fronted variant of serveBatch's forward: embed (memoized
  /// per snapshot and endpoint), probe the cache, run the head only for
  /// the misses.
  /// Called inside serveBatch's try block; only reached when the lead
  /// design carries a cache.
  void serveBatchRetrieval(std::vector<RequestGroup>& groups,
                           core::OursModel& ours,
                           const std::vector<std::int64_t>& combined);
  /// Attach (or re-attach) the retrieval cache for `key` while holding
  /// designsMutex_.
  void attachRetrievalLocked(const std::string& key, DesignRef& ref);
  void workerLoop();

  EngineConfig config_;
  /// Fills of this engine's memos (graph_memo_fills, _rows_computed).
  /// Declared before everything that holds a memo, which points at it.
  core::GraphMemo::Counters graphMemoCounters_;

  // designsMutex_ covers the registry: both the node -> bundle map and the
  // design routing table (addBundle mutates both together). NodeEntry
  // addresses are stable across inserts (unordered_map nodes don't move),
  // so a DesignRef's NodeEntry* stays valid while the lock is dropped.
  mutable std::mutex designsMutex_;
  // GUARDED_BY(designsMutex_), keyed by TechNode value
  std::unordered_map<int, NodeEntry> nodes_;
  std::unordered_map<std::string, DesignRef> designs_;  // GUARDED_BY(designsMutex_)

  std::mutex queueMutex_;
  std::condition_variable queueCv_;
  std::deque<RequestGroup> queue_;  // GUARDED_BY(queueMutex_)
  bool stopping_ = false;           // GUARDED_BY(queueMutex_)
  std::vector<std::thread> workers_;

  ServeMetrics metrics_;
};

}  // namespace dagt::serve
