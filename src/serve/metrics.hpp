#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/trace.hpp"
#include "tensor/storage.hpp"

namespace dagt::serve {

/// Point-in-time view of one engine's serving counters.
struct MetricsSnapshot {
  std::uint64_t requests = 0;        // endpoint queries answered
  std::uint64_t fullDesignRequests = 0;
  std::uint64_t batches = 0;         // model forwards executed
  double meanBatchSize = 0.0;        // coalesced endpoints per forward
  std::uint64_t graphMemoFills = 0;  // snapshot memos filled (full or cone)
  std::uint64_t graphMemoRowsComputed = 0;  // pin rows those fills computed
  std::uint64_t graphMemoBytes = 0;  // embedding bytes of routed memos
  std::uint64_t cacheHits = 0;       // feature-cache hits
  std::uint64_t cacheMisses = 0;
  double cacheHitRate = 0.0;         // hits / (hits + misses), 0 if none
  double meanUs = 0.0;               // request latency, enqueue -> reply
  double p50Us = 0.0;
  double p95Us = 0.0;
  double p99Us = 0.0;
  double maxUs = 0.0;
  /// What-if / incremental-update counters. The cone* fields come from the
  /// FeatureServices (aggregated like the cache counters); the whatif* and
  /// sta* fields are filled in by a WhatIfSession wrapping the engine.
  /// All stay zero on a plain serving engine, and the renderers omit the
  /// whole group when no cone update or edit has ever happened.
  std::uint64_t whatifEdits = 0;
  std::uint64_t whatifRepredicts = 0;
  std::uint64_t coneUpdates = 0;
  std::uint64_t coneStructuralRebuilds = 0;
  std::uint64_t coneEndpointsReused = 0;
  std::uint64_t coneEndpointsEvicted = 0;
  std::uint64_t staFullRefreshes = 0;
  std::uint64_t staIncrementalUpdates = 0;
  std::int64_t staPinsVisitedLast = 0;
  std::int64_t staPinsVisitedTotal = 0;
  /// Dirty-cone size histogram: bucket b counts incremental STA updates
  /// that visited at most 2^(b+1) pins (and more than 2^b for b > 0).
  std::vector<std::uint64_t> staConeHist;
  /// Learned-prediction-cache counters (see src/retrieval/ and
  /// docs/retrieval.md), summed over the engine's per-design caches. The
  /// renderers emit the group only when retrievalEnabled — i.e. at least
  /// one design carries a cache — so cache-less engines keep their old
  /// output byte-for-byte.
  bool retrievalEnabled = false;
  std::uint64_t retrievalHits = 0;
  std::uint64_t retrievalMisses = 0;        // every fall-through (incl. rejects)
  double retrievalHitRate = 0.0;            // hits / probes, 0 if none
  std::uint64_t retrievalRejectByDist = 0;  // nearest neighbor too far
  std::uint64_t retrievalRejectBySigma = 0; // posterior too dispersed
  std::uint64_t retrievalInserts = 0;
  std::uint64_t retrievalEmbedMemoHits = 0; // embeddings reused, not recomputed
  std::uint64_t retrievalIndexSize = 0;     // rows across attached indexes
  double retrievalHitMeanUs = 0.0;          // all-hit batch latency
  double retrievalMissMeanUs = 0.0;         // batches with >=1 fall-through
  /// Expression-fusion counters (process-wide, from tensor::expr::stats()):
  /// compiled-program cache behavior and fused-kernel launch mix of the
  /// serving forward. All zero when DAGT_FUSION=0.
  std::uint64_t fusionProgramsCompiled = 0;
  std::uint64_t fusionCacheHits = 0;
  std::uint64_t fusionCacheMisses = 0;
  std::uint64_t fusionReplays = 0;
  std::uint64_t fusedEwLaunches = 0;
  std::uint64_t fusedGemmLaunches = 0;
  std::uint64_t fusedDotLaunches = 0;
  /// Tensor buffer-pool counters (process-wide): how much of the serving
  /// hot path is running allocation-free. See tensor::PoolStats.
  tensor::PoolStats pool;
  /// Per-span totals of the serve path ("serve/" names, process-wide),
  /// populated only while tracing is runtime-enabled. Empty otherwise.
  std::vector<obs::SpanStats> traceSpans;

  /// Two-column table ("metric", "value") for terminal output.
  std::string renderTable() const;
  /// The same numbers as a JSON object (for BENCH_*.json / dashboards).
  JsonValue toJson() const;
};

/// Thread-safe recorder behind a PredictionEngine. Latencies are kept in
/// full (a float per request) — exact percentiles matter more at bench
/// scale than the memory of a reservoir would save.
///
/// Counters are relaxed atomics: workers on the serve hot path increment
/// without taking a lock, and each counter is monotone, so a snapshot that
/// reads them individually is consistent enough for monitoring (it may sit
/// between two increments of one batch, never see torn values).
///
/// Latency samples land in per-thread-striped accumulators (the vector
/// growth is not atomic, so each stripe keeps a mutex — but a recorder
/// thread hashes to its own stripe, so the hot path never contends with
/// other workers or with a metrics poll draining a different stripe).
/// Snapshots merge all stripes; percentiles stay exact.
class ServeMetrics {
 public:
  void recordRequests(std::uint64_t count);
  void recordFullDesign();
  void recordBatch(std::uint64_t coalescedSize);
  void recordLatencyUs(double us);

  /// Percentiles are computed here (merged + sorted copy); call off the
  /// hot path. Cache counters are supplied by the caller (the
  /// FeatureService owns them), as are the buffer-pool counters (the
  /// BufferPool owns those).
  MetricsSnapshot snapshot(std::uint64_t cacheHits, std::uint64_t cacheMisses,
                           const tensor::PoolStats& pool = {}) const;

 private:
  static constexpr std::size_t kLatencyStripes = 8;

  /// One latency accumulator stripe; cache-line separated so recorder
  /// threads on different stripes don't false-share.
  struct alignas(64) LatencyStripe {
    mutable std::mutex stripeMutex_;
    std::vector<float> samplesUs_;  // GUARDED_BY(stripeMutex_)
  };

  LatencyStripe& stripeForThisThread();

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> fullDesignRequests_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> coalesced_{0};

  mutable std::array<LatencyStripe, kLatencyStripes> stripes_;
};

}  // namespace dagt::serve
