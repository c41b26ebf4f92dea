#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
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

/// Fixed-size log-linear latency histogram: lock-free to record, constant
/// memory however many samples it has seen.
///
/// A sample is rounded to whole nanoseconds. Below 128 ns every nanosecond
/// has its own bucket; above, each power-of-two octave splits into 64 equal
/// buckets, so a bucket is at most 1/64 as wide as its lower bound.
/// Samples of 2^40 ns (about 18 minutes) or more share the last bucket.
/// Count, mean and max are exact (to the nanosecond rounding); a percentile
/// reports the middle of the bucket holding its nearest-rank sample, capped
/// at the max, which is within 2^-7 (0.79%) of the exact nearest-rank value
/// plus 0.5 ns.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 6;  // 64 buckets per octave
  static constexpr int kMaxBits = 40;
  // Octaves 0 and 1 are the 128 one-nanosecond buckets; octave o >= 2
  // covers [2^(o + kSubBits - 1), 2^(o + kSubBits)).
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kMaxBits - kSubBits + 1) << kSubBits;

  struct Summary {
    std::uint64_t count = 0;
    double meanUs = 0.0;
    double p50Us = 0.0;
    double p95Us = 0.0;
    double p99Us = 0.0;
    double maxUs = 0.0;
  };

  void record(double us);
  /// Point-in-time summary (relaxed loads; all zero before any sample).
  Summary summarize() const;

  /// Bucket holding a nanosecond count, and that bucket's [lo, lo + width).
  static std::size_t bucketOf(std::uint64_t ns);
  static std::uint64_t bucketLow(std::size_t bucket);
  static std::uint64_t bucketWidth(std::size_t bucket);

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sumNs_{0};
  std::atomic<std::uint64_t> maxNs_{0};
};

/// Thread-safe recorder behind a PredictionEngine.
///
/// Counters are relaxed atomics: workers on the serve hot path increment
/// without taking a lock, and each counter is monotone, so a snapshot that
/// reads them individually is consistent enough for monitoring (it may sit
/// between two increments of one batch, never see torn values).
///
/// Request latencies go to a LatencyHistogram: a recorder pays a few
/// relaxed atomic adds, a metrics poll reads a fixed set of buckets, and a
/// long-lived engine's footprint does not grow with the requests it has
/// served. Percentiles carry the histogram's documented resolution.
class ServeMetrics {
 public:
  void recordRequests(std::uint64_t count);
  void recordFullDesign();
  void recordBatch(std::uint64_t coalescedSize);
  void recordLatencyUs(double us);

  /// Cache counters are supplied by the caller (the FeatureService owns
  /// them), as are the buffer-pool counters (the BufferPool owns those).
  MetricsSnapshot snapshot(std::uint64_t cacheHits, std::uint64_t cacheMisses,
                           const tensor::PoolStats& pool = {}) const;

 private:
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> fullDesignRequests_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> coalesced_{0};

  LatencyHistogram latency_;
};

}  // namespace dagt::serve
