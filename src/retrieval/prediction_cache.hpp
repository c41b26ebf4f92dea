#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "retrieval/embedding_index.hpp"

namespace dagt::retrieval {

/// Admission policy and index shape of a PredictionCache, normally read
/// from the environment once per engine (all knobs are DAGT_RETRIEVAL*):
///   DAGT_RETRIEVAL=1            enable the cache (default off)
///   DAGT_RETRIEVAL_MAX_DIST     neighbor-distance admission gate
///   DAGT_RETRIEVAL_MAX_SIGMA    cached predictive-sigma gate (ps)
///   DAGT_RETRIEVAL_METRIC      "cosine" (default) or "l2"
///   DAGT_RETRIEVAL_BUCKET_ROWS  index bucket capacity
struct CacheConfig {
  bool enabled = false;
  /// A neighbor is usable only when its distance is <= maxDist (equality
  /// admits). Cosine distance of unit vectors, or L2, per `metric`.
  float maxDist = 0.02f;
  /// ... AND its cached posterior's predictive stddev is <= maxSigmaPs
  /// (equality admits): a dispersed posterior was uncertain when computed,
  /// so replaying it would silently serve a low-confidence answer as a
  /// confident one. See docs/retrieval.md for the error-budget math.
  float maxSigmaPs = 50.0f;
  EmbeddingIndex::Metric metric = EmbeddingIndex::Metric::kCosine;
  std::int64_t bucketRows = 1024;

  static CacheConfig fromEnv();
};

/// Learned prediction cache fronting PredictionEngine::predict: previously
/// computed Bayesian posteriors, retrieved by approximate-nearest-neighbor
/// probe over the model's disentangled path embeddings and admitted only
/// when BOTH gates of CacheConfig pass. One cache serves one design key
/// across revisions (the embedding space is the model's, not a
/// revision's).
///
/// Thread-safe throughout: the index has lock-free reads, the counters are
/// relaxed atomics, and the per-snapshot embedding memo is published via
/// Era objects (see below).
// dagt-analyze: mutex(PredictionCache::eraMutex_)
class PredictionCache {
 public:
  /// The cached value: the head's pre-bypass mean (ns, label scale) plus
  /// the predictive stddev (ps). Storing the mean PRE-bypass is what makes
  /// a hit valid across revisions — the caller re-applies w0 * preRoute
  /// with the CURRENT snapshot's pre-route arrival, so the STA-tracked part
  /// of the prediction is always fresh and only the learned correction is
  /// reused. Sigma is bypass-invariant (the bypass shifts every Monte-Carlo
  /// sample equally).
  struct Posterior {
    float rawMeanNs = 0.0f;
    float sigmaPs = 0.0f;
  };

  enum class ProbeOutcome {
    kHit,          // neighbor within maxDist and sigma within maxSigmaPs
    kMiss,         // index empty (nothing to compare against)
    kRejectDist,   // nearest neighbor too far — novel embedding
    kRejectSigma,  // neighbor close enough but its posterior too dispersed
  };

  struct ProbeResult {
    ProbeOutcome outcome = ProbeOutcome::kMiss;
    Posterior posterior;       // valid only for kHit
    float distance = -1.0f;    // nearest-neighbor distance, -1 on kMiss
  };

  PredictionCache(std::int64_t embeddingDim, CacheConfig config);

  const CacheConfig& config() const { return config_; }
  std::int64_t embeddingDim() const { return dim_; }

  /// Probe the index with one raw embedding (normalization happens inside
  /// the index). Updates the hit/miss/reject counters; every non-kHit
  /// outcome also counts as a miss (the caller falls through to the full
  /// head forward either way).
  ProbeResult probe(const float* rawEmbedding) const;

  /// Publish one freshly computed posterior under its raw embedding.
  void insert(const float* rawEmbedding, const Posterior& posterior);

  /// Per-snapshot memo of RAW joint embeddings (the head consumes the raw
  /// vector, so the memo must not normalize — the index does that itself).
  /// An Era is handed out as a shared_ptr: a concurrent snapshot swap
  /// replaces the cache's current era but cannot dangle the rows an
  /// in-flight batch is still reading. Rows are write-once: memoize()
  /// copies under the era mutex and publishes with a release flag, lookup()
  /// is a lock-free acquire read.
  class Era {
   public:
    Era(std::int64_t numEndpoints, std::int64_t dim);

    /// The memoized raw embedding of `endpoint`, or nullptr if none yet.
    const float* lookup(std::int64_t endpoint) const;
    /// Memoize `endpoint`'s embedding (first writer wins; identical
    /// recomputations by a racing writer are dropped, not rewritten).
    void memoize(std::int64_t endpoint, const float* rawEmbedding);

    std::int64_t numEndpoints() const { return numEndpoints_; }

   private:
    const std::int64_t numEndpoints_;
    const std::int64_t dim_;
    std::mutex memoMutex_;
    std::vector<float> rows_;  // GUARDED_BY(memoMutex_) until published
    std::unique_ptr<std::atomic<std::uint8_t>[]> present_;
  };

  /// The memo era for snapshot `snapshotKey` (any stable per-snapshot
  /// address, e.g. the ServableDesign pointer). A new key retires the old
  /// era — only the latest snapshot's embeddings are memoized, since a
  /// revision invalidates them all.
  std::shared_ptr<Era> eraFor(const void* snapshotKey,
                              std::int64_t numEndpoints);

  /// Monotone counter snapshot (relaxed reads; see ServeMetrics for why
  /// that is sound for monitoring).
  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;          // every fall-through, rejects included
    std::uint64_t rejectByDist = 0;
    std::uint64_t rejectBySigma = 0;
    std::uint64_t inserts = 0;
    std::uint64_t embedMemoHits = 0;
    std::uint64_t indexSize = 0;
    std::uint64_t hitPathBatches = 0;
    std::uint64_t missPathBatches = 0;
    double hitPathUsTotal = 0.0;
    double missPathUsTotal = 0.0;
  };
  Counters counters() const;

  /// Latency attribution: a served batch whose endpoints ALL hit is a
  /// hit-path batch; any fall-through makes it a miss-path batch.
  void recordHitPathUs(double us);
  void recordMissPathUs(double us);
  void recordEmbedMemoHits(std::uint64_t count);

 private:
  const std::int64_t dim_;
  const CacheConfig config_;
  EmbeddingIndex index_;

  /// Guards the current-era slot only; never held while embedding or
  /// probing (eraFor is a pointer swap, not a computation).
  mutable std::mutex eraMutex_;
  const void* eraKey_ = nullptr;        // GUARDED_BY(eraMutex_)
  std::shared_ptr<Era> era_;            // GUARDED_BY(eraMutex_)

  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> rejectByDist_{0};
  mutable std::atomic<std::uint64_t> rejectBySigma_{0};
  std::atomic<std::uint64_t> inserts_{0};
  std::atomic<std::uint64_t> embedMemoHits_{0};
  std::atomic<std::uint64_t> hitPathBatches_{0};
  std::atomic<std::uint64_t> missPathBatches_{0};
  /// Microsecond totals kept as integer nanos so they stay lock-free.
  std::atomic<std::uint64_t> hitPathNsTotal_{0};
  std::atomic<std::uint64_t> missPathNsTotal_{0};
};

}  // namespace dagt::retrieval
