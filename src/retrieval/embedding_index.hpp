#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace dagt::retrieval {

/// Exact nearest-neighbor index over unit-normalized embeddings, built for
/// the serving hot path: rows live in flat fixed-capacity buckets scored by
/// the kernel table's batched dot-topk entry, so a probe is a handful of
/// SIMD dot sweeps, never a lock.
///
/// Concurrency model (thread-safe insert/query):
///   * Writers serialize on writeMutex_ (the index epoch mutex). An insert
///     links a fresh tail bucket when the tail is full, copies the row and
///     its payload into the tail, then publishes it with a release store of
///     size_, the one counter every row is published through.
///   * Readers never lock. A query acquire-loads size_ once as its epoch
///     and scores exactly that prefix of the bucket chain: every row and
///     bucket link below the epoch happens-before the load. Rows are
///     immutable once published and buckets are never freed before the
///     index, so a query races with inserts only in the benign "misses rows
///     committed after its epoch" sense, and every id it returns is below
///     the epoch, hence below any later size().
///
/// Each row carries `payloadDim` extra floats after the scored `dim`
/// (the cached posterior for the prediction cache); payload pointers
/// returned by query() stay valid for the index lifetime.
// dagt-analyze: mutex(EmbeddingIndex::writeMutex_)
class EmbeddingIndex {
 public:
  /// Distance reported for a neighbor, both derived from the same dot
  /// product of unit vectors: cosine = 1 - dot, l2 = sqrt(max(0, 2-2dot)).
  /// The top-k ranking is identical under either (both monotone in dot).
  enum class Metric { kCosine, kL2 };

  EmbeddingIndex(std::int64_t dim, std::int64_t payloadDim,
                 Metric metric = Metric::kCosine,
                 std::int64_t bucketRows = 1024);
  ~EmbeddingIndex();

  EmbeddingIndex(const EmbeddingIndex&) = delete;
  EmbeddingIndex& operator=(const EmbeddingIndex&) = delete;

  struct Neighbor {
    std::int64_t id = -1;
    float distance = 0.0f;
    const float* payload = nullptr;  // [payloadDim], immutable
  };

  /// Append one embedding (normalized internally; a zero vector is stored
  /// as-is and can never score above -inf... i.e. it matches nothing well).
  /// Returns the row's id (insertion order, starting at 0).
  std::int64_t insert(const float* embedding, const float* payload);

  /// The up-to-k nearest committed rows at this query's epoch, nearest
  /// first. Returns fewer than k entries while the index holds fewer rows,
  /// and an empty vector on an empty index.
  std::vector<Neighbor> query(const float* embedding, std::int32_t k) const;

  /// Committed row count (monotone): the epoch a query started now would
  /// score.
  std::int64_t size() const {
    return size_.load(std::memory_order_acquire);
  }

  std::int64_t dim() const { return dim_; }
  std::int64_t payloadDim() const { return payloadDim_; }
  Metric metric() const { return metric_; }

 private:
  struct Bucket {
    explicit Bucket(std::int64_t floats)
        : rows(new float[static_cast<std::size_t>(floats)]) {}
    std::unique_ptr<float[]> rows;  // [bucketRows, dim + payloadDim]
    std::atomic<Bucket*> next{nullptr};
  };

  std::int64_t rowStride() const { return dim_ + payloadDim_; }

  const std::int64_t dim_;
  const std::int64_t payloadDim_;
  const Metric metric_;
  const std::int64_t bucketRows_;

  /// The index epoch mutex: serializes the copy-then-publish of a row and
  /// the linking of a fresh tail bucket. Queries never take it.
  std::mutex writeMutex_;
  Bucket* tail_ = nullptr;  // GUARDED_BY(writeMutex_)

  std::atomic<Bucket*> head_{nullptr};
  /// Rows published; written only under writeMutex_.
  std::atomic<std::int64_t> size_{0};
};

}  // namespace dagt::retrieval
