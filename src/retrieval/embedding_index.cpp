#include "retrieval/embedding_index.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/check.hpp"
#include "tensor/kernels/kernels.hpp"

namespace dagt::retrieval {

namespace {

namespace kernels = tensor::kernels;

/// Unit-normalize `src[0:dim]` into `dst` using the kernel table's
/// lane-blocked dot (bitwise across tiers, so the stored rows — and hence
/// every later distance — are too). A zero vector is copied unscaled.
void normalizeInto(const float* src, std::int64_t dim, float* dst) {
  const double normSq =
      kernels::active().dotVec(src, src, static_cast<std::size_t>(dim));
  const float norm = std::sqrt(static_cast<float>(normSq));
  if (norm > 0.0f) {
    kernels::active().scaleVec(src, 1.0f / norm, dst,
                               static_cast<std::size_t>(dim));
  } else {
    std::memcpy(dst, src, static_cast<std::size_t>(dim) * sizeof(float));
  }
}

/// Per-thread probe scratch (normalized query, top-k arrays, the scored
/// buckets' rows): the probe on the serving hot path performs no heap
/// allocation in steady state; only the returned neighbors are allocated.
struct ProbeScratch {
  std::vector<float> query;
  std::vector<float> topScores;
  std::vector<std::int64_t> topIds;
  std::vector<const float*> bucketRows;
};

thread_local ProbeScratch tlProbe;

}  // namespace

EmbeddingIndex::EmbeddingIndex(std::int64_t dim, std::int64_t payloadDim,
                               Metric metric, std::int64_t bucketRows)
    : dim_(dim),
      payloadDim_(payloadDim),
      metric_(metric),
      bucketRows_(bucketRows) {
  DAGT_CHECK_MSG(dim > 0, "embedding dim must be positive");
  DAGT_CHECK_MSG(payloadDim >= 0, "payload dim must be non-negative");
  DAGT_CHECK_MSG(bucketRows > 0, "bucket capacity must be positive");
}

EmbeddingIndex::~EmbeddingIndex() {
  Bucket* b = head_.load(std::memory_order_acquire);
  while (b != nullptr) {
    Bucket* next = b->next.load(std::memory_order_acquire);
    delete b;
    b = next;
  }
}

std::int64_t EmbeddingIndex::insert(const float* embedding,
                                    const float* payload) {
  DAGT_CHECK_MSG(payloadDim_ == 0 || payload != nullptr,
                 "insert: payload required (payloadDim > 0)");
  std::lock_guard<std::mutex> lock(writeMutex_);
  const std::int64_t id = size_.load(std::memory_order_relaxed);
  const std::int64_t slot = id % bucketRows_;
  if (tail_ == nullptr) {
    Bucket* fresh = new Bucket(bucketRows_ * rowStride());
    tail_ = fresh;
    head_.store(fresh, std::memory_order_release);
  } else if (slot == 0) {
    Bucket* fresh = new Bucket(bucketRows_ * rowStride());
    tail_->next.store(fresh, std::memory_order_release);
    tail_ = fresh;
  }
  float* row = tail_->rows.get() + slot * rowStride();
  normalizeInto(embedding, dim_, row);
  if (payloadDim_ > 0) {
    std::memcpy(row + dim_, payload,
                static_cast<std::size_t>(payloadDim_) * sizeof(float));
  }
  // Publish: the row bytes and any bucket link above happen-before every
  // reader that acquire-loads a size past this row.
  size_.store(id + 1, std::memory_order_release);
  return id;
}

std::vector<EmbeddingIndex::Neighbor> EmbeddingIndex::query(
    const float* embedding, std::int32_t k) const {
  DAGT_CHECK_MSG(k > 0, "query: k must be positive");
  std::vector<Neighbor> out;
  // The epoch: exactly the rows [0, epoch) are scored.
  const std::int64_t epoch = size_.load(std::memory_order_acquire);
  if (epoch == 0) return out;

  ProbeScratch& scratch = tlProbe;
  scratch.query.resize(static_cast<std::size_t>(dim_));
  normalizeInto(embedding, dim_, scratch.query.data());
  scratch.topScores.assign(static_cast<std::size_t>(k),
                           -std::numeric_limits<float>::infinity());
  scratch.topIds.assign(static_cast<std::size_t>(k), -1);

  // Buckets fill in insertion order, so row id lives in bucket
  // id / bucketRows_ at slot id % bucketRows_.
  const kernels::KernelTable& table = kernels::active();
  scratch.bucketRows.clear();
  std::int64_t idBase = 0;
  for (const Bucket* b = head_.load(std::memory_order_acquire); idBase < epoch;
       b = b->next.load(std::memory_order_acquire)) {
    const std::int64_t rows = std::min(bucketRows_, epoch - idBase);
    table.dotTopkRows(scratch.query.data(), b->rows.get(), rows, dim_,
                      rowStride(), idBase, k, scratch.topScores.data(),
                      scratch.topIds.data());
    scratch.bucketRows.push_back(b->rows.get());
    idBase += rows;
  }

  for (std::int32_t i = 0; i < k; ++i) {
    const std::int64_t id = scratch.topIds[static_cast<std::size_t>(i)];
    if (id < 0) break;
    const float dot = scratch.topScores[static_cast<std::size_t>(i)];
    Neighbor n;
    n.id = id;
    n.distance = metric_ == Metric::kCosine
                     ? 1.0f - dot
                     : std::sqrt(std::max(0.0f, 2.0f - 2.0f * dot));
    if (payloadDim_ > 0) {
      n.payload =
          scratch.bucketRows[static_cast<std::size_t>(id / bucketRows_)] +
          (id % bucketRows_) * rowStride() + dim_;
    }
    out.push_back(n);
  }
  return out;
}

}  // namespace dagt::retrieval
