#include "tensor/storage.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "obs/trace.hpp"

namespace dagt::tensor {

namespace {

thread_local Workspace* tActiveWorkspace = nullptr;
std::atomic<std::uint64_t> gNextWorkspaceId{1};

}  // namespace

// ---------------------------------------------------------------------------
// BufferPool
// ---------------------------------------------------------------------------

BufferPool& BufferPool::global() {
  static BufferPool* pool = new BufferPool();  // leaked: see header
  return *pool;
}

int BufferPool::bucketFor(std::size_t n) {
  std::size_t cap = kMinCapacity;
  int bucket = 0;
  while (cap < n) {
    cap <<= 1;
    ++bucket;
  }
  DAGT_CHECK_MSG(bucket < static_cast<int>(kNumBuckets),
                 "tensor buffer of " << n << " elements exceeds pool range");
  return bucket;
}

std::size_t BufferPool::bucketCapacity(int bucket) {
  return kMinCapacity << bucket;
}

std::shared_ptr<Buffer> BufferPool::acquire(std::size_t n) {
  const int bucket = bucketFor(n);
  const std::size_t cap = bucketCapacity(bucket);
  std::unique_ptr<Buffer> buffer;

  if (Workspace* ws = tActiveWorkspace) {
    auto& cache = ws->cache_[static_cast<std::size_t>(bucket)];
    if (!cache.empty()) {
      buffer = std::move(cache.back());
      cache.pop_back();
      workspaceReuses_.fetch_add(1, std::memory_order_relaxed);
      bytesPooled_.fetch_sub(cap * sizeof(float), std::memory_order_relaxed);
    }
  }
  if (!buffer) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& list = freeLists_[static_cast<std::size_t>(bucket)];
    if (!list.empty()) {
      buffer = std::move(list.back());
      list.pop_back();
      poolReuses_.fetch_add(1, std::memory_order_relaxed);
      bytesPooled_.fetch_sub(cap * sizeof(float), std::memory_order_relaxed);
    }
  }
  if (!buffer) {
    buffer = std::make_unique<Buffer>(cap, bucket);
    heapAllocs_.fetch_add(1, std::memory_order_relaxed);
    // Steady-state hot loops should never reach here; a burst of these
    // instants in a trace flags a pool-bypass regression.
    DAGT_TRACE_INSTANT("pool/heap_alloc", "bytes", cap * sizeof(float));
  }
  DAGT_DCHECK_MSG(buffer->bucket() == bucket,
                  "pool handed out a buffer from bucket " << buffer->bucket()
                                                          << " for request in "
                                                          << bucket);
  buffer->parked_ = false;  // live from here until the deleter releases it
  buffer->workspace_ = tActiveWorkspace != nullptr ? tActiveWorkspace->id_ : 0;
  bytesOutstanding_.fetch_add(cap * sizeof(float), std::memory_order_relaxed);

  return std::shared_ptr<Buffer>(buffer.release(), [](Buffer* raw) {
    BufferPool::global().release(std::unique_ptr<Buffer>(raw));
  });
}

void BufferPool::checkRelease(const Buffer& buffer) const {
  DAGT_DCHECK_MSG(!buffer.parked(),
                  "double release: buffer is already parked in the pool");
  DAGT_DCHECK_MSG(buffer.bucket() >= 0 &&
                      buffer.bucket() < static_cast<int>(kNumBuckets) &&
                      buffer.capacity() == bucketCapacity(buffer.bucket()),
                  "release of foreign buffer: bucket "
                      << buffer.bucket() << ", capacity "
                      << buffer.capacity());
}

void BufferPool::release(std::unique_ptr<Buffer> buffer) {
  checkRelease(*buffer);
  buffer->parked_ = true;
  const std::size_t bytes = buffer->capacity() * sizeof(float);
  released_.fetch_add(1, std::memory_order_relaxed);
  bytesOutstanding_.fetch_sub(bytes, std::memory_order_relaxed);
  Workspace* ws = tActiveWorkspace;
  if (ws != nullptr && buffer->workspace_ == ws->id_) {
    // Only the workspace's own buffers, and no more than the global lists
    // hold: a step that releases a burst of them must not pin it forever.
    auto& cache = ws->cache_[static_cast<std::size_t>(buffer->bucket())];
    if (cache.size() < kMaxPerBucket) {
      cache.push_back(std::move(buffer));
      bytesPooled_.fetch_add(bytes, std::memory_order_relaxed);
      return;
    }
  }
  parkGlobal(std::move(buffer));
}

void BufferPool::parkGlobal(std::unique_ptr<Buffer> buffer) {
  const std::size_t bytes = buffer->capacity() * sizeof(float);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& list = freeLists_[static_cast<std::size_t>(buffer->bucket())];
    if (list.size() < kMaxPerBucket) {
      list.push_back(std::move(buffer));
      bytesPooled_.fetch_add(bytes, std::memory_order_relaxed);
      return;
    }
  }
  freed_.fetch_add(1, std::memory_order_relaxed);  // bucket full: drop it
}

PoolStats BufferPool::stats() const {
  PoolStats s;
  s.heapAllocs = heapAllocs_.load(std::memory_order_relaxed);
  s.poolReuses = poolReuses_.load(std::memory_order_relaxed);
  s.workspaceReuses = workspaceReuses_.load(std::memory_order_relaxed);
  s.released = released_.load(std::memory_order_relaxed);
  s.freed = freed_.load(std::memory_order_relaxed);
  s.bytesOutstanding = bytesOutstanding_.load(std::memory_order_relaxed);
  s.bytesPooled = bytesPooled_.load(std::memory_order_relaxed);
  return s;
}

void BufferPool::resetStats() {
  heapAllocs_.store(0, std::memory_order_relaxed);
  poolReuses_.store(0, std::memory_order_relaxed);
  workspaceReuses_.store(0, std::memory_order_relaxed);
  released_.store(0, std::memory_order_relaxed);
  freed_.store(0, std::memory_order_relaxed);
}

std::size_t BufferPool::trim() {
  std::array<std::vector<std::unique_ptr<Buffer>>, kNumBuckets> drained;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    drained.swap(freeLists_);
  }
  std::size_t count = 0;
  for (auto& list : drained) {
    for (auto& buffer : list) {
      bytesPooled_.fetch_sub(buffer->capacity() * sizeof(float),
                             std::memory_order_relaxed);
      ++count;
    }
    list.clear();
  }
  return count;
}

// ---------------------------------------------------------------------------
// Workspace
// ---------------------------------------------------------------------------

Workspace::Workspace()
    : previous_(tActiveWorkspace),
      id_(gNextWorkspaceId.fetch_add(1, std::memory_order_relaxed)) {
  tActiveWorkspace = this;
}

Workspace::~Workspace() {
  DAGT_CHECK_MSG(tActiveWorkspace == this,
                 "Workspace destroyed out of LIFO order");
  tActiveWorkspace = previous_;
  DAGT_TRACE_INSTANT("pool/workspace_drain", "buffers", cachedBuffers());
  // Step end: hand the local cache back to the global pool so the next
  // step (possibly on another thread) reuses these buffers.
  BufferPool& pool = BufferPool::global();
  for (auto& list : cache_) {
    for (auto& buffer : list) {
      pool.bytesPooled_.fetch_sub(buffer->capacity() * sizeof(float),
                                  std::memory_order_relaxed);
      pool.parkGlobal(std::move(buffer));
    }
    list.clear();
  }
}

std::size_t Workspace::cachedBuffers() const {
  std::size_t count = 0;
  for (const auto& list : cache_) count += list.size();
  return count;
}

Workspace* Workspace::active() { return tActiveWorkspace; }

// ---------------------------------------------------------------------------
// Storage
// ---------------------------------------------------------------------------

Storage Storage::allocate(std::size_t n) {
  Storage s;
  if (n == 0) return s;
  s.buffer_ = BufferPool::global().acquire(n);
  s.offset_ = 0;
  s.size_ = n;
  return s;
}

Storage Storage::zeros(std::size_t n) {
  Storage s = allocate(n);
  s.fill(0.0f);
  return s;
}

Storage Storage::adopt(std::vector<float> values) {
  Storage s;
  s.size_ = values.size();
  if (s.size_ == 0) return s;
  s.buffer_ = std::make_shared<Buffer>(std::move(values));
  s.offset_ = 0;
  return s;
}

Storage Storage::view(std::size_t offset, std::size_t length) const {
  // Contract-level (DAGT_CHECKS): every caller derives the window from a
  // shape whose numel it already validated, so this is an internal
  // invariant, not an API boundary.
  DAGT_DCHECK_MSG(offset + length <= size_,
                  "storage view [" << offset << ", " << offset + length
                                   << ") of " << size_ << " elements");
  Storage s;
  s.buffer_ = buffer_;
  s.offset_ = offset_ + offset;
  s.size_ = length;
  return s;
}

void Storage::fill(float value) {
  if (size_ != 0) std::fill(begin(), end(), value);
}

void Storage::assign(std::size_t n, float value) {
  *this = allocate(n);
  fill(value);
}

}  // namespace dagt::tensor
