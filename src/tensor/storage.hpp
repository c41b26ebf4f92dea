#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace dagt::tensor {

/// Fixed-capacity float buffer. Pool-originated buffers carry the bucket
/// they came from so release can re-park them, and the Workspace that
/// handed them out; adopted buffers (wrapping a caller-provided vector)
/// carry bucket -1 and are freed on release.
class Buffer {
 public:
  Buffer(std::size_t capacity, int bucket)
      : values_(capacity), bucket_(bucket) {}
  explicit Buffer(std::vector<float> adopted)
      : values_(std::move(adopted)), bucket_(-1) {}

  float* data() { return values_.data(); }
  const float* data() const { return values_.data(); }
  std::size_t capacity() const { return values_.size(); }
  int bucket() const { return bucket_; }
  /// True while the buffer sits in a free list / workspace cache (i.e. is
  /// not owned by any live Storage). Maintained by BufferPool to enforce
  /// the single-release contract.
  bool parked() const { return parked_; }

 private:
  friend class BufferPool;

  std::vector<float> values_;
  int bucket_;  // free-list index in BufferPool; -1 = not poolable
  bool parked_ = false;
  std::uint64_t workspace_ = 0;  // id of the Workspace that handed it out
};

/// Counters describing pool behaviour since the last resetStats().
struct PoolStats {
  std::uint64_t heapAllocs = 0;       // acquisitions that hit the heap
  std::uint64_t poolReuses = 0;       // served from the global free lists
  std::uint64_t workspaceReuses = 0;  // served from a thread's Workspace
  std::uint64_t released = 0;         // pooled buffers returned by tensors
  std::uint64_t freed = 0;            // returns that fell to the heap
  std::uint64_t bytesOutstanding = 0; // live pooled bytes (not reset)
  std::uint64_t bytesPooled = 0;      // bytes parked in free lists (not reset)

  std::uint64_t acquisitions() const {
    return heapAllocs + poolReuses + workspaceReuses;
  }
  /// Fraction of acquisitions served without touching the heap.
  double hitRate() const {
    const std::uint64_t total = acquisitions();
    return total == 0 ? 0.0
                      : static_cast<double>(poolReuses + workspaceReuses) /
                            static_cast<double>(total);
  }
};

class Workspace;
struct PoolContractTestPeer;

/// Process-wide, thread-safe, size-bucketed recycler for tensor buffers.
///
/// Capacities are rounded up to powers of two (>= kMinCapacity elements);
/// each power of two is one free list, bounded at kMaxPerBucket buffers so
/// a transient spike cannot pin memory forever. Acquisition first consults
/// the calling thread's active Workspace (lock-free), then the global free
/// lists, then the heap. Released buffers take the reverse path.
class BufferPool {
 public:
  static constexpr std::size_t kMinCapacity = 64;   // elements
  static constexpr std::size_t kNumBuckets = 32;
  // Per bucket, in the global free list and in each Workspace cache.
  static constexpr std::size_t kMaxPerBucket = 64;

  /// The process-wide pool (leaked singleton: tensors with static storage
  /// duration may release buffers after main returns).
  static BufferPool& global();

  /// A buffer with capacity >= n elements, contents unspecified. The
  /// returned handle re-parks the buffer when the last reference dies.
  std::shared_ptr<Buffer> acquire(std::size_t n);

  PoolStats stats() const;
  /// Zero the alloc/reuse/release counters (gauges are left alone).
  void resetStats();
  /// Free every buffer parked in the global lists (Workspace caches are
  /// untouched); returns the number freed.
  std::size_t trim();

 private:
  friend class Workspace;
  friend struct PoolContractTestPeer;

  BufferPool() = default;
  void release(std::unique_ptr<Buffer> buffer);
  /// Release contracts (DAGT_CHECKS level): the buffer must be live (a
  /// parked buffer being released again is a double release) and must be a
  /// pool-shaped buffer (valid bucket whose capacity matches — anything
  /// else is a foreign buffer that never came from acquire()).
  void checkRelease(const Buffer& buffer) const;
  /// Park into the global free list (or free when the bucket is full).
  /// Called with workspace-drained buffers and pool-path releases.
  void parkGlobal(std::unique_ptr<Buffer> buffer);
  static int bucketFor(std::size_t n);
  static std::size_t bucketCapacity(int bucket);

  mutable std::mutex mutex_;
  // GUARDED_BY(mutex_)
  std::array<std::vector<std::unique_ptr<Buffer>>, kNumBuckets> freeLists_;

  std::atomic<std::uint64_t> heapAllocs_{0};
  std::atomic<std::uint64_t> poolReuses_{0};
  std::atomic<std::uint64_t> workspaceReuses_{0};
  std::atomic<std::uint64_t> released_{0};
  std::atomic<std::uint64_t> freed_{0};
  std::atomic<std::uint64_t> bytesOutstanding_{0};
  std::atomic<std::uint64_t> bytesPooled_{0};
};

/// Test-only backdoor (tests/test_check.cpp) for exercising the pool's
/// release contracts without routing ownership through the shared_ptr
/// deleter: checkRelease only validates, it never takes the buffer.
struct PoolContractTestPeer {
  static void checkRelease(const BufferPool& pool, const Buffer& buffer) {
    pool.checkRelease(buffer);
  }
};

/// RAII buffer-recycling scope for one unit of repeated work (a training
/// step, one Monte-Carlo sampling loop, one served batch).
///
/// While a Workspace is active on a thread, the buffers it handed out that
/// are released on that thread are cached locally (no lock, up to
/// kMaxPerBucket per bucket; the overflow goes to the global lists) and
/// handed back on the next acquisition; on destruction the remaining cache
/// is returned to the global BufferPool, so the next step — possibly on
/// another thread — starts from a warm pool instead of the heap. A buffer
/// acquired elsewhere goes straight to the global lists: a workspace that
/// lives as long as its thread (a serve worker's) may never acquire that
/// bucket, and would hoard every such buffer released on it (say, the
/// level tensors of a memo that a design load's warm-up filled, dropped
/// by the worker's next memo fill). Workspaces nest; the innermost one on
/// each thread is active.
class Workspace {
 public:
  Workspace();
  ~Workspace();
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Buffers currently parked in this workspace's local cache.
  std::size_t cachedBuffers() const;

  /// The innermost live Workspace on the calling thread (nullptr if none).
  static Workspace* active();

 private:
  friend class BufferPool;

  Workspace* previous_;
  std::uint64_t id_;  // unique per Workspace, never 0
  std::array<std::vector<std::unique_ptr<Buffer>>, BufferPool::kNumBuckets>
      cache_;
};

/// Ref-counted view of a Buffer: offset + length over shared contents.
///
/// Copying a Storage aliases the same bytes (this is what makes reshape /
/// sliceRows / detach O(1)); the underlying buffer returns to the pool
/// when the last alias dies. The surface mimics the slice of
/// std::vector<float> the tensor engine historically used, so op kernels
/// read and write it unchanged.
class Storage {
 public:
  Storage() = default;

  /// Pooled allocation of n elements, contents unspecified.
  static Storage allocate(std::size_t n);
  /// Pooled allocation of n elements, zero-filled.
  static Storage zeros(std::size_t n);
  /// Wrap an existing vector without copying (not returned to the pool).
  static Storage adopt(std::vector<float> values);

  /// Alias of elements [offset, offset + length) of this storage.
  Storage view(std::size_t offset, std::size_t length) const;

  float* data() { return buffer_ ? buffer_->data() + offset_ : nullptr; }
  const float* data() const {
    return buffer_ ? buffer_->data() + offset_ : nullptr;
  }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// True once backed by a buffer (a zero-length view still counts).
  bool allocated() const { return buffer_ != nullptr; }

  float& operator[](std::size_t i) { return data()[i]; }
  const float& operator[](std::size_t i) const { return data()[i]; }
  float* begin() { return data(); }
  float* end() { return data() + size_; }
  const float* begin() const { return data(); }
  const float* end() const { return data() + size_; }

  void fill(float value);
  /// Replace with a fresh pooled allocation of n copies of value.
  void assign(std::size_t n, float value);
  void reset() {
    buffer_.reset();
    offset_ = 0;
    size_ = 0;
  }
  /// True when both storages share the same underlying buffer.
  bool aliases(const Storage& other) const {
    return buffer_ != nullptr && buffer_ == other.buffer_;
  }

 private:
  std::shared_ptr<Buffer> buffer_;
  std::size_t offset_ = 0;
  std::size_t size_ = 0;
};

}  // namespace dagt::tensor
