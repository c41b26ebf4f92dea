#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

namespace dagt {

std::size_t& parallelThreadCount() {
  static std::size_t count = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<std::size_t>(std::clamp(hw, 1u, 16u));
  }();
  return count;
}

namespace {
// Set on parallelFor worker threads for the duration of their chunk loop;
// nested parallelFor calls from inside a worker degrade to a serial run.
thread_local bool tlInParallelRegion = false;
}  // namespace

namespace detail {

void parallelForChunks(std::size_t begin, std::size_t end,
                       ParallelChunkFn chunk, void* context,
                       std::size_t grainSize) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t threads =
      tlInParallelRegion
          ? 1
          : std::min(parallelThreadCount(), (n + grainSize - 1) / grainSize);
  if (threads <= 1) {
    chunk(context, begin, end);
    return;
  }

  // Dynamic chunking via a shared cursor: workers steal fixed-size chunks,
  // which balances well when per-index cost is uneven (e.g. ragged rows).
  std::atomic<std::size_t> cursor{begin};
  std::exception_ptr firstError;
  std::atomic<bool> failed{false};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  auto worker = [&] {
    tlInParallelRegion = true;
    while (true) {
      const std::size_t chunkBegin =
          cursor.fetch_add(grainSize, std::memory_order_relaxed);
      if (chunkBegin >= end || failed.load(std::memory_order_relaxed)) return;
      const std::size_t chunkEnd = std::min(end, chunkBegin + grainSize);
      try {
        chunk(context, chunkBegin, chunkEnd);
      } catch (...) {
        if (!failed.exchange(true)) firstError = std::current_exception();
        return;
      }
    }
  };
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (auto& th : pool) th.join();
  if (failed && firstError) std::rethrow_exception(firstError);
}

}  // namespace detail

}  // namespace dagt
