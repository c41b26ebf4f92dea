#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>

namespace dagt {

/// Number of worker threads used by parallelFor (defaults to hardware
/// concurrency, capped at 16). Setting it to 1 makes everything serial.
std::size_t& parallelThreadCount();

namespace detail {

/// Monomorphic chunk runner: fn is invoked per contiguous [begin, end)
/// chunk through a single function pointer, so the per-index body compiles
/// inline inside the caller's trampoline instead of paying a type-erased
/// std::function call per element.
using ParallelChunkFn = void (*)(void* context, std::size_t chunkBegin,
                                 std::size_t chunkEnd);

void parallelForChunks(std::size_t begin, std::size_t end,
                       ParallelChunkFn chunk, void* context,
                       std::size_t grainSize);

}  // namespace detail

/// Run fn(i) for i in [begin, end) on up to parallelThreadCount() threads.
///
/// Each call constructs its worker std::threads, and joins them before it
/// returns; there is no persistent pool, and the calling thread only waits.
/// The range is split into contiguous chunks stolen from a shared cursor;
/// fn must be safe to call concurrently for distinct i. A range of at most
/// one grain runs inline on the caller, where spawning threads would cost
/// more than the work. A parallelFor nested inside a worker runs serially
/// on that worker (no thread explosion), so a parallel body may call the
/// parallel tensor ops. Exceptions thrown by fn are captured and rethrown
/// on the calling thread.
///
/// fn is captured by reference for the duration of the call (no copy, no
/// type erasure): the per-chunk trampoline below inlines the body, which
/// is what keeps fine-grained tensor kernels out of std::function.
template <typename F>
void parallelFor(std::size_t begin, std::size_t end, F&& fn,
                 std::size_t grainSize = 256) {
  using Body = std::remove_reference_t<F>;
  detail::parallelForChunks(
      begin, end,
      [](void* context, std::size_t chunkBegin, std::size_t chunkEnd) {
        Body& body = *static_cast<Body*>(context);
        for (std::size_t i = chunkBegin; i < chunkEnd; ++i) body(i);
      },
      const_cast<void*>(
          static_cast<const void*>(std::addressof(fn))),
      grainSize);
}

/// Run fn(chunkBegin, chunkEnd) over contiguous sub-ranges of [begin, end),
/// each at most grainSize long. Same per-call threads and stealing as
/// parallelFor, but the body receives whole ranges — this is what the SIMD
/// kernel layer wants: one call per row block instead of one per row.
template <typename F>
void parallelForRange(std::size_t begin, std::size_t end, F&& fn,
                      std::size_t grainSize = 256) {
  using Body = std::remove_reference_t<F>;
  detail::parallelForChunks(
      begin, end,
      [](void* context, std::size_t chunkBegin, std::size_t chunkEnd) {
        (*static_cast<Body*>(context))(chunkBegin, chunkEnd);
      },
      const_cast<void*>(
          static_cast<const void*>(std::addressof(fn))),
      grainSize);
}

}  // namespace dagt
