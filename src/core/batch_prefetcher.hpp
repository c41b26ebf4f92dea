#pragma once

#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "obs/trace.hpp"

namespace dagt::core {

/// Single-producer / single-consumer step prefetcher with a depth-1 slot
/// (classic double buffering: while the consumer trains on step N, the
/// producer thread prepares step N+1).
///
/// The producer callback owns ALL stochastic schedule state (the Rng,
/// epoch shuffles, dataset sampling) and runs on exactly one thread in
/// strict step order, so the steps it yields are the ones a serial loop
/// would draw. This is also what makes it safe to feed from
/// TimingDataset, whose image cache is not synchronized: during training
/// only the producer thread touches the dataset.
///
/// The callback fills the next step and returns true, or returns false
/// when the schedule is exhausted. Exceptions it throws are captured and
/// rethrown from next().
template <typename Step>
class BatchPrefetcher {
 public:
  using Producer = std::function<bool(Step&)>;

  explicit BatchPrefetcher(Producer produce) : produce_(std::move(produce)) {
    thread_ = std::thread([this] { producerLoop(); });
  }

  ~BatchPrefetcher() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  BatchPrefetcher(const BatchPrefetcher&) = delete;
  BatchPrefetcher& operator=(const BatchPrefetcher&) = delete;

  /// Blocks until the next step is ready; false when the schedule ended.
  bool next(Step& out) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return slot_.has_value() || done_; });
    if (slot_.has_value()) {
      out = std::move(*slot_);
      slot_.reset();
      lock.unlock();
      cv_.notify_all();
      return true;
    }
    if (error_) std::rethrow_exception(error_);
    return false;
  }

 private:
  void producerLoop() {
    while (true) {
      Step step;
      bool produced = false;
      std::exception_ptr error;
      {
        DAGT_TRACE_SCOPE("train/prefetch");
        try {
          produced = produce_(step);
        } catch (...) {
          error = std::current_exception();
        }
      }
      std::unique_lock<std::mutex> lock(mutex_);
      if (error || !produced) {
        error_ = error;
        done_ = true;
        lock.unlock();
        cv_.notify_all();
        return;
      }
      cv_.wait(lock, [this] { return !slot_.has_value() || stop_; });
      if (stop_) return;
      slot_.emplace(std::move(step));
      lock.unlock();
      cv_.notify_all();
    }
  }

  Producer produce_;
  std::thread thread_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::optional<Step> slot_;        // GUARDED_BY(mutex_)
  bool done_ = false;               // GUARDED_BY(mutex_)
  bool stop_ = false;               // GUARDED_BY(mutex_)
  std::exception_ptr error_;        // GUARDED_BY(mutex_)
};

}  // namespace dagt::core
