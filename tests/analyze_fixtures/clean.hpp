#pragma once

// Fixture (never compiled): analyzed as src/serve/clean_fixture.hpp.
// Control case: exercises every rule's scope without violating any of them.
// Expected findings: none.
#include <cstdint>
#include <mutex>
#include <vector>

namespace dagt::serve {

class CleanCounter {
 public:
  void bump() {
    std::lock_guard<std::mutex> lock(mutex_);
    ++count_;
  }

  std::uint64_t value() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return count_;
  }

 private:
  mutable std::mutex mutex_;
  std::uint64_t count_ = 0;  // GUARDED_BY(mutex_)
};

}  // namespace dagt::serve
