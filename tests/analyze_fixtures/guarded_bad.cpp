// Seeded violation: values_ is mutated under mutex_ but its declaration
// carries no GUARDED_BY annotation. Expected: exactly one guarded-by-gap.
#include <mutex>
#include <vector>

class Cache {
 public:
  void add(int v) {
    std::lock_guard<std::mutex> lock(mutex_);
    values_.push_back(v);
  }

 private:
  std::mutex mutex_;
  int adds_ = 0;  // GUARDED_BY(mutex_)
  std::vector<int> values_;
};
