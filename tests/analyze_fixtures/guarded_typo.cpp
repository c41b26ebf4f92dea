// Seeded violation: values_ names queueMutx_, a typo for the mutex its
// writers hold. Expected: exactly one guarded-by-unknown finding (an
// annotation naming no mutex must not count as guarding the field).
#include <mutex>
#include <vector>

class Queue {
 public:
  void push(int v) {
    std::lock_guard<std::mutex> lock(queueMutex_);
    values_.push_back(v);
    ++pushes_;
  }

 private:
  std::mutex queueMutex_;
  int pushes_ = 0;           // GUARDED_BY(queueMutex_)
  std::vector<int> values_;  // GUARDED_BY(queueMutx_)
};
