// Seeded violation: two classes declare mutex_, so `left->mutex_` has no
// unique owner. Expected: exactly one lock-order-ambiguous finding.
#include <mutex>

class Left {
 public:
  void bump() {
    std::lock_guard<std::mutex> lock(mutex_);
    ++hits_;
  }
  std::mutex mutex_;
  int hits_ = 0;  // GUARDED_BY(mutex_)
};

class Right {
 public:
  void bump() {
    std::lock_guard<std::mutex> lock(mutex_);
    ++hits_;
  }
  std::mutex mutex_;
  int hits_ = 0;  // GUARDED_BY(mutex_)
};

void stir(Left* left) {
  std::lock_guard<std::mutex> lock(left->mutex_);
}
