// Clean twin of ambiguous_bad.cpp: the owner hint resolves the expression.
// Expected: zero findings.
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
  // dagt-analyze: mutex(Left::mutex_)
  std::lock_guard<std::mutex> lock(left->mutex_);
}
