// Clean twin of cycle_bad.cpp: both paths take a_ before b_.
// Expected: zero findings.
#include <mutex>

class Engine {
 public:
  void fill() {
    std::lock_guard<std::mutex> lockA(a_);
    std::lock_guard<std::mutex> lockB(b_);
  }
  void drain() {
    std::lock_guard<std::mutex> lockA(a_);
    std::lock_guard<std::mutex> lockB(b_);
  }

 private:
  std::mutex a_;
  std::mutex b_;
  int filled_ = 0;   // GUARDED_BY(a_)
  int drained_ = 0;  // GUARDED_BY(b_)
};
