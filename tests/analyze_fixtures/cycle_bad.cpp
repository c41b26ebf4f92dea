// Seeded violation: fill() takes a_ then b_, drain() takes b_ then a_.
// Expected: exactly one lock-order-cycle finding naming both mutexes.
#include <mutex>

class Engine {
 public:
  void fill() {
    std::lock_guard<std::mutex> lockA(a_);
    std::lock_guard<std::mutex> lockB(b_);
  }
  void drain() {
    std::lock_guard<std::mutex> lockB(b_);
    std::lock_guard<std::mutex> lockA(a_);
  }

 private:
  std::mutex a_;
  std::mutex b_;
  int filled_ = 0;   // GUARDED_BY(a_)
  int drained_ = 0;  // GUARDED_BY(b_)
};
