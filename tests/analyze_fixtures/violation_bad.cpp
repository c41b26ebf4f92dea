// Seeded violation: the file declares a_ < b_ but drain() acquires a_
// while already holding b_. Expected: exactly one lock-order-violation.
#include <mutex>

// dagt-analyze: lock-order(Engine::a_<Engine::b_)

class Engine {
 public:
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
