// Same gap as guarded_bad.cpp but suppressed with an allow() annotation on
// the mutation site. Expected: zero findings.
#include <mutex>
#include <vector>

class Cache {
 public:
  void add(int v) {
    std::lock_guard<std::mutex> lock(mutex_);
    // dagt-analyze: allow(guarded-by-gap)
    values_.push_back(v);
  }

 private:
  std::mutex mutex_;
  int adds_ = 0;  // GUARDED_BY(mutex_)
  std::vector<int> values_;
};
