#pragma once

// Fixture (never compiled): analyzed as src/serve/fixture.hpp, paired with
// guarded_by.cpp as src/serve/fixture.cpp. Expected findings, one each:
//   guarded-by          -> bareMutex_ has a field-free declaration: no
//                          annotation anywhere references it
//   guarded-by-unknown  -> the ghostGuarded_ annotation names an
//                          undeclared mutex, ghostMutex_
//   guarded-by-unlocked -> idleMutex_ is annotated but never acquired in the
//                          header or the companion .cpp
// lockedMutex_ is the clean case: annotated and acquired in the .cpp.
#include <cstdint>
#include <mutex>
#include <vector>

namespace dagt::serve {

class FixtureRegistry {
 public:
  void add(std::uint64_t v);
  std::uint64_t total() const;

 private:
  std::mutex bareMutex_;  // violation: nothing declares itself guarded by it

  std::vector<std::uint64_t> ghostGuarded_;  // GUARDED_BY(ghostMutex_)

  std::mutex idleMutex_;
  std::uint64_t idleCount_ = 0;  // GUARDED_BY(idleMutex_)

  std::mutex lockedMutex_;
  std::vector<std::uint64_t> values_;  // GUARDED_BY(lockedMutex_)

  // dagt-analyze: allow(guarded-by)
  std::mutex suppressedMutex_;
};

}  // namespace dagt::serve
