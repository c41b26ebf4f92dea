// Fixture (never compiled): companion to guarded_by.hpp, analyzed as
// src/serve/fixture.cpp. Acquires lockedMutex_ (so its annotation passes)
// and deliberately never touches idleMutex_.
#include "serve/fixture.hpp"

namespace dagt::serve {

void FixtureRegistry::add(std::uint64_t v) {
  std::lock_guard<std::mutex> lock(lockedMutex_);
  values_.push_back(v);
}

std::uint64_t FixtureRegistry::total() const {
  // A mention of idleMutex_ in a comment must not count as an acquisition.
  std::uint64_t sum = 0;
  for (auto v : values_) sum += v;
  return sum;
}

}  // namespace dagt::serve
