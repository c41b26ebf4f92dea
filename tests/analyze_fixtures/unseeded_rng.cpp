// Fixture (never compiled): analyzed as src/core/fixture.cpp.
// Exactly one unseeded-rng violation survives; two are suppressed.
#include <cstdlib>
#include <random>

namespace dagt::core {

int unseededDraw() {
  return rand();  // unseeded: every run differs, experiments irreproducible
}

// dagt-analyze: allow(unseeded-rng)
static std::mt19937 suppressedEngine;

void seedIt() {
  srand(42);  // dagt-analyze: allow(unseeded-rng) -- fixture suppression
}

// The comment channel must not trigger the rule: rand() and mt19937 here
// are prose, not code.

}  // namespace dagt::core
