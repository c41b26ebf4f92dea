// Fixture (never compiled): analyzed as src/eval/fixture.cpp.
// Exactly one stdout-logging violation survives; one is suppressed.
#include <cstdio>
#include <iostream>

#include "common/logging.hpp"

namespace dagt::eval {

void report(double mae) {
  std::cout << "mae=" << mae << "\n";  // bypasses the logging subsystem
}

void reportSuppressed(double mae) {
  printf("mae=%f\n", mae);  // dagt-analyze: allow(stdout-logging)
}

void reportProperly(double mae) {
  DAGT_LOG_INFO("mae=" << mae);  // snprintf-into-logger path is exempt
}

}  // namespace dagt::eval
