#include "common/parallel.hpp"

namespace dagt {

std::size_t& parallelThreadCount() {
  static std::size_t count = 1;
  return count;
}

}  // namespace dagt
