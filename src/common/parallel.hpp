#pragma once

#include <cstddef>

namespace dagt {

/// Not read by the library: every tensor op runs on the thread that calls
/// it. Kept only because perfbench still assigns it (to 1) and records it
/// in its environment fingerprint; it goes once perfbench stops doing so.
std::size_t& parallelThreadCount();

}  // namespace dagt
