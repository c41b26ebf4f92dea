#pragma once

// Fixture (never compiled): analyzed as src/tensor/ops_common.hpp.
// Exactly one hot-header-std-function violation survives.
#include <functional>

namespace dagt::tensor::detail {

// Type-erased per-element callback in a hot-path header: the violation.
void forEach(std::function<void(int)> fn);

// dagt-analyze: allow(hot-header-std-function) -- suppressed on the next line
using Callback = std::function<void(float)>;

template <typename F>
void forEachInlined(F&& fn);  // the template form the rule steers toward

}  // namespace dagt::tensor::detail
