// Fixture for the intrinsics-outside-kernels rule: analyzed under a virtual
// path outside src/tensor/kernels/, the include on line 5 and the two raw
// SIMD uses on line 9 must fire; the suppressed call on line 13 must not.

#include <immintrin.h>

namespace dagt::tensor {

float sumFast(const float* x) { __m256 v = _mm256_loadu_ps(x); return x[0]; }

void scaleFast(float* x) {
  // dagt-analyze: allow(intrinsics-outside-kernels)
  (void)_mm256_setzero_ps();
}

}  // namespace dagt::tensor
