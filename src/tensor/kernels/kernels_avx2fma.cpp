#include <immintrin.h>

#include <vector>

#include "tensor/kernels/kernels_internal.hpp"

// AVX2+FMA tier. Only the dense GEMM family and the conv stack, which
// repeats its rounding, live here — elementwise, accumulate and reduction
// kernels are inherited from the avx2 table so they stay bitwise identical
// to scalar (see avx2FmaTable() below).
//
// The microkernel is register-blocked 4 rows x 16 columns with the B panel
// packed into thread-local scratch. Each C element still accumulates over
// p = 0..k-1 in order, starting from the loaded C value — identical
// accumulation ORDER to the scalar tier, but each step is fused
// (_mm256_fmadd_ps), so results differ from scalar by bounded ulps. The
// parity suite compares this tier under a tight relative tolerance.

namespace dagt::tensor::kernels {
namespace fma {

namespace {

thread_local std::vector<float> tlPanel;

// A(i, p) = a[i * aRowStride + p * aColStride]: covers both the row-major
// operand of matmul (aRowStride = k, aColStride = 1) and the transposed
// operand of the weight-gradient GEMM (aRowStride = 1, aColStride = n).
//
// When `prepacked` is non-null it points at a full B panel (layout of
// gemmPackB: column block jb starts at (jb/16) * k * 16) that a fused
// program packed when it compiled; otherwise each 16-column block is packed
// into thread-local scratch once per call. The packed values are bit-copies
// of B either way, so the panel cannot change a result bit.
void gemmBlocked(const float* a, std::int64_t aRowStride,
                 std::int64_t aColStride, const float* b,
                 const float* prepacked, float* c, std::int64_t rowBegin,
                 std::int64_t rowEnd, std::int64_t k, std::int64_t m) {
  if (rowEnd <= rowBegin || k <= 0 || m <= 0) return;
  const std::int64_t colBlocks = m / 16;
  if (colBlocks > 0) {
    float* scratch = nullptr;
    if (prepacked == nullptr) {
      std::vector<float>& panel = tlPanel;
      panel.resize(static_cast<std::size_t>(k) * 16);
      scratch = panel.data();
    }
    for (std::int64_t jb = 0; jb < colBlocks * 16; jb += 16) {
      const float* pk;
      if (prepacked != nullptr) {
        pk = prepacked + (jb / 16) * k * 16;
      } else {
        for (std::int64_t p = 0; p < k; ++p) {
          _mm256_storeu_ps(scratch + p * 16, _mm256_loadu_ps(b + p * m + jb));
          _mm256_storeu_ps(scratch + p * 16 + 8,
                           _mm256_loadu_ps(b + p * m + jb + 8));
        }
        pk = scratch;
      }
      std::int64_t i = rowBegin;
      for (; i + 4 <= rowEnd; i += 4) {
        float* cr0 = c + (i + 0) * m + jb;
        float* cr1 = c + (i + 1) * m + jb;
        float* cr2 = c + (i + 2) * m + jb;
        float* cr3 = c + (i + 3) * m + jb;
        __m256 c00 = _mm256_loadu_ps(cr0), c01 = _mm256_loadu_ps(cr0 + 8);
        __m256 c10 = _mm256_loadu_ps(cr1), c11 = _mm256_loadu_ps(cr1 + 8);
        __m256 c20 = _mm256_loadu_ps(cr2), c21 = _mm256_loadu_ps(cr2 + 8);
        __m256 c30 = _mm256_loadu_ps(cr3), c31 = _mm256_loadu_ps(cr3 + 8);
        const float* a0 = a + (i + 0) * aRowStride;
        const float* a1 = a + (i + 1) * aRowStride;
        const float* a2 = a + (i + 2) * aRowStride;
        const float* a3 = a + (i + 3) * aRowStride;
        for (std::int64_t p = 0; p < k; ++p) {
          const __m256 b0 = _mm256_loadu_ps(pk + p * 16);
          const __m256 b1 = _mm256_loadu_ps(pk + p * 16 + 8);
          const std::int64_t ap = p * aColStride;
          __m256 av = _mm256_set1_ps(a0[ap]);
          c00 = _mm256_fmadd_ps(av, b0, c00);
          c01 = _mm256_fmadd_ps(av, b1, c01);
          av = _mm256_set1_ps(a1[ap]);
          c10 = _mm256_fmadd_ps(av, b0, c10);
          c11 = _mm256_fmadd_ps(av, b1, c11);
          av = _mm256_set1_ps(a2[ap]);
          c20 = _mm256_fmadd_ps(av, b0, c20);
          c21 = _mm256_fmadd_ps(av, b1, c21);
          av = _mm256_set1_ps(a3[ap]);
          c30 = _mm256_fmadd_ps(av, b0, c30);
          c31 = _mm256_fmadd_ps(av, b1, c31);
        }
        _mm256_storeu_ps(cr0, c00);
        _mm256_storeu_ps(cr0 + 8, c01);
        _mm256_storeu_ps(cr1, c10);
        _mm256_storeu_ps(cr1 + 8, c11);
        _mm256_storeu_ps(cr2, c20);
        _mm256_storeu_ps(cr2 + 8, c21);
        _mm256_storeu_ps(cr3, c30);
        _mm256_storeu_ps(cr3 + 8, c31);
      }
      for (; i < rowEnd; ++i) {
        float* cr = c + i * m + jb;
        __m256 cv0 = _mm256_loadu_ps(cr), cv1 = _mm256_loadu_ps(cr + 8);
        const float* ar = a + i * aRowStride;
        for (std::int64_t p = 0; p < k; ++p) {
          const __m256 av = _mm256_set1_ps(ar[p * aColStride]);
          cv0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(pk + p * 16), cv0);
          cv1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(pk + p * 16 + 8), cv1);
        }
        _mm256_storeu_ps(cr, cv0);
        _mm256_storeu_ps(cr + 8, cv1);
      }
    }
  }
  // Column tail (m % 16): plain mul+add loops; the TU is compiled with
  // -ffp-contract=off so these stay two roundings per step, and per-element
  // accumulation is still in p order.
  const std::int64_t jTail = colBlocks * 16;
  if (jTail < m) {
    for (std::int64_t i = rowBegin; i < rowEnd; ++i) {
      float* crow = c + i * m;
      const float* ar = a + i * aRowStride;
      for (std::int64_t p = 0; p < k; ++p) {
        const float as = ar[p * aColStride];
        const float* brow = b + p * m;
        for (std::int64_t j = jTail; j < m; ++j) crow[j] += as * brow[j];
      }
    }
  }
}

}  // namespace

void gemmRows(const float* a, const float* b, float* c, std::int64_t rowBegin,
              std::int64_t rowEnd, std::int64_t k, std::int64_t m) {
  gemmBlocked(a, k, 1, b, nullptr, c, rowBegin, rowEnd, k, m);
}

void gemmTransARows(const float* a, const float* b, float* c,
                    std::int64_t rowBegin, std::int64_t rowEnd,
                    std::int64_t k, std::int64_t n, std::int64_t m) {
  gemmBlocked(a, 1, n, b, nullptr, c, rowBegin, rowEnd, k, m);
}

std::int64_t gemmPackBSize(std::int64_t k, std::int64_t m) {
  const std::int64_t colBlocks = m / 16;
  return colBlocks > 0 ? colBlocks * k * 16 : 0;
}

void gemmPackB(const float* b, std::int64_t k, std::int64_t m, float* packed) {
  const std::int64_t colBlocks = m / 16;
  for (std::int64_t jb = 0; jb < colBlocks * 16; jb += 16) {
    float* pk = packed + (jb / 16) * k * 16;
    for (std::int64_t p = 0; p < k; ++p) {
      _mm256_storeu_ps(pk + p * 16, _mm256_loadu_ps(b + p * m + jb));
      _mm256_storeu_ps(pk + p * 16 + 8, _mm256_loadu_ps(b + p * m + jb + 8));
    }
  }
}

void fusedGemmEpilogueRows(const float* a, const float* b,
                           const float* packedB, float* c,
                           std::int64_t rowBegin, std::int64_t rowEnd,
                           std::int64_t k, std::int64_t m,
                           const GemmEpilogue* epilogue) {
  gemmBlocked(a, k, 1, b, packedB, c, rowBegin, rowEnd, k, m);
  detail::applyGemmEpilogueRowsAvx2(c, rowBegin, rowEnd, m, *epilogue);
}

// The conv stack's pool reduces with the avx2 tier's sumVec, which this
// tier inherits.
struct ConvOps {
  static double sumVec(const float* x, std::size_t n) {
    return avx2Table().sumVec(x, n);
  }
};

}  // namespace fma

const KernelTable& avx2FmaTable() {
  static const KernelTable t = [] {
    KernelTable x = avx2Table();
    x.gemmRows = fma::gemmRows;
    x.gemmTransARows = fma::gemmTransARows;
    x.fusedGemmEpilogueRows = fma::fusedGemmEpilogueRows;
    x.gemmPackBSize = fma::gemmPackBSize;
    x.gemmPackB = fma::gemmPackB;
    x.convReluPoolRows = detail::convReluPoolRowsImpl<
        detail::ConvAvx2</*kFma=*/true, fma::ConvOps>>;
    // convPackSize / convPack: the avx2 tier's conv weight layout, which
    // this tier's stage reads too.
    // gemmTransBRows stays dot-based (bitwise contract), as do all
    // elementwise / accumulate / reduction kernels — including fusedEwRows,
    // whose avx2 implementation is bitwise identical to scalar.
    return x;
  }();
  return t;
}

}  // namespace dagt::tensor::kernels
