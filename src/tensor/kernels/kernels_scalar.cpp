#include <cstring>

#include "tensor/kernels/kernels_internal.hpp"

// Scalar (reference) tier. Every other tier is defined against this file:
// the avx2 tier must reproduce these results bit-for-bit, avx2fma may only
// deviate where the header documents fused rounding. Keep these loops
// boring — no early-outs, no reassociation — because any cleverness here
// becomes part of the cross-tier contract.

namespace dagt::tensor::kernels {
namespace scalar {

void gemmRows(const float* a, const float* b, float* c, std::int64_t rowBegin,
              std::int64_t rowEnd, std::int64_t k, std::int64_t m) {
  for (std::int64_t i = rowBegin; i < rowEnd; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * m;
    for (std::int64_t p = 0; p < k; ++p) {
      const float av = arow[p];
      const float* brow = b + p * m;
      for (std::int64_t j = 0; j < m; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemmTransARows(const float* a, const float* b, float* c,
                    std::int64_t rowBegin, std::int64_t rowEnd,
                    std::int64_t k, std::int64_t n, std::int64_t m) {
  for (std::int64_t i = rowBegin; i < rowEnd; ++i) {
    float* crow = c + i * m;
    for (std::int64_t p = 0; p < k; ++p) {
      const float av = a[p * n + i];
      const float* brow = b + p * m;
      for (std::int64_t j = 0; j < m; ++j) crow[j] += av * brow[j];
    }
  }
}

// Lane-blocked reduction scheme (the cross-tier contract): 8 double lanes
// filled in stride order (lane l accumulates elements 8*b + l), combined by
// the fixed tree ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)), then the tail added
// sequentially. Products are rounded to float BEFORE widening, matching
// what _mm256_mul_ps + _mm256_cvtps_pd computes.

double sumVec(const float* x, std::size_t n) {
  double lane[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  const std::size_t blocks = n / 8;
  for (std::size_t b = 0; b < blocks; ++b) {
    for (std::size_t l = 0; l < 8; ++l) {
      lane[l] += static_cast<double>(x[b * 8 + l]);
    }
  }
  double total = ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
                 ((lane[4] + lane[5]) + (lane[6] + lane[7]));
  for (std::size_t i = blocks * 8; i < n; ++i) {
    total += static_cast<double>(x[i]);
  }
  return total;
}

double dotVec(const float* x, const float* y, std::size_t n) {
  double lane[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  const std::size_t blocks = n / 8;
  for (std::size_t b = 0; b < blocks; ++b) {
    for (std::size_t l = 0; l < 8; ++l) {
      const std::size_t i = b * 8 + l;
      lane[l] += static_cast<double>(x[i] * y[i]);
    }
  }
  double total = ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
                 ((lane[4] + lane[5]) + (lane[6] + lane[7]));
  for (std::size_t i = blocks * 8; i < n; ++i) {
    total += static_cast<double>(x[i] * y[i]);
  }
  return total;
}

void gemmTransBRows(const float* a, const float* b, float* c,
                    std::int64_t rowBegin, std::int64_t rowEnd,
                    std::int64_t m, std::int64_t kOut) {
  for (std::int64_t i = rowBegin; i < rowEnd; ++i) {
    const float* arow = a + i * m;
    float* crow = c + i * kOut;
    for (std::int64_t p = 0; p < kOut; ++p) {
      crow[p] += static_cast<float>(
          dotVec(arow, b + p * m, static_cast<std::size_t>(m)));
    }
  }
}

void addVec(const float* x, const float* y, float* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = x[i] + y[i];
}

void subVec(const float* x, const float* y, float* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = x[i] - y[i];
}

void mulVec(const float* x, const float* y, float* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = x[i] * y[i];
}

void divVec(const float* x, const float* y, float* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = x[i] / y[i];
}

void scaleVec(const float* x, float s, float* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = x[i] * s;
}

void addScalarVec(const float* x, float s, float* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = x[i] + s;
}

void reluVec(const float* x, float* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void accAddVec(const float* x, float* acc, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] += x[i];
}

void accScaleVec(const float* x, float s, float* acc, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] += x[i] * s;
}

void accMulVec(const float* x, const float* y, float* acc, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] += x[i] * y[i];
}

void fusedEwRows(const float* const* operands, const std::uint8_t* kinds,
                 int numOperands, const EwStep* steps, int numSteps,
                 float* out, std::int64_t rows, std::int64_t cols) {
  detail::fusedEwRowsImpl(operands, kinds, numOperands, steps, numSteps, out,
                          rows, cols);
}

void fusedGemmEpilogueRows(const float* a, const float* b,
                           const float* /*packedB*/, float* c,
                           std::int64_t rowBegin, std::int64_t rowEnd,
                           std::int64_t k, std::int64_t m,
                           const GemmEpilogue* epilogue) {
  gemmRows(a, b, c, rowBegin, rowEnd, k, m);
  detail::applyGemmEpilogueRows(c, rowBegin, rowEnd, m, *epilogue);
}

// The scalar tier never packs: fusedGemmEpilogueRows ignores the panel so
// callers can share one packing decision across tiers.
std::int64_t gemmPackBSize(std::int64_t /*k*/, std::int64_t /*m*/) {
  return 0;
}

void gemmPackB(const float* /*b*/, std::int64_t /*k*/, std::int64_t /*m*/,
               float* /*packed*/) {}

void segmentSumRows(const float* src, const std::int64_t* segment,
                    std::int64_t rows, std::int64_t cols, float* out) {
  detail::segmentSumRowsImpl(src, segment, rows, cols, out);
}

void gatherRowsPtrs(const float* const* srcRows, std::int64_t rows,
                    std::int64_t cols, float* out) {
  const std::size_t bytes = static_cast<std::size_t>(cols) * sizeof(float);
  for (std::int64_t r = 0; r < rows; ++r) {
    std::memcpy(out + r * cols, srcRows[r], bytes);
  }
}

// This tier's kernels, as the level-kernel templates in
// kernels_internal.hpp call them.
struct LevelOps {
  static constexpr auto accAddVec = &scalar::accAddVec;
  static constexpr auto scaleVec = &scalar::scaleVec;
  static constexpr auto sumVec = &scalar::sumVec;
  static constexpr auto dotVec = &scalar::dotVec;
  static constexpr auto addScalarVec = &scalar::addScalarVec;
  static constexpr auto divVec = &scalar::divVec;
  static constexpr auto mulVec = &scalar::mulVec;
  static constexpr auto addVec = &scalar::addVec;
  static constexpr auto reluVec = &scalar::reluVec;
};

}  // namespace scalar

// Assignment style (not a positional aggregate) so adding a KernelTable
// member can never silently shift later entries; dagt-analyze's
// kernel-table-complete rule keys off these named assignments.
const KernelTable& scalarTable() {
  static const KernelTable t = [] {
    KernelTable x{};
    x.gemmRows = scalar::gemmRows;
    x.gemmTransARows = scalar::gemmTransARows;
    x.gemmTransBRows = scalar::gemmTransBRows;
    x.addVec = scalar::addVec;
    x.subVec = scalar::subVec;
    x.mulVec = scalar::mulVec;
    x.divVec = scalar::divVec;
    x.scaleVec = scalar::scaleVec;
    x.addScalarVec = scalar::addScalarVec;
    x.reluVec = scalar::reluVec;
    x.accAddVec = scalar::accAddVec;
    x.accScaleVec = scalar::accScaleVec;
    x.accMulVec = scalar::accMulVec;
    x.sumVec = scalar::sumVec;
    x.dotVec = scalar::dotVec;
    x.fusedEwRows = scalar::fusedEwRows;
    x.fusedGemmEpilogueRows = scalar::fusedGemmEpilogueRows;
    x.gemmPackBSize = scalar::gemmPackBSize;
    x.gemmPackB = scalar::gemmPackB;
    x.segmentSumRows = scalar::segmentSumRows;
    x.gatherRowsPtrs = scalar::gatherRowsPtrs;
    x.segmentMeanMaxRows = detail::segmentMeanMaxRowsImpl<scalar::LevelOps>;
    x.layerNormRows = detail::layerNormRowsImpl<scalar::LevelOps>;
    x.convReluPoolRows =
        detail::convReluPoolRowsImpl<detail::ConvScalar<scalar::LevelOps>>;
    return x;
  }();
  return t;
}

}  // namespace dagt::tensor::kernels
