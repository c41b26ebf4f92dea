#include <immintrin.h>

#include <cstring>

#include "tensor/kernels/kernels_internal.hpp"

// AVX2 tier, no FMA: every operation below performs the exact same sequence
// of IEEE-rounded mul/add steps as kernels_scalar.cpp, just 8 lanes at a
// time, so results are bitwise identical to the scalar tier (the parity
// suite asserts this with memcmp). That rules out _mm256_fmadd_ps here —
// fusion lives in kernels_avx2fma.cpp where the contract allows it.

namespace dagt::tensor::kernels {
namespace avx2 {

void gemmRows(const float* a, const float* b, float* c, std::int64_t rowBegin,
              std::int64_t rowEnd, std::int64_t k, std::int64_t m) {
  for (std::int64_t i = rowBegin; i < rowEnd; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * m;
    for (std::int64_t p = 0; p < k; ++p) {
      const __m256 av = _mm256_set1_ps(arow[p]);
      const float* brow = b + p * m;
      std::int64_t j = 0;
      for (; j + 8 <= m; j += 8) {
        const __m256 cv = _mm256_loadu_ps(crow + j);
        const __m256 prod = _mm256_mul_ps(av, _mm256_loadu_ps(brow + j));
        _mm256_storeu_ps(crow + j, _mm256_add_ps(cv, prod));
      }
      const float as = arow[p];
      for (; j < m; ++j) crow[j] += as * brow[j];
    }
  }
}

void gemmTransARows(const float* a, const float* b, float* c,
                    std::int64_t rowBegin, std::int64_t rowEnd,
                    std::int64_t k, std::int64_t n, std::int64_t m) {
  for (std::int64_t i = rowBegin; i < rowEnd; ++i) {
    float* crow = c + i * m;
    for (std::int64_t p = 0; p < k; ++p) {
      const float as = a[p * n + i];
      const __m256 av = _mm256_set1_ps(as);
      const float* brow = b + p * m;
      std::int64_t j = 0;
      for (; j + 8 <= m; j += 8) {
        const __m256 cv = _mm256_loadu_ps(crow + j);
        const __m256 prod = _mm256_mul_ps(av, _mm256_loadu_ps(brow + j));
        _mm256_storeu_ps(crow + j, _mm256_add_ps(cv, prod));
      }
      for (; j < m; ++j) crow[j] += as * brow[j];
    }
  }
}

// Shared tail of the lane-blocked reductions: combine the 8 double lanes
// (acc_lo = lanes 0..3, acc_hi = lanes 4..7) with the contract's fixed tree.
static inline double combineLanes(__m256d accLo, __m256d accHi) {
  alignas(32) double lo[4];
  alignas(32) double hi[4];
  _mm256_store_pd(lo, accLo);
  _mm256_store_pd(hi, accHi);
  return ((lo[0] + lo[1]) + (lo[2] + lo[3])) +
         ((hi[0] + hi[1]) + (hi[2] + hi[3]));
}

double sumVec(const float* x, std::size_t n) {
  __m256d accLo = _mm256_setzero_pd();
  __m256d accHi = _mm256_setzero_pd();
  const std::size_t blocks = n / 8;
  for (std::size_t b = 0; b < blocks; ++b) {
    const __m256 v = _mm256_loadu_ps(x + b * 8);
    accLo = _mm256_add_pd(accLo, _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
    accHi = _mm256_add_pd(accHi, _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
  }
  double total = combineLanes(accLo, accHi);
  for (std::size_t i = blocks * 8; i < n; ++i) {
    total += static_cast<double>(x[i]);
  }
  return total;
}

double dotVec(const float* x, const float* y, std::size_t n) {
  __m256d accLo = _mm256_setzero_pd();
  __m256d accHi = _mm256_setzero_pd();
  const std::size_t blocks = n / 8;
  for (std::size_t b = 0; b < blocks; ++b) {
    // Product rounded to float first (the contract), then widened.
    const __m256 prod =
        _mm256_mul_ps(_mm256_loadu_ps(x + b * 8), _mm256_loadu_ps(y + b * 8));
    accLo =
        _mm256_add_pd(accLo, _mm256_cvtps_pd(_mm256_castps256_ps128(prod)));
    accHi =
        _mm256_add_pd(accHi, _mm256_cvtps_pd(_mm256_extractf128_ps(prod, 1)));
  }
  double total = combineLanes(accLo, accHi);
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
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_loadu_ps(x + i),
                                            _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) out[i] = x[i] + y[i];
}

void subVec(const float* x, const float* y, float* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_sub_ps(_mm256_loadu_ps(x + i),
                                            _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) out[i] = x[i] - y[i];
}

void mulVec(const float* x, const float* y, float* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(x + i),
                                            _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) out[i] = x[i] * y[i];
}

void divVec(const float* x, const float* y, float* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_div_ps(_mm256_loadu_ps(x + i),
                                            _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) out[i] = x[i] / y[i];
}

void scaleVec(const float* x, float s, float* out, std::size_t n) {
  const __m256 sv = _mm256_set1_ps(s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), sv));
  }
  for (; i < n; ++i) out[i] = x[i] * s;
}

void addScalarVec(const float* x, float s, float* out, std::size_t n) {
  const __m256 sv = _mm256_set1_ps(s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_loadu_ps(x + i), sv));
  }
  for (; i < n; ++i) out[i] = x[i] + s;
}

void reluVec(const float* x, float* out, std::size_t n) {
  // cmp+and, not max: matches the scalar `x > 0 ? x : 0` bit-for-bit on
  // -0.0f (scalar yields +0.0f) and NaN (scalar yields 0.0f).
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 mask = _mm256_cmp_ps(v, zero, _CMP_GT_OQ);
    _mm256_storeu_ps(out + i, _mm256_and_ps(v, mask));
  }
  for (; i < n; ++i) out[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void accAddVec(const float* x, float* acc, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(acc + i, _mm256_add_ps(_mm256_loadu_ps(acc + i),
                                            _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) acc[i] += x[i];
}

void accScaleVec(const float* x, float s, float* acc, std::size_t n) {
  const __m256 sv = _mm256_set1_ps(s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 prod = _mm256_mul_ps(_mm256_loadu_ps(x + i), sv);
    _mm256_storeu_ps(acc + i, _mm256_add_ps(_mm256_loadu_ps(acc + i), prod));
  }
  for (; i < n; ++i) acc[i] += x[i] * s;
}

void accMulVec(const float* x, const float* y, float* acc, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 prod =
        _mm256_mul_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i));
    _mm256_storeu_ps(acc + i, _mm256_add_ps(_mm256_loadu_ps(acc + i), prod));
  }
  for (; i < n; ++i) acc[i] += x[i] * y[i];
}

// One fused-ew step over a block. Vector paths exist only for ops whose
// 8-wide form is an IEEE-exact match of the scalar expression (single
// rounding per element, no reassociation); transcendentals run the identical
// scalar code via detail::ewApplyScalar, so the whole interpreter stays
// bitwise identical to the scalar tier.
static inline void ewApplyBlock(const EwStep& s, float* buf, std::int64_t w,
                                const float* src, float splatVal, bool splat) {
  const __m256 sv = splat ? _mm256_set1_ps(splatVal) : _mm256_setzero_ps();
  std::int64_t i = 0;
  switch (s.op) {
    case EwOp::kAddV:
      for (; i + 8 <= w; i += 8) {
        const __m256 ov = splat ? sv : _mm256_loadu_ps(src + i);
        _mm256_storeu_ps(buf + i, _mm256_add_ps(_mm256_loadu_ps(buf + i), ov));
      }
      break;
    case EwOp::kSubV:
      for (; i + 8 <= w; i += 8) {
        const __m256 ov = splat ? sv : _mm256_loadu_ps(src + i);
        _mm256_storeu_ps(buf + i, _mm256_sub_ps(_mm256_loadu_ps(buf + i), ov));
      }
      break;
    case EwOp::kRsubV:
      for (; i + 8 <= w; i += 8) {
        const __m256 ov = splat ? sv : _mm256_loadu_ps(src + i);
        _mm256_storeu_ps(buf + i, _mm256_sub_ps(ov, _mm256_loadu_ps(buf + i)));
      }
      break;
    case EwOp::kMulV:
      for (; i + 8 <= w; i += 8) {
        const __m256 ov = splat ? sv : _mm256_loadu_ps(src + i);
        _mm256_storeu_ps(buf + i, _mm256_mul_ps(_mm256_loadu_ps(buf + i), ov));
      }
      break;
    case EwOp::kDivV:
      for (; i + 8 <= w; i += 8) {
        const __m256 ov = splat ? sv : _mm256_loadu_ps(src + i);
        _mm256_storeu_ps(buf + i, _mm256_div_ps(_mm256_loadu_ps(buf + i), ov));
      }
      break;
    case EwOp::kRdivV:
      for (; i + 8 <= w; i += 8) {
        const __m256 ov = splat ? sv : _mm256_loadu_ps(src + i);
        _mm256_storeu_ps(buf + i, _mm256_div_ps(ov, _mm256_loadu_ps(buf + i)));
      }
      break;
    case EwOp::kAddS: {
      const __m256 iv = _mm256_set1_ps(s.scalar);
      for (; i + 8 <= w; i += 8) {
        _mm256_storeu_ps(buf + i, _mm256_add_ps(_mm256_loadu_ps(buf + i), iv));
      }
      break;
    }
    case EwOp::kMulS: {
      const __m256 iv = _mm256_set1_ps(s.scalar);
      for (; i + 8 <= w; i += 8) {
        _mm256_storeu_ps(buf + i, _mm256_mul_ps(_mm256_loadu_ps(buf + i), iv));
      }
      break;
    }
    case EwOp::kRelu: {
      // cmp+and, matching reluVec (and the scalar `x > 0 ? x : 0`).
      const __m256 zero = _mm256_setzero_ps();
      for (; i + 8 <= w; i += 8) {
        const __m256 v = _mm256_loadu_ps(buf + i);
        const __m256 mask = _mm256_cmp_ps(v, zero, _CMP_GT_OQ);
        _mm256_storeu_ps(buf + i, _mm256_and_ps(v, mask));
      }
      break;
    }
    case EwOp::kLeakyRelu: {
      const __m256 zero = _mm256_setzero_ps();
      const __m256 slope = _mm256_set1_ps(s.scalar);
      for (; i + 8 <= w; i += 8) {
        const __m256 v = _mm256_loadu_ps(buf + i);
        const __m256 mask = _mm256_cmp_ps(v, zero, _CMP_GT_OQ);
        const __m256 neg = _mm256_mul_ps(slope, v);
        _mm256_storeu_ps(buf + i, _mm256_blendv_ps(neg, v, mask));
      }
      break;
    }
    case EwOp::kSqrt: {
      const __m256 eps = _mm256_set1_ps(s.scalar);
      for (; i + 8 <= w; i += 8) {
        const __m256 v = _mm256_max_ps(_mm256_loadu_ps(buf + i), eps);
        _mm256_storeu_ps(buf + i, _mm256_sqrt_ps(v));
      }
      break;
    }
    case EwOp::kSquare:
      for (; i + 8 <= w; i += 8) {
        const __m256 v = _mm256_loadu_ps(buf + i);
        _mm256_storeu_ps(buf + i, _mm256_mul_ps(v, v));
      }
      break;
    case EwOp::kPowInt:
      for (; i + 8 <= w; i += 8) {
        const __m256 v = _mm256_loadu_ps(buf + i);
        __m256 y = v;
        for (std::int32_t e = 1; e < s.ipow; ++e) y = _mm256_mul_ps(y, v);
        _mm256_storeu_ps(buf + i, y);
      }
      break;
    default:
      // Transcendentals: identical scalar expressions, full block.
      break;
  }
  // Scalar tail (and the whole block for transcendental steps), dispatched
  // once per run instead of once per element.
  if (i < w) {
    if (splat) {
      detail::ewApplyBlock(s, buf + i, w - i,
                           [splatVal](std::int64_t) { return splatVal; });
    } else if (src != nullptr) {
      const float* tail = src + i;
      detail::ewApplyBlock(s, buf + i, w - i,
                           [tail](std::int64_t j) { return tail[j]; });
    } else {
      detail::ewApplyBlock(s, buf + i, w - i,
                           [](std::int64_t) { return 0.0f; });
    }
  }
}

void fusedEwRows(const float* const* operands, const std::uint8_t* kinds,
                 int /*numOperands*/, const EwStep* steps, int numSteps,
                 float* out, std::int64_t rows, std::int64_t cols) {
  alignas(32) float buf[detail::kEwBlock];
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c0 = 0; c0 < cols; c0 += detail::kEwBlock) {
      const std::int64_t w = std::min(detail::kEwBlock, cols - c0);
      const auto kind0 = static_cast<EwOperandKind>(kinds[0]);
      if (kind0 == EwOperandKind::kColVec) {
        const float v = operands[0][r];
        for (std::int64_t i = 0; i < w; ++i) buf[i] = v;
      } else {
        const float* src = kind0 == EwOperandKind::kFull
                               ? operands[0] + r * cols + c0
                               : operands[0] + c0;
        std::memcpy(buf, src, static_cast<std::size_t>(w) * sizeof(float));
      }
      for (int si = 0; si < numSteps; ++si) {
        const EwStep& s = steps[si];
        const float* src = nullptr;
        float splatVal = 0.0f;
        bool splat = false;
        if (s.operand >= 0) {
          const auto kind = static_cast<EwOperandKind>(kinds[s.operand]);
          if (kind == EwOperandKind::kColVec) {
            splat = true;
            splatVal = operands[s.operand][r];
          } else {
            src = kind == EwOperandKind::kFull
                      ? operands[s.operand] + r * cols + c0
                      : operands[s.operand] + c0;
          }
        }
        ewApplyBlock(s, buf, w, src, splatVal, splat);
      }
      std::memcpy(out + r * cols + c0, buf,
                  static_cast<std::size_t>(w) * sizeof(float));
    }
  }
}

void fusedGemmEpilogueRows(const float* a, const float* b,
                           const float* /*packedB*/, float* c,
                           std::int64_t rowBegin, std::int64_t rowEnd,
                           std::int64_t k, std::int64_t m,
                           const GemmEpilogue* epilogue) {
  gemmRows(a, b, c, rowBegin, rowEnd, k, m);
  detail::applyGemmEpilogueRowsAvx2(c, rowBegin, rowEnd, m, *epilogue);
}

// avx2 GEMM reads B rows directly (no panel), so packing is declined and
// fusedGemmEpilogueRows ignores the panel argument.
std::int64_t gemmPackBSize(std::int64_t /*k*/, std::int64_t /*m*/) {
  return 0;
}

void gemmPackB(const float* /*b*/, std::int64_t /*k*/, std::int64_t /*m*/,
               float* /*packed*/) {}

void segmentSumRows(const float* src, const std::int64_t* segment,
                    std::int64_t rows, std::int64_t cols, float* out) {
  // Serial over rows (the accumulation-order contract); 8-wide within a row,
  // one add rounding per element — bitwise identical to the scalar tier.
  for (std::int64_t r = 0; r < rows; ++r) {
    accAddVec(src + r * cols, out + segment[r] * cols,
              static_cast<std::size_t>(cols));
  }
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
  static constexpr auto accAddVec = &avx2::accAddVec;
  static constexpr auto scaleVec = &avx2::scaleVec;
  static constexpr auto sumVec = &avx2::sumVec;
  static constexpr auto dotVec = &avx2::dotVec;
  static constexpr auto addScalarVec = &avx2::addScalarVec;
  static constexpr auto divVec = &avx2::divVec;
  static constexpr auto mulVec = &avx2::mulVec;
  static constexpr auto addVec = &avx2::addVec;
  static constexpr auto reluVec = &avx2::reluVec;
};

}  // namespace avx2

// Assignment style (see kernels_scalar.cpp): new members get registered by
// name, and dagt-analyze's kernel-table-complete rule checks they are.
const KernelTable& avx2Table() {
  static const KernelTable t = [] {
    KernelTable x{};
    x.gemmRows = avx2::gemmRows;
    x.gemmTransARows = avx2::gemmTransARows;
    x.gemmTransBRows = avx2::gemmTransBRows;
    x.addVec = avx2::addVec;
    x.subVec = avx2::subVec;
    x.mulVec = avx2::mulVec;
    x.divVec = avx2::divVec;
    x.scaleVec = avx2::scaleVec;
    x.addScalarVec = avx2::addScalarVec;
    x.reluVec = avx2::reluVec;
    x.accAddVec = avx2::accAddVec;
    x.accScaleVec = avx2::accScaleVec;
    x.accMulVec = avx2::accMulVec;
    x.sumVec = avx2::sumVec;
    x.dotVec = avx2::dotVec;
    x.fusedEwRows = avx2::fusedEwRows;
    x.fusedGemmEpilogueRows = avx2::fusedGemmEpilogueRows;
    x.gemmPackBSize = avx2::gemmPackBSize;
    x.gemmPackB = avx2::gemmPackB;
    x.segmentSumRows = avx2::segmentSumRows;
    x.gatherRowsPtrs = avx2::gatherRowsPtrs;
    x.segmentMeanMaxRows = detail::segmentMeanMaxRowsImpl<avx2::LevelOps>;
    x.layerNormRows = detail::layerNormRowsImpl<avx2::LevelOps>;
    x.convReluPoolRows = detail::convReluPoolRowsImpl<
        detail::ConvAvx2</*kFma=*/false, avx2::LevelOps>>;
    return x;
  }();
  return t;
}

}  // namespace dagt::tensor::kernels
