#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

// Runtime-dispatched SIMD kernel layer for the tensor engine.
//
// Every hot inner loop of src/tensor/ops_*.cpp funnels through one of the
// entry points below; which implementation runs is decided ONCE per process
// (CPUID probe, overridable with the DAGT_KERNEL_TIER environment variable
// or forceTier() in tests/benches) and read through a single atomic load.
//
// Rounding contract (what "parity" means across tiers — the kernel parity
// suite in tests/test_kernels.cpp enforces this, docs/performance.md
// explains it):
//   * Elementwise and accumulate kernels perform exactly one multiply
//     rounding and one add rounding per element in every tier, so scalar,
//     avx2 and avx2fma are bitwise identical.
//   * Reductions (sumVec/dotVec) use a lane-blocked accumulation: 8 double
//     lanes filled in stride order, combined by a fixed binary tree, tail
//     added sequentially. The scalar tier implements the identical lane
//     scheme, so reductions are bitwise identical in every tier.
//   * GEMM kernels accumulate each C element over p = 0..k-1 in order.
//     scalar and avx2 round every step as mul-then-add and are bitwise
//     identical; avx2fma fuses the step (_mm256_fmadd_ps), which keeps the
//     same accumulation ORDER but one rounding less per step — results
//     differ from scalar by bounded ulps and the parity suite compares
//     them under a tight relative tolerance instead.
//   * The conv stack (convReluPoolRows) repeats conv2d's im2col GEMM per
//     output in this tier's GEMM rounding, then reluVec's and
//     globalAvgPool's arithmetic, so in every tier it is bitwise equal to
//     that tier's eager conv2d -> relu ... -> globalAvgPool chain.
// Every tier is bitwise-reproducible run-to-run, and a row-range kernel's
// output rows do not depend on which range a call covers: no kernel splits
// the accumulation dimension.
namespace dagt::tensor::kernels {

/// Dispatch tiers, weakest to strongest. kAvx2 vectorizes without changing
/// a single result bit; kAvx2Fma adds fused multiply-add plus register
/// blocking and B-panel packing in the GEMM microkernel.
enum class Tier : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx2Fma = 2,
};

inline constexpr int kTierCount = 3;

// -- Fused elementwise programs ----------------------------------------------
//
// A fused elementwise chain is a short interpreted program: the first operand
// seeds an accumulator block, then each EwStep transforms it in place,
// optionally combining with another operand. Every step performs exactly the
// same per-element roundings as the eager op it replaces, so a fused chain is
// bitwise identical to the unfused op sequence in EVERY tier (the avx2
// implementation vectorizes only operations whose vector forms are IEEE-exact
// matches of the scalar code and falls back to the identical scalar
// expressions for transcendentals).

/// Elementwise step opcodes. The R-variants swap operand order so a chain
/// value can sit on the right of a non-commutative op.
enum class EwOp : std::int32_t {
  kAddV = 0,   ///< acc = acc + operand
  kSubV,       ///< acc = acc - operand
  kRsubV,      ///< acc = operand - acc
  kMulV,       ///< acc = acc * operand
  kDivV,       ///< acc = acc / operand
  kRdivV,      ///< acc = operand / acc
  kAddS,       ///< acc = acc + scalar
  kMulS,       ///< acc = acc * scalar
  kRelu,       ///< acc = acc > 0 ? acc : 0
  kLeakyRelu,  ///< acc = acc > 0 ? acc : scalar * acc
  kTanh,       ///< acc = tanh(acc)
  kSigmoid,    ///< acc = 1 / (1 + exp(-acc))
  kExp,        ///< acc = exp(acc)
  kLog,        ///< acc = log(max(acc, scalar))
  kSqrt,       ///< acc = sqrt(max(acc, scalar))
  kSquare,     ///< acc = acc * acc
  kSoftplus,   ///< acc = max(acc,0) + log1p(exp(-|acc|))
  kPowInt,     ///< acc = acc^ipow (repeated multiply, ipow >= 1)
};

/// One step of a fused elementwise program.
struct EwStep {
  EwOp op;
  /// Index into the operand array for the binary *V ops; -1 otherwise.
  std::int32_t operand = -1;
  /// Immediate for kAddS/kMulS, slope for kLeakyRelu, eps for kLog/kSqrt.
  float scalar = 0.0f;
  /// Exponent for kPowInt.
  std::int32_t ipow = 0;
};

/// Operand broadcast kinds for fusedEwRows.
enum class EwOperandKind : std::uint8_t {
  kFull = 0,    ///< [rows, cols] matrix, row-major
  kRowVec = 1,  ///< [cols] vector broadcast down the rows
  kColVec = 2,  ///< [rows] vector splat across each row
};

/// Hard cap on operands per fused program (compiler never exceeds it).
inline constexpr int kEwMaxOperands = 8;

/// GEMM epilogue parameter block: applied per C row after accumulation, in
/// the fixed order bias -> activation -> residual (matching the eager op
/// order addBias / activate / add). All epilogue arithmetic is plain scalar
/// float math in every tier, so the epilogue itself never changes a bit
/// across tiers.
struct GemmEpilogue {
  /// [m] bias row added to each C row, or nullptr.
  const float* bias = nullptr;
  /// [rows, m] residual added element-wise after activation, or nullptr
  /// (tensor::gnnLevel's projections sum onto the level's running total).
  const float* residual = nullptr;
  /// 0 none, 1 relu, 2 tanh, 3 sigmoid, 4 leaky relu (uses slope).
  std::int32_t activation = 0;
  float slope = 0.0f;
};

/// One conv2d -> relu stage of convReluPoolRows (NCHW). Padding reads as
/// +0, as in conv2d's im2col.
struct ConvStage {
  const float* weight = nullptr;  ///< [outChannels, inChannels, kh, kw]
  const float* bias = nullptr;    ///< [outChannels]; nullptr starts at +0
  std::int64_t inChannels = 0;
  std::int64_t inH = 0;
  std::int64_t inW = 0;
  std::int64_t outChannels = 0;
  std::int64_t kh = 0;
  std::int64_t kw = 0;
  std::int64_t stride = 1;
  std::int64_t pad = 0;
  std::int64_t outH = 0;
  std::int64_t outW = 0;
  /// This stage's weights in the tier's layout (convPack), packed once by
  /// the caller; nullptr packs them into per-thread scratch on every call.
  const float* packed = nullptr;
};

/// Where layerNormRows keeps the values of nn::LayerNorm's chain that its
/// backward reads, each as the chain rounds it.
struct LayerNormSaved {
  float* centered = nullptr;  ///< [rows, cols]: x - mean
  float* variance = nullptr;  ///< [rows]: var + eps, the sqrt's input
  float* stddev = nullptr;    ///< [rows]: sqrt(max(var + eps, 1e-12f))
  float* rstd = nullptr;      ///< [rows]: 1 / stddev
};

/// Most stages one convReluPoolRows call runs: of a longer captured chain,
/// the expression compiler lowers the last kConvMaxStages stages.
inline constexpr int kConvMaxStages = 8;

/// One table of function pointers per tier. All pointers are always
/// non-null; unsupported tiers simply never become active.
struct KernelTable {
  // -- GEMM family (accumulating over a range of C rows) ---------------------
  /// C[rowBegin:rowEnd, :] += A[rowBegin:rowEnd, :] * B for A [n,k], B [k,m].
  void (*gemmRows)(const float* a, const float* b, float* c,
                   std::int64_t rowBegin, std::int64_t rowEnd, std::int64_t k,
                   std::int64_t m);
  /// C[rowBegin:rowEnd, :] += (A^T B)[rows] for A [k,n], B [k,m], C [n,m].
  void (*gemmTransARows)(const float* a, const float* b, float* c,
                         std::int64_t rowBegin, std::int64_t rowEnd,
                         std::int64_t k, std::int64_t n, std::int64_t m);
  /// C[rowBegin:rowEnd, :] += (A B^T)[rows] for A [n,m], B [kOut,m],
  /// C [n,kOut]. Dot-product based: bitwise identical in every tier.
  void (*gemmTransBRows)(const float* a, const float* b, float* c,
                         std::int64_t rowBegin, std::int64_t rowEnd,
                         std::int64_t m, std::int64_t kOut);

  // -- Elementwise (out must not partially alias the inputs) ----------------
  void (*addVec)(const float* x, const float* y, float* out, std::size_t n);
  void (*subVec)(const float* x, const float* y, float* out, std::size_t n);
  void (*mulVec)(const float* x, const float* y, float* out, std::size_t n);
  void (*divVec)(const float* x, const float* y, float* out, std::size_t n);
  /// out[i] = x[i] * s
  void (*scaleVec)(const float* x, float s, float* out, std::size_t n);
  /// out[i] = x[i] + s
  void (*addScalarVec)(const float* x, float s, float* out, std::size_t n);
  /// out[i] = max(x[i], 0)
  void (*reluVec)(const float* x, float* out, std::size_t n);

  // -- Accumulating forms (the backward-pass workhorses) --------------------
  /// acc[i] += x[i]
  void (*accAddVec)(const float* x, float* acc, std::size_t n);
  /// acc[i] += x[i] * s
  void (*accScaleVec)(const float* x, float s, float* acc, std::size_t n);
  /// acc[i] += x[i] * y[i]
  void (*accMulVec)(const float* x, const float* y, float* acc,
                    std::size_t n);

  // -- Lane-blocked reductions (bitwise identical in every tier) ------------
  double (*sumVec)(const float* x, std::size_t n);
  double (*dotVec)(const float* x, const float* y, std::size_t n);

  // -- Fused composites (expression-compiler lowering targets) --------------
  /// Run a fused elementwise program over a [rows, cols] block. operands[i]
  /// is interpreted per kinds[i] (EwOperandKind); operands[0] seeds the
  /// accumulator. Bitwise identical to the unfused op chain in every tier.
  void (*fusedEwRows)(const float* const* operands,
                      const std::uint8_t* kinds, int numOperands,
                      const EwStep* steps, int numSteps, float* out,
                      std::int64_t rows, std::int64_t cols);
  /// gemmRows (optionally from a prepacked B panel, see gemmPackB) followed
  /// by the epilogue block applied to the produced rows. The GEMM part obeys
  /// the GEMM rounding contract of the tier; the epilogue is scalar float
  /// math, bitwise identical across tiers.
  void (*fusedGemmEpilogueRows)(const float* a, const float* b,
                                const float* packedB, float* c,
                                std::int64_t rowBegin, std::int64_t rowEnd,
                                std::int64_t k, std::int64_t m,
                                const GemmEpilogue* epilogue);

  // -- Packed-B panel (packed once per compiled program, used every replay) --
  /// Floats needed for a packed B panel, or 0 when the tier does not use
  /// packing for this shape (callers must then pass packedB = nullptr).
  std::int64_t (*gemmPackBSize)(std::int64_t k, std::int64_t m);
  /// Pack B [k, m] into the tier's panel layout (packed has gemmPackBSize
  /// floats). Only called when gemmPackBSize returned > 0.
  void (*gemmPackB)(const float* b, std::int64_t k, std::int64_t m,
                    float* packed);

  // -- Segment / gather (GNN extractor hot loops) ---------------------------
  /// out[segment[r], :] += src[r, :] for r = 0..rows-1 in row order (the
  /// accumulation order is part of the contract: bitwise in every tier).
  void (*segmentSumRows)(const float* src, const std::int64_t* segment,
                         std::int64_t rows, std::int64_t cols, float* out);
  /// out[r, :] = srcRows[r][0:cols] — gather pre-resolved row pointers.
  void (*gatherRowsPtrs)(const float* const* srcRows, std::int64_t rows,
                         std::int64_t cols, float* out);

  // -- GNN level body (tensor::gnnLevel's kernels) ---------------------------
  /// Mean and max of each destination's in-edge sources, reading source rows
  /// in place. Walks e = 0..edges-1 in order: mean[dst[e]] += srcRows[e]
  /// (accAddVec, so `mean` must arrive zero-filled) and
  /// max[dst[e]] = src > max ? src : max (NaN skipped). Then every row d is
  /// scaled by invCount[d] (scaleVec), and a max still at -inf (no edge, or
  /// every source -inf) becomes 0. This is segmentSumRows + mulColVec + the
  /// eager segmentMax, step for step, so it is bitwise in every tier (as for
  /// every kernel here, up to which NaN an add of two NaNs returns: IEEE 754
  /// leaves that open). A non-null `argmax` ([numDst, cols]) receives, as
  /// the eager segmentMax records it, the edge whose source set each max
  /// (the first of equal ones), or -1 where the max became 0.
  void (*segmentMeanMaxRows)(const float* const* srcRows,
                             const std::int64_t* dst, std::int64_t edges,
                             std::int64_t cols, const float* invCount,
                             std::int64_t numDst, float* mean, float* max,
                             std::int32_t* argmax);
  /// out[r, :] = LayerNorm(x[r, :]) * gain + bias, then relu when `relu`:
  /// nn::LayerNorm's eager chain (mean by sumVec, centering, variance by
  /// dotVec of the centered row, which is the sumVec of its rounded
  /// squares, rstd = 1 / sqrt(max(var + eps, 1e-12f)), scale, gain, bias)
  /// with each step run by this tier's own elementwise and reduction
  /// kernels, so it is bitwise equal to the chain in every tier (up to
  /// which NaN a step on two NaNs returns). A non-null `saved` receives
  /// what the chain's backward reads (see LayerNormSaved).
  void (*layerNormRows)(const float* x, const float* gain, const float* bias,
                        float eps, bool relu, std::int64_t rows,
                        std::int64_t cols, float* out,
                        const LayerNormSaved* saved);

  // -- Conv stack (path CNN inference lowering target) -----------------------
  /// For each sample r in [rowBegin, rowEnd) of `in` ([rows, C, H, W] as
  /// stages[0] reads it): conv2d -> relu through every stage, then
  /// globalAvgPool of the last, into out[r, 0:stages[last].outChannels].
  /// One sample at a time, with every intermediate in per-thread scratch
  /// (no im2col buffer, no per-stage tensor). Each output starts from its
  /// bias and accumulates over k = (c, ky, kx) in order, as conv2d's
  /// gemmRows does over its oh * ow columns: at avx2fma a fused step for
  /// pixels in a full 16-pixel block and mul then add past the last one,
  /// mul then add everywhere in the other tiers. Relu is reluVec's select
  /// and the pool globalAvgPool's sumVec / spatial, so the stack is bitwise
  /// equal to the eager chain run at the same tier.
  void (*convReluPoolRows)(const float* in, const ConvStage* stages,
                           int numStages, float* out, std::int64_t rowBegin,
                           std::int64_t rowEnd);
  /// Floats convPack writes for `stage`, or 0 when the tier reads the
  /// weights as they lie (ConvStage::packed must then stay null).
  std::int64_t (*convPackSize)(const ConvStage& stage);
  /// Lay out one stage's weight and bias as this tier's convReluPoolRows
  /// reads them (a bit-copy: the layout cannot change a result bit).
  /// Called once per compiled program; `packed` has convPackSize floats.
  void (*convPack)(const ConvStage& stage, float* packed);
};

/// Canonical lower-case tier name ("scalar", "avx2", "avx2fma") — the
/// values DAGT_KERNEL_TIER accepts and docs/performance.md documents.
const char* tierName(Tier tier);

/// Parse a tier name (as accepted by DAGT_KERNEL_TIER); nullopt when the
/// string names no tier. "auto" is handled by the dispatcher, not here.
std::optional<Tier> parseTier(std::string_view name);

/// True when this binary carries the tier's code AND the running CPU can
/// execute it (CPUID probe for the SIMD tiers).
bool tierSupported(Tier tier);

/// Strongest supported tier on this machine.
Tier detectTier();

/// The tier in effect: forceTier() override if set, else DAGT_KERNEL_TIER
/// if set and valid, else detectTier(). Resolved once, then one relaxed
/// atomic load per call.
Tier activeTier();

/// Kernel table of an explicit tier (must be supported).
const KernelTable& table(Tier tier);

/// Kernel table of the active tier.
const KernelTable& active();

/// Pin the active tier (tests / benches). Checks tierSupported(tier).
void forceTier(Tier tier);

/// Drop a forceTier() pin: back to the env/CPUID resolution.
void resetTier();

}  // namespace dagt::tensor::kernels
