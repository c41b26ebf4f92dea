// Expression-fusion bench: run the steady-state inference path with the
// expression compiler on vs off, in one process via
// tensor::expr::setFusionEnabled. Writes BENCH_fusion.json.
//
// Two pipelines are measured, both single-thread (caller-thread forwards
// with a per-iteration Workspace, exactly like one served batch):
//
//   * head — the readout pipeline the compiler fully fuses (disentangler
//     -> Bayesian head distribution -> closed-form predictive mean and
//     variance, the inference readout). Measured at TWO shapes: batch=1,
//     the interactive what-if shape, where eager per-op launches and pool
//     roundtrips dominate and fusion removes them — the
//     gated latency ratio; and the serve batch, where the pipeline is
//     GEMM/transcendental-bound (identical kernel work in both modes) —
//     context, plus the allocs-per-predict gate.
//   * model — the full forward (extractor included) at the serve batch,
//     reported as end-to-end context and used for the parity gate.
//   * cone fill — the what-if GNN path: a seeded handful of pin-feature
//     rows is perturbed and TimingGnn::forwardFrom rebuilds the sweep from
//     the unperturbed one. Timed fused vs unfused; checked at the scalar
//     and the active tier for fused == unfused bitwise and for cone fill ==
//     full sweep of the perturbed features bitwise, and counted for the
//     programs compiled after the first fill (row-polymorphic level
//     programs: none).
//
// Both modes of a measurement run as ALTERNATING chunks so wall-clock
// drift on a shared machine lands on both sides of the ratio.
//
// Gates (nonzero exit on failure):
//   * batch=1 head speedup >= $DAGT_FUSION_MIN_SPEEDUP (default 1.3;
//     verify.sh's smoke stage gates at 1.2),
//   * fused serve-head allocs per predict (buffer-pool acquisitions per
//     predicted endpoint) <= $DAGT_FUSION_MAX_ALLOCS (default 3) — fusion
//     collapses elementwise chains and GEMM epilogues into composites, so
//     a fused forward touches each activation once instead of
//     materializing every intermediate,
//   * parity — predictions under DAGT_FUSION=0/1 must be bitwise
//     identical at the scalar tier (pinned with kernels::forceTier); they
//     are also compared at the detected tier. The cone fill must match
//     unfused and the full sweep at the scalar tier, and compile nothing
//     after its first fill.
//
// Knobs: DAGT_FUSION_SCALE (design-size multiplier, default 0.2),
// DAGT_FUSION_BATCH (serve endpoints per forward, default 64),
// DAGT_FUSION_ITERS (timed iterations per mode, default 40).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "obs/trace.hpp"
#include "core/bayesian_head.hpp"
#include "core/dataset.hpp"
#include "core/disentangler.hpp"
#include "core/models.hpp"
#include "core/timing_gnn.hpp"
#include "features/design_data.hpp"
#include "harness.hpp"
#include "tensor/expr.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/storage.hpp"
#include "tensor/tensor.hpp"

namespace dagt {
namespace {

double envOr(const char* name, double fallback) {
  const char* value = std::getenv(name);
  return value == nullptr ? fallback : std::atof(value);
}

double microsSince(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// One full-model inference forward (the served readout): every mean,
/// then every stddev, so the parity gates cover both.
std::vector<float> runForward(const core::OursModel& model,
                              const core::DesignBatch& batch) {
  tensor::Workspace workspace;
  core::TimingModel::Prediction out = model.predictBatch(batch);
  out.mean.insert(out.mean.end(), out.stddev.begin(), out.stddev.end());
  return out.mean;
}

/// One steady-state head forward: the exact post-extractor pipeline of
/// OursModel::predictBatch (disentangle -> joint -> distribution ->
/// predictive), on a fixed feature batch u. Returns the means, then the
/// variances.
std::vector<float> runHead(const core::Disentangler& disentangler,
                           const core::BayesianHead& head,
                           const tensor::Tensor& u) {
  tensor::NoGradGuard guard;
  tensor::Workspace workspace;
  const auto split = disentangler.forward(u);
  const tensor::Tensor joint =
      tensor::concat1({split.nodeDependent, split.designDependent});
  const auto p = head.predictive(joint);
  std::vector<float> out = p.mean.toVector();
  const std::vector<float> variance = p.variance.toVector();
  out.insert(out.end(), variance.begin(), variance.end());
  return out;
}

struct ModeResult {
  double usPerForward = 0.0;
  double heapAllocsPerForward = 0.0;
  double acquisitionsPerForward = 0.0;
  std::vector<float> prediction;
};

/// Time one mode for `iters` forwards and meter the pool. Assumes the mode
/// is already warm (programs compiled, pool filled).
template <typename Body>
void timeChunk(bool fused, int iters, ModeResult& result, Body&& body) {
  tensor::expr::setFusionEnabled(fused);
  const tensor::PoolStats before = tensor::BufferPool::global().stats();
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) (void)body();
  result.usPerForward += microsSince(start);
  const tensor::PoolStats after = tensor::BufferPool::global().stats();
  result.heapAllocsPerForward =
      result.heapAllocsPerForward +
      static_cast<double>(after.heapAllocs - before.heapAllocs);
  result.acquisitionsPerForward =
      result.acquisitionsPerForward +
      static_cast<double>(after.acquisitions() - before.acquisitions());
}

/// Measure both modes by ALTERNATING small chunks rather than timing one
/// mode to completion before the other: wall-clock drift on a shared
/// machine (frequency scaling, neighbors) then lands on both modes about
/// equally instead of silently skewing the ratio. Warmup per mode first
/// compiles the fused programs and fills the buffer pool, so the timed
/// region is the steady state serve sees; per-mode predictions are kept
/// for the parity gates.
template <typename Body>
std::pair<ModeResult, ModeResult> runInterleaved(int iters, Body&& body) {
  ModeResult unfused;
  ModeResult fused;
  tensor::expr::setFusionEnabled(false);
  for (int i = 0; i < 5; ++i) unfused.prediction = body();
  tensor::expr::setFusionEnabled(true);
  for (int i = 0; i < 5; ++i) fused.prediction = body();
  constexpr int kRounds = 8;
  const int chunk = std::max(1, iters / kRounds);
  int total = 0;
  for (int round = 0; round < kRounds; ++round) {
    timeChunk(false, chunk, unfused, body);
    timeChunk(true, chunk, fused, body);
    total += chunk;
  }
  for (ModeResult* r : {&unfused, &fused}) {
    r->usPerForward /= total;
    r->heapAllocsPerForward /= total;
    r->acquisitionsPerForward /= total;
  }
  return {unfused, fused};
}

bool bitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Every level's embeddings, concatenated in level order.
std::vector<float> flatten(const core::TimingGnn::Output& out) {
  std::vector<float> flat;
  for (const tensor::Tensor& level : out.levelEmbeddings) {
    flat.insert(flat.end(), level.data(), level.data() + level.numel());
  }
  return flat;
}

/// The cone-fill case: `variants` feature snapshots, each the design's pin
/// features with a seeded handful of rows perturbed, filled from the sweep
/// of the unperturbed features (swept once per fusion mode).
struct ConeCase {
  const core::TimingGnn* gnn = nullptr;
  const features::PinGraph* graph = nullptr;
  features::PinFeatures base;
  std::vector<features::PinFeatures> variants;
  core::TimingGnn::Output fusedSweep;
  core::TimingGnn::Output unfusedSweep;
};

ConeCase makeConeCase(const core::TimingGnn& gnn,
                      const features::DesignData& design, int numVariants) {
  ConeCase c;
  c.gnn = &gnn;
  c.graph = design.graph.get();
  c.base = design.pinFeatures;
  Rng rng(0xc0de5ULL);
  const std::int64_t pins = design.pinFeatures.numPins();
  const std::int64_t dim = design.pinFeatures.dim();
  for (int v = 0; v < numVariants; ++v) {
    // Shares every block but the ones the row writer clones.
    features::PinFeatures perturbed = design.pinFeatures;
    for (int k = 0; k < 4; ++k) {
      const std::int64_t pin = rng.uniformInt(0, pins - 1);
      perturbed.mutableRow(pin)[rng.uniformInt(0, dim - 1)] += 0.5f;
    }
    c.variants.push_back(std::move(perturbed));
  }
  return c;
}

/// Sweep the base features once per fusion mode (at the active tier).
void sweepBase(ConeCase& c) {
  tensor::NoGradGuard guard;
  tensor::expr::setFusionEnabled(false);
  c.unfusedSweep = c.gnn->forward(*c.graph, c.base);
  tensor::expr::setFusionEnabled(true);
  c.fusedSweep = c.gnn->forward(*c.graph, c.base);
}

/// Fill variant v from the current fusion mode's base sweep.
std::vector<float> coneFill(const ConeCase& c, std::size_t v,
                            std::int64_t* rows = nullptr) {
  tensor::NoGradGuard guard;
  tensor::Workspace workspace;
  const core::TimingGnn::Output& base =
      tensor::expr::fusionEnabled() ? c.fusedSweep : c.unfusedSweep;
  return flatten(
      c.gnn->forwardFrom(base, c.base, *c.graph, c.variants[v], rows));
}

struct ConeChecks {
  bool fusedEqualsUnfused = true;
  bool coneEqualsSweep = true;
};

/// At the active tier: fused == unfused and cone fill == full sweep of the
/// perturbed features, for every variant, both bitwise.
ConeChecks checkCone(ConeCase& c) {
  sweepBase(c);
  ConeChecks checks;
  for (std::size_t v = 0; v < c.variants.size(); ++v) {
    tensor::expr::setFusionEnabled(false);
    const std::vector<float> unfused = coneFill(c, v);
    tensor::expr::setFusionEnabled(true);
    const std::vector<float> fused = coneFill(c, v);
    tensor::NoGradGuard guard;
    const std::vector<float> sweep =
        flatten(c.gnn->forward(*c.graph, c.variants[v]));
    checks.fusedEqualsUnfused =
        checks.fusedEqualsUnfused && bitwiseEqual(fused, unfused);
    checks.coneEqualsSweep = checks.coneEqualsSweep &&
                             bitwiseEqual(fused, sweep) &&
                             bitwiseEqual(unfused, sweep);
  }
  return checks;
}

}  // namespace

int run() {
  const float scale = static_cast<float>(envOr("DAGT_FUSION_SCALE", 0.2));
  const int iters = static_cast<int>(envOr("DAGT_FUSION_ITERS", 40.0));
  const double minSpeedup = envOr("DAGT_FUSION_MIN_SPEEDUP", 1.3);
  const double maxAllocs = envOr("DAGT_FUSION_MAX_ALLOCS", 3.0);
  // DAGT_FUSION_TRACE=1 prints span aggregates of the fused run (where the
  // forward spends its time). Off for gating runs.
  const bool trace = envOr("DAGT_FUSION_TRACE", 0.0) != 0.0;

  features::DataConfig dataConfig;
  dataConfig.designScale = scale;
  const features::DataPipeline pipeline(dataConfig);
  const features::DesignData design = pipeline.build("smallboom");
  const core::TimingDataset dataset({&design});

  const std::int64_t batchSize = std::min<std::int64_t>(
      static_cast<std::int64_t>(envOr("DAGT_FUSION_BATCH", 64.0)),
      design.numEndpoints());
  std::vector<std::int64_t> endpoints(static_cast<std::size_t>(batchSize));
  std::iota(endpoints.begin(), endpoints.end(), std::int64_t{0});
  const core::DesignBatch batch = dataset.batchFor(design, endpoints);

  // Paper-default CPU-scale architecture: this is the configuration the
  // trained bundles serve, so the speedup measured here is the serve one.
  core::ModelConfig modelConfig;
  Rng rng(0xbe7cfULL);
  const core::OursModel model(pipeline.featureDim(), modelConfig,
                              core::OursVariant::kFull, rng);

  const tensor::kernels::Tier detected = tensor::kernels::activeTier();
  std::fprintf(stderr,
               "fusion bench: smallboom @ scale %.2f, batch %lld, tier %s, "
               "%d iters/mode\n",
               scale, static_cast<long long>(batchSize),
               tensor::kernels::tierName(detected), iters);

  // The head pipeline under measurement, built exactly like OursModel's
  // (same widths, same op sequence) on a fixed synthetic feature batch.
  const std::int64_t featureDim = modelConfig.pathFeatureDim();
  Rng headRng(0x6ead5ULL);
  const core::Disentangler disentangler(featureDim, modelConfig.headHidden,
                                        headRng);
  const core::BayesianHead head(featureDim, modelConfig.headHidden, headRng);

  // Head measurement at a given batch shape: (eager, fused).
  const auto measureHead = [&](std::int64_t b, int headIters) {
    Rng shapeRng(0xfea7ULL);
    const tensor::Tensor ub = tensor::Tensor::randn({b, featureDim}, shapeRng);
    return runInterleaved(headIters,
                          [&] { return runHead(disentangler, head, ub); });
  };

  tensor::expr::resetStats();
  // The gated latency ratio is the single-endpoint (batch=1) head forward —
  // the interactive what-if shape, where the eager path's per-op launches
  // and pool roundtrips dominate and fusion removes them. At the serve
  // batch the same pipeline is GEMM/transcendental-bound (identical kernel
  // work in both modes), so its ratio is reported as context and the
  // serve-side gate is the allocs-per-predict drop instead.
  // The batch=1 forward is ~20us, so it gets 8x the iterations for the
  // same wall-clock — chunks long enough for a stable gated ratio.
  const auto [headUnfused, headFused] = measureHead(1, iters * 8);
  const auto [serveHeadUnfused, serveHeadFused] =
      measureHead(batchSize, iters);
  const auto [unfused, fusedRun] =
      runInterleaved(iters, [&] { return runForward(model, batch); });

  // Cone fill: the GNN the model serves (paper-default width) on the same
  // design. The first fused fill compiles the level programs; the rest of
  // the variants, cones of other widths, must compile nothing.
  Rng gnnRng(0x9e77ULL);
  const core::TimingGnn gnn(pipeline.featureDim(), modelConfig.gnnHidden,
                            gnnRng);
  ConeCase cone = makeConeCase(gnn, design, 8);
  sweepBase(cone);
  std::int64_t coneRows = 0;
  (void)coneFill(cone, 0, &coneRows);
  const std::uint64_t compiledAtFirstFill =
      tensor::expr::stats().programsCompiled;
  for (std::size_t v = 1; v < cone.variants.size(); ++v) {
    (void)coneFill(cone, v);
  }
  const std::uint64_t coneCompiledAfterFirst =
      tensor::expr::stats().programsCompiled - compiledAtFirstFill;
  // Timed on variant 0 alone, so both modes do identical work; the full
  // sweep of the same features alongside for scale.
  const auto [unfusedSweep, fusedSweep] = runInterleaved(iters, [&] {
    tensor::NoGradGuard guard;
    tensor::Workspace workspace;
    return flatten(gnn.forward(*cone.graph, cone.base));
  });
  const auto [unfusedFill, fusedFill] =
      runInterleaved(iters, [&] { return coneFill(cone, 0); });
  const double unfusedConeUs = unfusedFill.usPerForward;
  const double fusedConeUs = fusedFill.usPerForward;
  const ConeChecks coneActive = checkCone(cone);
  if (trace) {
    obs::TraceRegistry::global().setEnabled(true);
    tensor::expr::setFusionEnabled(true);
    for (int i = 0; i < iters; ++i) (void)runForward(model, batch);
  }
  if (trace) {
    for (const auto& s : obs::TraceRegistry::global().aggregate()) {
      std::fprintf(stderr, "  span %-24s count %6llu  total %10.0fus  "
                           "mean %8.1fus\n",
                   s.name.c_str(), static_cast<unsigned long long>(s.count),
                   s.totalUs(), s.meanUs());
    }
    obs::TraceRegistry::global().setEnabled(false);
  }
  const tensor::expr::FusionStats stats = tensor::expr::stats();

  const bool parityActive =
      bitwiseEqual(unfused.prediction, fusedRun.prediction) &&
      bitwiseEqual(headUnfused.prediction, headFused.prediction) &&
      bitwiseEqual(serveHeadUnfused.prediction, serveHeadFused.prediction);

  // Scalar-tier parity: pin the tier and rerun both modes once. The fused
  // programs themselves are tier-independent (the replay dispatches through
  // the active table), so the cached programs are reused as-is.
  tensor::kernels::forceTier(tensor::kernels::Tier::kScalar);
  tensor::expr::setFusionEnabled(false);
  const std::vector<float> scalarUnfused = runForward(model, batch);
  tensor::expr::setFusionEnabled(true);
  const std::vector<float> scalarFused = runForward(model, batch);
  const ConeChecks coneScalar = checkCone(cone);
  tensor::kernels::resetTier();
  const bool parityScalar = bitwiseEqual(scalarUnfused, scalarFused);

  const double speedup = headFused.usPerForward > 0.0
                             ? headUnfused.usPerForward / headFused.usPerForward
                             : 0.0;
  const double modelSpeedup =
      fusedRun.usPerForward > 0.0
          ? unfused.usPerForward / fusedRun.usPerForward
          : 0.0;
  const double serveHeadSpeedup =
      serveHeadFused.usPerForward > 0.0
          ? serveHeadUnfused.usPerForward / serveHeadFused.usPerForward
          : 0.0;
  const double perPredict = static_cast<double>(batchSize);
  const double fusedAllocsPerPredict =
      serveHeadFused.acquisitionsPerForward / perPredict;
  const double unfusedAllocsPerPredict =
      serveHeadUnfused.acquisitionsPerForward / perPredict;

  JsonValue doc = JsonValue::object();
  doc.set("design", "smallboom")
      .set("scale", static_cast<double>(scale))
      .set("batch", batchSize)
      .set("iters", static_cast<std::int64_t>(iters))
      .set("tier", tensor::kernels::tierName(detected))
      .set("unfused_head_us_per_forward", headUnfused.usPerForward)
      .set("fused_head_us_per_forward", headFused.usPerForward)
      .set("speedup", speedup)
      .set("unfused_serve_head_us_per_forward",
           serveHeadUnfused.usPerForward)
      .set("fused_serve_head_us_per_forward", serveHeadFused.usPerForward)
      .set("serve_head_speedup", serveHeadSpeedup)
      .set("unfused_model_us_per_forward", unfused.usPerForward)
      .set("fused_model_us_per_forward", fusedRun.usPerForward)
      .set("model_speedup", modelSpeedup)
      .set("unfused_allocs_per_predict", unfusedAllocsPerPredict)
      .set("fused_allocs_per_predict", fusedAllocsPerPredict)
      .set("unfused_heap_allocs_per_forward", unfused.heapAllocsPerForward)
      .set("fused_heap_allocs_per_forward", fusedRun.heapAllocsPerForward)
      .set("parity_bitwise_scalar", parityScalar)
      .set("parity_bitwise_active_tier", parityActive)
      .set("cone_fill_rows", coneRows)
      .set("unfused_sweep_us", unfusedSweep.usPerForward)
      .set("fused_sweep_us", fusedSweep.usPerForward)
      .set("unfused_cone_fill_us", unfusedConeUs)
      .set("fused_cone_fill_us", fusedConeUs)
      .set("cone_parity_bitwise_scalar", coneScalar.fusedEqualsUnfused)
      .set("cone_parity_bitwise_active_tier", coneActive.fusedEqualsUnfused)
      .set("cone_equals_sweep_scalar", coneScalar.coneEqualsSweep)
      .set("cone_equals_sweep_active_tier", coneActive.coneEqualsSweep)
      .set("cone_programs_compiled_after_first_fill",
           static_cast<std::int64_t>(coneCompiledAfterFirst))
      .set("programs_compiled",
           static_cast<std::int64_t>(stats.programsCompiled))
      .set("program_replays", static_cast<std::int64_t>(stats.programReplays))
      .set("fused_ew_launches",
           static_cast<std::int64_t>(stats.fusedEwLaunches))
      .set("fused_gemm_launches",
           static_cast<std::int64_t>(stats.fusedGemmLaunches))
      .set("fused_dot_launches",
           static_cast<std::int64_t>(stats.rowDotLaunches))
      .set("min_speedup_gate", minSpeedup)
      .set("max_allocs_gate", maxAllocs);
  const auto path = bench::writeBenchJson("fusion", doc);
  std::fprintf(stderr,
               "wrote %s\nhead b=1 %.1fus -> %.1fus (%.2fx), head b=%lld "
               "%.0fus -> %.0fus (%.2fx), model %.0fus -> %.0fus (%.2fx), "
               "allocs/predict %.1f -> %.1f, parity scalar %s active %s\n"
               "cone fill (%lld rows) %.0fus -> %.0fus, sweep %.0fus -> "
               "%.0fus, cone parity scalar %s active %s, cone == sweep "
               "scalar %s active %s, %llu programs compiled after the first "
               "fill\n",
               path.c_str(), headUnfused.usPerForward, headFused.usPerForward,
               speedup, static_cast<long long>(batchSize),
               serveHeadUnfused.usPerForward, serveHeadFused.usPerForward,
               serveHeadSpeedup, unfused.usPerForward, fusedRun.usPerForward,
               modelSpeedup, unfusedAllocsPerPredict, fusedAllocsPerPredict,
               parityScalar ? "ok" : "BROKEN",
               parityActive ? "ok" : "differs",
               static_cast<long long>(coneRows),
               unfusedConeUs, fusedConeUs, unfusedSweep.usPerForward,
               fusedSweep.usPerForward,
               coneScalar.fusedEqualsUnfused ? "ok" : "BROKEN",
               coneActive.fusedEqualsUnfused ? "ok" : "differs",
               coneScalar.coneEqualsSweep ? "ok" : "BROKEN",
               coneActive.coneEqualsSweep ? "ok" : "BROKEN",
               static_cast<unsigned long long>(coneCompiledAfterFirst));

  if (!parityScalar) {
    std::fprintf(stderr, "FAIL: fused predictions are not bitwise identical "
                         "to unfused at the scalar tier\n");
    return 1;
  }
  if (!coneScalar.fusedEqualsUnfused || !coneScalar.coneEqualsSweep ||
      !coneActive.coneEqualsSweep) {
    std::fprintf(stderr, "FAIL: the fused cone fill is not bitwise equal to "
                         "the unfused fill and the full sweep\n");
    return 1;
  }
  if (coneCompiledAfterFirst != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu programs compiled after the first cone fill\n",
                 static_cast<unsigned long long>(coneCompiledAfterFirst));
    return 1;
  }
  if (speedup < minSpeedup) {
    std::fprintf(stderr,
                 "FAIL: fused head speedup %.2fx below the %.2fx gate\n",
                 speedup, minSpeedup);
    return 1;
  }
  if (fusedAllocsPerPredict > maxAllocs) {
    std::fprintf(stderr,
                 "FAIL: %.1f pooled allocs per predict above the %.1f gate\n",
                 fusedAllocsPerPredict, maxAllocs);
    return 1;
  }
  return 0;
}

}  // namespace dagt

int main() { return dagt::run(); }
