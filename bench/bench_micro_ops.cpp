// Micro-benchmarks of the substrate layers (google-benchmark): tensor
// kernels, STA throughput, placement, graph/feature construction and the
// model forward pass. Not a paper table — an engineering dashboard for the
// library itself.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <limits>

#include "common/json.hpp"
#include "core/models.hpp"
#include "core/timing_gnn.hpp"
#include "features/design_data.hpp"
#include "harness.hpp"
#include "place/placer.hpp"
#include "route/global_router.hpp"
#include "sta/sta_engine.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/storage.hpp"

namespace {

using namespace dagt;

/// Report buffer-pool behaviour for a benchmark's timed region: hit rate
/// (fraction of tensor allocations served without touching the heap) and
/// fresh heap allocations per iteration. Call with the stats delta of the
/// timed loop.
void reportPoolCounters(benchmark::State& state,
                        const tensor::PoolStats& stats) {
  state.counters["pool_hit_rate"] = stats.hitRate();
  state.counters["heap_allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(stats.heapAllocs), benchmark::Counter::kAvgIterations);
}

/// Stats accumulated since the last resetStats() — benchmarks reset before
/// the timed loop so the delta covers exactly the measured iterations.
tensor::PoolStats poolDelta() { return tensor::BufferPool::global().stats(); }

// ---------------------------------------------------------------------------
// Tensor kernels
// ---------------------------------------------------------------------------

/// GEMM with the kernel tier pinned — the dispatch layer's before/after
/// dashboard. Register one instance per tier; unsupported tiers skip.
void BM_KernelGemmTier(benchmark::State& state, tensor::kernels::Tier tier) {
  if (!tensor::kernels::tierSupported(tier)) {
    state.SkipWithError("tier not supported on this host");
    return;
  }
  tensor::kernels::forceTier(tier);
  const std::int64_t n = state.range(0);
  Rng rng(1);
  const auto a = tensor::Tensor::randn({n, n}, rng);
  const auto b = tensor::Tensor::randn({n, n}, rng);
  tensor::Workspace workspace;
  benchmark::DoNotOptimize(tensor::matmul(a, b));  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  tensor::kernels::resetTier();
}
BENCHMARK_CAPTURE(BM_KernelGemmTier, scalar, tensor::kernels::Tier::kScalar)
    ->Arg(64)
    ->Arg(256);
BENCHMARK_CAPTURE(BM_KernelGemmTier, avx2, tensor::kernels::Tier::kAvx2)
    ->Arg(64)
    ->Arg(256);
BENCHMARK_CAPTURE(BM_KernelGemmTier, avx2fma, tensor::kernels::Tier::kAvx2Fma)
    ->Arg(64)
    ->Arg(256);

void BM_TensorMatmul(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  const auto a = tensor::Tensor::randn({n, n}, rng);
  const auto b = tensor::Tensor::randn({n, n}, rng);
  tensor::Workspace workspace;
  benchmark::DoNotOptimize(tensor::matmul(a, b));  // warm the cache
  tensor::BufferPool::global().resetStats();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul(a, b));
  }
  reportPoolCounters(state, poolDelta());
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_TensorMatmul)->Arg(64)->Arg(128)->Arg(256);

void BM_TensorConv2d(benchmark::State& state) {
  Rng rng(2);
  const auto x = tensor::Tensor::randn({8, 3, 32, 32}, rng);
  const auto w = tensor::Tensor::randn({8, 3, 3, 3}, rng);
  const auto b = tensor::Tensor::randn({8}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::conv2d(x, w, b, 2, 1));
  }
}
BENCHMARK(BM_TensorConv2d);

void BM_TensorSegmentSum(benchmark::State& state) {
  Rng rng(3);
  const std::int64_t rows = 4096;
  const auto src = tensor::Tensor::randn({rows, 64}, rng);
  std::vector<std::int64_t> segments(rows);
  for (std::int64_t i = 0; i < rows; ++i) {
    segments[static_cast<std::size_t>(i)] = i % 512;
  }
  tensor::Workspace workspace;
  benchmark::DoNotOptimize(tensor::segmentSum(src, segments, 512));
  tensor::BufferPool::global().resetStats();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::segmentSum(src, segments, 512));
  }
  reportPoolCounters(state, poolDelta());
}
BENCHMARK(BM_TensorSegmentSum);

void BM_AutogradBackwardMlp(benchmark::State& state) {
  Rng rng(4);
  nn::Mlp mlp({64, 128, 128, 1}, rng);
  const auto x = tensor::Tensor::randn({256, 64}, rng);
  tensor::Workspace workspace;
  tensor::BufferPool::global().resetStats();
  for (auto _ : state) {
    mlp.zeroGrad();
    tensor::Tensor loss = tensor::meanAll(tensor::square(mlp.forward(x)));
    loss.backward();
    benchmark::DoNotOptimize(loss.item());
  }
  reportPoolCounters(state, poolDelta());
}
BENCHMARK(BM_AutogradBackwardMlp);

// ---------------------------------------------------------------------------
// EDA substrate (shared mid-sized design, built once)
// ---------------------------------------------------------------------------

const features::DataPipeline& pipeline() {
  static auto* p = new features::DataPipeline{features::DataConfig{}};
  return *p;
}

const features::DesignData& design() {
  static features::DesignData d = pipeline().build("sha3");
  return d;
}

void BM_StaFullRun(benchmark::State& state) {
  const auto& d = design();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sta::StaEngine::run(d.netlist, nullptr,
                            sta::RouteConfig{sta::WireModel::kPreRouting,
                                             0.0f, 0.0f}));
  }
  state.SetItemsProcessed(state.iterations() * d.netlist.numPins());
}
BENCHMARK(BM_StaFullRun);

void BM_PlacerAnneal(benchmark::State& state) {
  const auto& lib = pipeline().library(netlist::TechNode::k7nm);
  for (auto _ : state) {
    state.PauseTiming();
    auto nl =
        pipeline().suite().buildNetlist(pipeline().suite().entry("arm9"), lib);
    state.ResumeTiming();
    benchmark::DoNotOptimize(place::Placer::place(nl));
  }
}
BENCHMARK(BM_PlacerAnneal);

void BM_GlobalRoute(benchmark::State& state) {
  const auto& d = design();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        route::GlobalRouter::route(d.netlist, d.placement));
  }
  state.SetItemsProcessed(state.iterations() * d.netlist.numNets());
}
BENCHMARK(BM_GlobalRoute);

void BM_PinGraphBuild(benchmark::State& state) {
  const auto& d = design();
  for (auto _ : state) {
    benchmark::DoNotOptimize(features::PinGraph(d.netlist));
  }
}
BENCHMARK(BM_PinGraphBuild);

void BM_GnnForward(benchmark::State& state) {
  const auto& d = design();
  Rng rng(5);
  core::TimingGnn gnn(d.pinFeatures.dim(), 64, rng);
  tensor::NoGradGuard guard;
  tensor::Workspace workspace;
  benchmark::DoNotOptimize(gnn.forward(*d.graph, d.pinFeatures));
  tensor::BufferPool::global().resetStats();
  for (auto _ : state) {
    benchmark::DoNotOptimize(gnn.forward(*d.graph, d.pinFeatures));
  }
  reportPoolCounters(state, poolDelta());
  state.SetItemsProcessed(state.iterations() * d.netlist.numPins());
}
BENCHMARK(BM_GnnForward);

/// One training step of the GNN alone: the sweep under autograd, then
/// sumAll(select(endpoints)).backward(). With fusion on each level is one
/// tape node (tensor::gnnLevel); DAGT_FUSION=0 runs the eager op chain.
void BM_GnnTrainStep(benchmark::State& state) {
  const auto& d = design();
  Rng rng(5);
  core::TimingGnn gnn(d.pinFeatures.dim(), 64, rng);
  const auto endpoints = d.netlist.endpoints();
  tensor::Workspace workspace;
  const auto step = [&] {
    gnn.zeroGrad();
    const auto out = gnn.forward(*d.graph, d.pinFeatures);
    tensor::sumAll(core::TimingGnn::select(out, endpoints)).backward();
  };
  step();
  tensor::BufferPool::global().resetStats();
  for (auto _ : state) step();
  reportPoolCounters(state, poolDelta());
  state.SetItemsProcessed(state.iterations() * d.netlist.numPins());
}
BENCHMARK(BM_GnnTrainStep);

void BM_ModelInference(benchmark::State& state) {
  const auto& d = design();
  core::TimingDataset dataset({&d});
  Rng rng(6);
  core::OursModel model(pipeline().featureDim(), core::ModelConfig{},
                        core::OursVariant::kFull, rng);
  tensor::Workspace workspace;
  benchmark::DoNotOptimize(model.predictDesign(dataset, d));
  tensor::BufferPool::global().resetStats();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predictDesign(dataset, d));
  }
  reportPoolCounters(state, poolDelta());
  state.SetItemsProcessed(state.iterations() * d.numEndpoints());
}
BENCHMARK(BM_ModelInference);

/// Cold vs steady-state allocation profile of the full model forward pass:
/// the number the pooled-storage refactor is accountable for. "Cold" is the
/// first pass on an empty pool (every buffer is a heap allocation);
/// "steady" is a later pass inside a workspace whose cache is warm.
JsonValue allocationProfile() {
  const auto& d = design();
  core::TimingDataset dataset({&d});
  Rng rng(7);
  core::OursModel model(pipeline().featureDim(), core::ModelConfig{},
                        core::OursVariant::kFull, rng);
  tensor::NoGradGuard guard;
  auto& pool = tensor::BufferPool::global();

  tensor::Workspace workspace;
  pool.trim();
  pool.resetStats();
  benchmark::DoNotOptimize(model.predictDesign(dataset, d));
  const tensor::PoolStats cold = pool.stats();

  pool.resetStats();
  benchmark::DoNotOptimize(model.predictDesign(dataset, d));
  const tensor::PoolStats steady = pool.stats();

  const double drop =
      cold.heapAllocs == 0
          ? 0.0
          : 1.0 - static_cast<double>(steady.heapAllocs) /
                      static_cast<double>(cold.heapAllocs);
  JsonValue j = JsonValue::object();
  j.set("cold_heap_allocs", cold.heapAllocs)
      .set("cold_acquisitions", cold.acquisitions())
      .set("steady_heap_allocs", steady.heapAllocs)
      .set("steady_acquisitions", steady.acquisitions())
      .set("steady_pool_hit_rate", steady.hitRate())
      .set("heap_alloc_reduction", drop);
  return j;
}

/// Per-tier GEMM throughput, measured directly (min over repeats) so the
/// JSON carries the dispatch layer's speedup regardless of which --filter
/// the benchmark runner used. 256x256x256 single-threaded matmul.
JsonValue kernelsProfile() {
  namespace k = tensor::kernels;
  constexpr std::int64_t n = 256;
  constexpr int kRepeats = 7;
  Rng rng(8);
  const auto a = tensor::Tensor::randn({n, n}, rng);
  const auto b = tensor::Tensor::randn({n, n}, rng);
  tensor::Workspace workspace;

  JsonValue tiers = JsonValue::object();
  double scalarSeconds = 0.0;
  double bestSpeedup = 1.0;
  for (int t = 0; t < k::kTierCount; ++t) {
    const k::Tier tier = static_cast<k::Tier>(t);
    if (!k::tierSupported(tier)) continue;
    k::forceTier(tier);
    benchmark::DoNotOptimize(tensor::matmul(a, b));  // warm
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kRepeats; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(tensor::matmul(a, b));
      const double s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
      best = std::min(best, s);
    }
    k::resetTier();
    const double gflops =
        2.0 * static_cast<double>(n) * n * n / best / 1e9;
    if (tier == k::Tier::kScalar) scalarSeconds = best;
    const double speedup = scalarSeconds > 0.0 ? scalarSeconds / best : 1.0;
    bestSpeedup = std::max(bestSpeedup, speedup);
    tiers.set(k::tierName(tier), JsonValue::object()
                                     .set("gemm256_seconds", best)
                                     .set("gemm256_gflops", gflops)
                                     .set("speedup_vs_scalar", speedup));
  }
  JsonValue j = JsonValue::object();
  j.set("active_tier", k::tierName(k::activeTier()))
      .set("tiers", std::move(tiers))
      .set("best_gemm_speedup_vs_scalar", bestSpeedup);
  return j;
}

}  // namespace

// BENCHMARK_MAIN, plus a machine-readable allocation profile: the pool
// hit-rate / heap-alloc numbers and the kernel dispatch layer's per-tier
// GEMM throughput land in BENCH_micro_ops.json so perf tracking can diff
// the memory model and the SIMD tiers across commits.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  JsonValue payload = allocationProfile();
  payload.set("kernels", kernelsProfile());
  bench::writeBenchJson("micro_ops", payload);
  return 0;
}
