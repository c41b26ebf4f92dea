#include <gtest/gtest.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/trainer.hpp"
#include "features/design_data.hpp"
#include "netlist/io.hpp"
#include "serve/feature_service.hpp"
#include "serve/metrics.hpp"
#include "serve/model_bundle.hpp"
#include "serve/prediction_engine.hpp"

namespace dagt::serve {
namespace {

// -- Shared tiny fixture -----------------------------------------------------

const features::DataConfig& dataConfig() {
  static features::DataConfig config = [] {
    features::DataConfig c;
    c.designScale = 0.2f;
    return c;
  }();
  return config;
}

const features::DataPipeline& pipeline() {
  static features::DataPipeline* p = new features::DataPipeline(dataConfig());
  return *p;
}

const features::DesignData& target7() {
  static features::DesignData d = pipeline().build("smallboom");
  return d;
}

const features::DesignData& source130() {
  static features::DesignData d = pipeline().build("usbf_device");
  return d;
}

core::TrainConfig tinyTrainConfig() {
  core::TrainConfig tc;
  tc.epochs = 3;
  tc.finetuneEpochs = 2;
  tc.endpointCap = 24;
  tc.model.gnnHidden = 16;
  tc.model.cnnBaseChannels = 4;
  tc.model.cnnDim = 8;
  tc.model.headHidden = 16;
  return tc;
}

BundleManifest tinyManifest(const core::TrainConfig& tc,
                            const std::string& strategy) {
  BundleManifest manifest;
  manifest.strategy = strategy;
  manifest.targetNode = netlist::TechNode::k7nm;
  manifest.vocabularyNodes = dataConfig().nodes;
  manifest.pinFeatureDim = pipeline().featureDim();
  manifest.model = tc.model;
  manifest.model.imageResolution = dataConfig().imageResolution;
  manifest.features = dataConfig().features;
  return manifest;
}

/// A trained model + its bundle directory, built once per strategy.
struct TrainedBundle {
  std::unique_ptr<core::TimingModel> model;
  std::unique_ptr<core::TimingDataset> dataset;
  std::string dir;
};

const TrainedBundle& trainedBundle(core::Strategy strategy) {
  static std::map<int, TrainedBundle> cache;
  auto& entry = cache[static_cast<int>(strategy)];
  if (!entry.model) {
    const auto tc = tinyTrainConfig();
    entry.dataset = std::make_unique<core::TimingDataset>(
        std::vector<const features::DesignData*>{&target7(), &source130()});
    const core::Trainer trainer(*entry.dataset, tc);
    entry.model = trainer.train(strategy);
    // Per-process directory: ctest runs each gtest case as its own process,
    // and a parallel ctest must not let one process rewrite the bundle
    // another one is mid-way through loading.
    entry.dir = (std::filesystem::temp_directory_path() /
                 ("dagt_bundle_" + core::strategyName(strategy) + "_" +
                  std::to_string(::getpid())))
                    .string();
    ModelBundle::save(*entry.model, tinyManifest(tc, core::strategyName(strategy)),
                      entry.dir);
  }
  return entry;
}

bool bitwiseEqual(float a, float b) {
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

// -- Placement sidecar -------------------------------------------------------

TEST(PlacementFile, RoundTrip) {
  place::PlacementResult placement;
  placement.dieArea = {{1.5f, -2.25f}, {301.75f, 480.0f}};
  placement.macros.push_back({{10.0f, 20.0f}, {50.0f, 80.5f}});
  placement.macros.push_back({{100.0f, 200.0f}, {150.0f, 280.0f}});
  const auto path =
      (std::filesystem::temp_directory_path() / "dagt_test.dagtpl").string();
  writePlacementFile(placement, path);
  const auto loaded = readPlacementFile(path);
  EXPECT_FLOAT_EQ(loaded.dieArea.lo.x, placement.dieArea.lo.x);
  EXPECT_FLOAT_EQ(loaded.dieArea.hi.y, placement.dieArea.hi.y);
  ASSERT_EQ(loaded.macros.size(), 2u);
  EXPECT_FLOAT_EQ(loaded.macros[1].lo.x, 100.0f);
  EXPECT_FLOAT_EQ(loaded.macros[1].hi.y, 280.0f);
  std::remove(path.c_str());
}

TEST(PlacementFile, RejectsGarbage) {
  const auto path =
      (std::filesystem::temp_directory_path() / "dagt_bad.dagtpl").string();
  {
    std::ofstream out(path);
    out << "not a placement\n";
  }
  EXPECT_THROW(readPlacementFile(path), CheckError);
  std::remove(path.c_str());
}

// -- Model bundle ------------------------------------------------------------

TEST(ModelBundle, SaveLoadPredictionsMatchTrainer) {
  const auto& trained = trainedBundle(core::Strategy::kOurs);
  const auto bundle = ModelBundle::load(trained.dir);
  EXPECT_EQ(bundle.manifest().modelKind, "ours");
  EXPECT_EQ(bundle.manifest().variant, "full");

  const auto expected =
      trained.model->predictDesign(*trained.dataset, target7());
  const auto actual =
      bundle.model().predictDesign(*trained.dataset, target7());
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    // Acceptance bar: served predictions within 1e-4 ps of the trainer's.
    EXPECT_NEAR(actual[i], expected[i], 1e-4f);
  }
}

TEST(ModelBundle, Dac23KindRoundTrips) {
  const auto& trained = trainedBundle(core::Strategy::kSimpleMerge);
  const auto bundle = ModelBundle::load(trained.dir);
  EXPECT_EQ(bundle.manifest().modelKind, "dac23");
  const auto expected =
      trained.model->predictDesign(*trained.dataset, target7());
  const auto actual =
      bundle.model().predictDesign(*trained.dataset, target7());
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(actual[i], expected[i], 1e-4f);
  }
}

TEST(ModelBundle, LoadRejectsMissingDirectory) {
  EXPECT_THROW(ModelBundle::load("/nonexistent/dagt_bundle"), CheckError);
}

TEST(ModelBundle, LoadRejectsCorruptManifest) {
  const auto dir =
      (std::filesystem::temp_directory_path() / "dagt_badbundle").string();
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(dir + "/manifest.dagtmf");
    out << "dagtmf 999\n";  // unsupported version
  }
  EXPECT_THROW(ModelBundle::load(dir), CheckError);
  std::filesystem::remove_all(dir);
}

// -- Feature service ---------------------------------------------------------

TEST(FeatureService, RebuildsTrainingFeaturesExactly) {
  const auto manifest = tinyManifest(tinyTrainConfig(), "Ours");
  FeatureService service(manifest);
  EXPECT_EQ(service.featureDim(), pipeline().featureDim());

  const auto& reference = target7();
  const auto servable = service.fromNetlist(
      "smallboom", "r1", reference.netlist, reference.node,
      reference.placement);
  const features::PinFeatures& served = servable->data.pinFeatures;
  ASSERT_EQ(served.numPins(), reference.pinFeatures.numPins());
  ASSERT_EQ(served.dim(), reference.pinFeatures.dim());
  for (std::int64_t pin = 0; pin < served.numPins(); ++pin) {
    const float* a = served.row(pin);
    const float* b = reference.pinFeatures.row(pin);
    for (std::int64_t c = 0; c < served.dim(); ++c) {
      ASSERT_FLOAT_EQ(a[c], b[c]) << "pin " << pin << " feature " << c;
    }
  }
  EXPECT_EQ(servable->data.preRouteArrivals, reference.preRouteArrivals);
}

TEST(FeatureService, CachesByRevision) {
  const auto manifest = tinyManifest(tinyTrainConfig(), "Ours");
  FeatureService service(manifest);
  const auto& d = target7();
  const auto first =
      service.fromNetlist("k", "r1", d.netlist, d.node, d.placement);
  const auto again =
      service.fromNetlist("k", "r1", d.netlist, d.node, d.placement);
  EXPECT_EQ(first.get(), again.get());
  EXPECT_EQ(service.cacheHits(), 1u);
  EXPECT_EQ(service.cacheMisses(), 1u);
  // A new revision invalidates.
  const auto rebuilt =
      service.fromNetlist("k", "r2", d.netlist, d.node, d.placement);
  EXPECT_NE(again.get(), rebuilt.get());
  EXPECT_EQ(service.cacheMisses(), 2u);
}

// -- Prediction engine -------------------------------------------------------

TEST(PredictionEngine, FullDesignMatchesTrainerBitExact) {
  const auto& trained = trainedBundle(core::Strategy::kOurs);
  PredictionEngine engine;
  engine.addBundleFromDir(trained.dir);
  const auto& d = target7();
  engine.loadDesign("smallboom", d.netlist, d.node, d.placement);

  const auto expected =
      trained.model->predictDesign(*trained.dataset, target7());
  const auto served = engine.predictDesign("smallboom");
  ASSERT_EQ(served.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TRUE(bitwiseEqual(served[i], expected[i]))
        << "endpoint " << i << ": " << served[i] << " vs " << expected[i];
  }
}

TEST(PredictionEngine, DumpLinesReadBackToServedBits) {
  // `dagt predict --dump` prints each full-design arrival as
  // TextTable::exact: the printed text must read back to the served bits.
  const auto& trained = trainedBundle(core::Strategy::kOurs);
  PredictionEngine engine;
  engine.addBundleFromDir(trained.dir);
  const auto& d = target7();
  engine.loadDesign("smallboom", d.netlist, d.node, d.placement);
  const auto served = engine.predictDesign("smallboom");
  ASSERT_FALSE(served.empty());
  for (std::size_t i = 0; i < served.size(); ++i) {
    const std::string line = TextTable::exact(served[i]);
    EXPECT_TRUE(bitwiseEqual(std::strtof(line.c_str(), nullptr), served[i]))
        << "endpoint " << i << ": " << line;
  }
}

/// A served answer depends only on (bundle, snapshot, endpoint): every
/// endpoint served alone, and every endpoint of a reversed all-endpoint
/// request, equals the engine's full-design row bitwise, which in turn
/// equals the trainer-side predictDesign.
void expectEndpointQueriesMatchFullDesign(core::Strategy strategy) {
  const auto& trained = trainedBundle(strategy);
  PredictionEngine engine;
  engine.addBundleFromDir(trained.dir);
  const auto& d = target7();
  const auto n = engine.loadDesign("smallboom", d.netlist, d.node,
                                   d.placement);
  ASSERT_GT(n, 3);
  const auto full = engine.predictDesign("smallboom");
  const auto trainer =
      trained.model->predictDesign(*trained.dataset, target7());
  ASSERT_EQ(full.size(), static_cast<std::size_t>(n));
  ASSERT_EQ(trainer.size(), full.size());
  std::vector<std::int64_t> reversed(static_cast<std::size_t>(n));
  for (std::int64_t e = 0; e < n; ++e) {
    reversed[static_cast<std::size_t>(e)] = n - 1 - e;
  }
  const auto together = engine.predictEndpoints("smallboom", reversed);
  ASSERT_EQ(together.size(), full.size());
  int mismatches = 0;
  for (std::int64_t e = 0; e < n; ++e) {
    const auto i = static_cast<std::size_t>(e);
    const float alone = engine.predictEndpoint("smallboom", e);
    const float inBatch = together[static_cast<std::size_t>(n - 1 - e)];
    mismatches += !bitwiseEqual(alone, full[i]);
    mismatches += !bitwiseEqual(inBatch, full[i]);
    mismatches += !bitwiseEqual(full[i], trainer[i]);
  }
  EXPECT_EQ(mismatches, 0) << "of " << 3 * n << " comparisons";
}

TEST(PredictionEngine, EndpointQueriesMatchFullDesignForDac23) {
  expectEndpointQueriesMatchFullDesign(core::Strategy::kSimpleMerge);
}

TEST(PredictionEngine, EndpointQueriesMatchFullDesignForOurs) {
  expectEndpointQueriesMatchFullDesign(core::Strategy::kOurs);
}

TEST(PredictionEngine, RequestsOnOneSnapshotRunOneGnnSweep) {
  // The load-time warm-up fills the snapshot's memo; after that no read
  // path sweeps again, batched or solo, however many requests follow.
  const auto& trained = trainedBundle(core::Strategy::kOurs);
  const auto& d = target7();
  for (const bool batching : {true, false}) {
    EngineConfig config;
    config.batching = batching;
    PredictionEngine engine(config);
    engine.addBundleFromDir(trained.dir);
    const auto n = engine.loadDesign("smallboom", d.netlist, d.node,
                                     d.placement);
    const MetricsSnapshot loaded = engine.metrics();
    EXPECT_EQ(loaded.graphMemoFills, 1u) << "batching=" << batching;
    EXPECT_GT(loaded.graphMemoBytes, 0u);
    for (std::int64_t e = 0; e < 10; ++e) {
      engine.predictEndpoint("smallboom", e % n);
    }
    engine.predictEndpoints("smallboom", {0, 1, n - 1});
    engine.predictDesign("smallboom");
    const MetricsSnapshot after = engine.metrics();
    EXPECT_EQ(after.graphMemoFills, 1u) << "batching=" << batching;
    EXPECT_EQ(after.graphMemoBytes, loaded.graphMemoBytes);
    const std::string json = after.toJson().dump();
    EXPECT_NE(json.find("\"graph_memo_fills\""), std::string::npos);
    EXPECT_NE(json.find("\"graph_memo_bytes\""), std::string::npos);
  }
}

TEST(PredictionEngine, CoalescesConcurrentCallers) {
  const auto& trained = trainedBundle(core::Strategy::kSimpleMerge);
  EngineConfig config;
  config.maxBatch = 64;
  config.maxWaitUs = 20000;  // generous so slow CI still coalesces
  PredictionEngine engine(config);
  engine.addBundleFromDir(trained.dir);
  const auto& d = target7();
  const auto n = engine.loadDesign("smallboom", d.netlist, d.node,
                                   d.placement);
  engine.predictEndpoint("smallboom", 0);  // warm up

  constexpr int kThreads = 8;
  constexpr int kPerThread = 4;
  std::vector<std::thread> callers;
  for (int t = 0; t < kThreads; ++t) {
    callers.emplace_back([&engine, t, n] {
      for (int i = 0; i < kPerThread; ++i) {
        engine.predictEndpoint("smallboom", (t * 7 + i) % n);
      }
    });
  }
  for (auto& caller : callers) caller.join();

  const auto metrics = engine.metrics();
  EXPECT_EQ(metrics.requests, 1u + kThreads * kPerThread);
  // Coalescing happened: strictly fewer forwards than requests.
  EXPECT_LT(metrics.batches, metrics.requests);
  EXPECT_GT(metrics.meanBatchSize, 1.0);
  EXPECT_GT(metrics.p99Us, 0.0);
  EXPECT_GE(metrics.p99Us, metrics.p50Us);
}

TEST(PredictionEngine, ErrorsOnBadQueries) {
  const auto& trained = trainedBundle(core::Strategy::kSimpleMerge);
  PredictionEngine engine;
  engine.addBundleFromDir(trained.dir);
  EXPECT_THROW(engine.predictDesign("never-loaded"), CheckError);

  const auto& d = target7();
  const auto n = engine.loadDesign("smallboom", d.netlist, d.node,
                                   d.placement);
  EXPECT_THROW(engine.predictEndpoint("smallboom", n), CheckError);
  EXPECT_THROW(engine.predictEndpoint("smallboom", -1), CheckError);
  EXPECT_THROW(engine.predictEndpoints("smallboom", {}), CheckError);
  // 130nm design with only a 7nm bundle registered.
  const auto& s = source130();
  EXPECT_THROW(engine.loadDesign("usbf", s.netlist, s.node, s.placement),
               CheckError);
}

TEST(PredictionEngine, FileRoundTripMatchesInMemory) {
  // Export the design through the interchange files (netlist + placement
  // sidecar + library) and verify the served predictions are unchanged:
  // the files carry everything feature extraction needs.
  const auto& trained = trainedBundle(core::Strategy::kOurs);
  const auto dir = std::filesystem::temp_directory_path() / "dagt_ioserve";
  std::filesystem::create_directories(dir);
  const auto& d = target7();
  const std::string nlPath = (dir / "smallboom.dagtnl").string();
  const std::string plPath = (dir / "smallboom.dagtpl").string();
  const std::string libPath = (dir / "7nm.dagtlib").string();
  netlist::io::writeNetlistFile(d.netlist, nlPath);
  writePlacementFile(d.placement, plPath);
  netlist::io::writeLibraryFile(pipeline().library(d.node), libPath);

  PredictionEngine engine;
  engine.addBundleFromDir(trained.dir);
  engine.loadDesign("mem", d.netlist, d.node, d.placement);
  engine.loadDesign("file", nlPath, libPath, plPath);

  const auto fromMemory = engine.predictDesign("mem");
  const auto fromFiles = engine.predictDesign("file");
  ASSERT_EQ(fromFiles.size(), fromMemory.size());
  for (std::size_t i = 0; i < fromMemory.size(); ++i) {
    EXPECT_NEAR(fromFiles[i], fromMemory[i], 1e-4f);
  }

  // Re-loading unchanged files hits the feature cache.
  engine.loadDesign("file", nlPath, libPath, plPath);
  EXPECT_GE(engine.metrics().cacheHits, 1u);
  std::filesystem::remove_all(dir);
}

// -- Latency histogram -------------------------------------------------------

// Independent reference: exact nearest-rank percentiles of the raw samples,
// against which every reported percentile must sit within the documented
// resolution (2^-7 relative, plus the 0.5 ns rounding of a sample).
TEST(LatencyHistogram, PercentilesWithinResolutionOfNearestRank) {
  Rng rng(20261017);
  constexpr std::size_t kSamples = 100000;
  std::vector<double> samples;
  samples.reserve(kSamples);
  LatencyHistogram histogram;
  double sum = 0.0;
  for (std::size_t i = 0; i < kSamples; ++i) {
    // Log-normal around 1 ms, clamped to 1 us .. 1 s.
    const double us =
        std::clamp(std::exp(rng.normal(std::log(1000.0), 2.3)), 1.0, 1e6);
    samples.push_back(us);
    histogram.record(us);
    sum += us;
  }
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  ASSERT_LT(sorted.front(), 10.0) << "samples must span the low end";
  ASSERT_GT(sorted.back(), 1e5) << "samples must span the high end";

  const LatencyHistogram::Summary summary = histogram.summarize();
  EXPECT_EQ(summary.count, kSamples);
  EXPECT_NEAR(summary.meanUs, sum / kSamples, 0.0005 + 1e-9 * sum);
  EXPECT_NEAR(summary.maxUs, sorted.back(), 0.0005);
  const auto nearestRank = [&](double q) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    return sorted[std::max<std::size_t>(rank, 1) - 1];
  };
  const std::pair<double, double> checks[] = {{0.50, summary.p50Us},
                                              {0.95, summary.p95Us},
                                              {0.99, summary.p99Us}};
  for (const auto& [q, reported] : checks) {
    const double exact = nearestRank(q);
    EXPECT_NEAR(reported, exact, exact / 128.0 + 0.0005) << "q = " << q;
  }
}

TEST(LatencyHistogram, BucketsTileTheRangeWithBoundedWidth) {
  // Every nanosecond count maps into a bucket that contains it, and a
  // bucket above the linear range is at most 1/64 of its lower bound.
  for (std::uint64_t ns :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{127},
        std::uint64_t{128}, std::uint64_t{129}, std::uint64_t{1000},
        std::uint64_t{123456789}, (std::uint64_t{1} << 40) - 1}) {
    const std::size_t b = LatencyHistogram::bucketOf(ns);
    ASSERT_LT(b, LatencyHistogram::kBuckets);
    const std::uint64_t lo = LatencyHistogram::bucketLow(b);
    const std::uint64_t width = LatencyHistogram::bucketWidth(b);
    EXPECT_LE(lo, ns);
    EXPECT_LT(ns, lo + width);
    if (ns >= 128) {
      EXPECT_LE(width * 64, lo) << ns;
    }
  }
  for (std::size_t b = 1; b < LatencyHistogram::kBuckets; ++b) {
    EXPECT_EQ(LatencyHistogram::bucketLow(b),
              LatencyHistogram::bucketLow(b - 1) +
                  LatencyHistogram::bucketWidth(b - 1))
        << "bucket " << b;
  }
}

TEST(LatencyHistogram, FootprintDoesNotGrowWithSamples) {
  // The recorder is a fixed array: recording 10^5 requests allocates
  // nothing (a per-request float would be ~400 KB).
  ServeMetrics metrics;
  metrics.recordLatencyUs(10.0);
  (void)metrics.snapshot(0, 0);
#if defined(__GLIBC__)
  const std::size_t before = mallinfo2().uordblks;
#endif
  for (int i = 0; i < 100000; ++i) metrics.recordLatencyUs(1.0 + i % 977);
#if defined(__GLIBC__)
  const std::size_t after = mallinfo2().uordblks;
  EXPECT_LT(after > before ? after - before : 0, std::size_t{4096});
#endif
  const MetricsSnapshot snap = metrics.snapshot(0, 0);
  EXPECT_GT(snap.p50Us, 0.0);
  EXPECT_LE(snap.p99Us, snap.maxUs);
  EXPECT_NEAR(snap.maxUs, 977.0, 0.0005);
}

}  // namespace
}  // namespace dagt::serve
