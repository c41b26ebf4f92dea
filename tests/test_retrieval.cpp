// Learned-prediction-cache suite. Built into its own binary
// (dagt_retrieval_tests, label "retrieval") so it can be compiled alone
// under ThreadSanitizer, like the concurrency suite:
//
//   cmake -B build-tsan -S . -DDAGT_SANITIZE=thread
//   cmake --build build-tsan --target dagt_retrieval_tests
//   ./build-tsan/tests/dagt_retrieval_tests
//
// Covers the EmbeddingIndex (exact top-k vs a naive scan, bucket growth,
// payload stability, empty-index probes, insert-during-query races), the
// PredictionCache admission gates (distance and sigma, including sigma
// EXACTLY at the threshold — the gate is <=), the per-snapshot embedding
// memo, and the engine integration: cache-off bitwise parity against a
// plain engine on or1200 AND arm9, hit/metrics behavior and the cache
// surviving a revision re-load. Prediction quality is irrelevant, so the
// bundle wraps an untrained Bayesian-head "ours" model.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/rng.hpp"
#include "features/design_data.hpp"
#include "retrieval/embedding_index.hpp"
#include "retrieval/prediction_cache.hpp"
#include "serve/model_bundle.hpp"
#include "serve/prediction_engine.hpp"

namespace dagt::retrieval {
namespace {

// -- EmbeddingIndex ----------------------------------------------------------

std::vector<float> randomVec(Rng& rng, std::int64_t dim) {
  std::vector<float> v(static_cast<std::size_t>(dim));
  for (auto& x : v) x = static_cast<float>(rng.normal() * 2.0);
  return v;
}

/// Reference nearest-neighbor scan over raw (unnormalized) vectors.
std::vector<std::int64_t> naiveTopK(const std::vector<std::vector<float>>& db,
                                    const std::vector<float>& q,
                                    std::int32_t k) {
  const auto cosineDist = [](const std::vector<float>& a,
                             const std::vector<float>& b) {
    double dot = 0.0;
    double na = 0.0;
    double nb = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      dot += static_cast<double>(a[i]) * b[i];
      na += static_cast<double>(a[i]) * a[i];
      nb += static_cast<double>(b[i]) * b[i];
    }
    return 1.0 - dot / (std::sqrt(na) * std::sqrt(nb));
  };
  std::vector<std::int64_t> ids(db.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<std::int64_t>(i);
  }
  std::stable_sort(ids.begin(), ids.end(),
                   [&](std::int64_t a, std::int64_t b) {
                     return cosineDist(db[static_cast<std::size_t>(a)], q) <
                            cosineDist(db[static_cast<std::size_t>(b)], q);
                   });
  ids.resize(static_cast<std::size_t>(k));
  return ids;
}

TEST(EmbeddingIndex, EmptyIndexReturnsNoNeighbors) {
  EmbeddingIndex index(8, 0);
  const std::vector<float> q(8, 1.0f);
  EXPECT_TRUE(index.query(q.data(), 3).empty());
  EXPECT_EQ(index.size(), 0);
}

TEST(EmbeddingIndex, TopKMatchesNaiveScanAcrossBucketBoundaries) {
  const std::int64_t dim = 19;  // odd: exercises the dot's tail loop
  // bucketRows = 7 forces the 60 rows across 9 buckets.
  EmbeddingIndex index(dim, 0, EmbeddingIndex::Metric::kCosine, 7);
  Rng rng(1234);
  std::vector<std::vector<float>> db;
  for (int i = 0; i < 60; ++i) {
    db.push_back(randomVec(rng, dim));
    EXPECT_EQ(index.insert(db.back().data(), nullptr),
              static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(index.size(), 60);
  for (int trial = 0; trial < 10; ++trial) {
    const std::vector<float> q = randomVec(rng, dim);
    const auto got = index.query(q.data(), 5);
    const auto want = naiveTopK(db, q, 5);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i]) << "trial " << trial << " rank " << i;
    }
    // Distances come back nearest-first and within the cosine range.
    for (std::size_t i = 1; i < got.size(); ++i) {
      EXPECT_LE(got[i - 1].distance, got[i].distance);
    }
    for (const auto& n : got) {
      EXPECT_GE(n.distance, -1e-5f);
      EXPECT_LE(n.distance, 2.0f + 1e-5f);
    }
  }
}

TEST(EmbeddingIndex, ExactDuplicateHasZeroDistanceAndPayloadSurvives) {
  EmbeddingIndex index(6, 2);
  Rng rng(7);
  const std::vector<float> v = randomVec(rng, 6);
  const float payload[2] = {42.5f, 0.125f};
  index.insert(v.data(), payload);
  // A second row keeps the first row's payload pointer stable.
  const std::vector<float> other = randomVec(rng, 6);
  index.insert(other.data(), payload);
  const auto got = index.query(v.data(), 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, 0);
  EXPECT_NEAR(got[0].distance, 0.0f, 1e-6f);
  ASSERT_NE(got[0].payload, nullptr);
  EXPECT_EQ(got[0].payload[0], 42.5f);
  EXPECT_EQ(got[0].payload[1], 0.125f);
}

TEST(EmbeddingIndex, FewerRowsThanKReturnsAllRows) {
  EmbeddingIndex index(4, 0);
  const std::vector<float> a = {1.0f, 0.0f, 0.0f, 0.0f};
  const std::vector<float> b = {0.0f, 1.0f, 0.0f, 0.0f};
  index.insert(a.data(), nullptr);
  index.insert(b.data(), nullptr);
  const auto got = index.query(a.data(), 5);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].id, 0);
  EXPECT_EQ(got[1].id, 1);
}

TEST(EmbeddingIndex, L2MetricRanksLikeCosineOnUnitVectors) {
  const std::int64_t dim = 12;
  EmbeddingIndex cos(dim, 0, EmbeddingIndex::Metric::kCosine);
  EmbeddingIndex l2(dim, 0, EmbeddingIndex::Metric::kL2);
  Rng rng(99);
  for (int i = 0; i < 20; ++i) {
    const auto v = randomVec(rng, dim);
    cos.insert(v.data(), nullptr);
    l2.insert(v.data(), nullptr);
  }
  const auto q = randomVec(rng, dim);
  const auto a = cos.query(q.data(), 4);
  const auto b = l2.query(q.data(), 4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);  // both monotone in the dot
    // l2 = sqrt(2 * cosine) for unit vectors.
    EXPECT_NEAR(b[i].distance,
                std::sqrt(std::max(0.0f, 2.0f * a[i].distance)), 1e-3f);
  }
}

// Readers race writers: queries must only ever see fully published rows
// (TSan-clean, valid ids, distances in range). Run under the TSan build of
// this target via tools/verify.sh's `retrieval` stage.
TEST(EmbeddingIndex, ConcurrentInsertDuringQueryIsSafe) {
  const std::int64_t dim = 16;
  EmbeddingIndex index(dim, 2, EmbeddingIndex::Metric::kCosine,
                       /*bucketRows=*/8);  // small buckets: many links
  std::atomic<bool> stop{false};
  const int kWriters = 2;
  const int kReaders = 3;
  const int kRowsPerWriter = 400;

  // Writers start once every reader is running, so the inserts overlap
  // queries even on a loaded machine (and each reader queries at least
  // once: stop is only set after the writers finish).
  std::atomic<int> readersRunning{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Rng rng(1000 + w);
      while (readersRunning.load() < kReaders) std::this_thread::yield();
      for (int i = 0; i < kRowsPerWriter; ++i) {
        const auto v = randomVec(rng, dim);
        const float payload[2] = {static_cast<float>(i),
                                  static_cast<float>(w)};
        index.insert(v.data(), payload);
      }
    });
  }
  std::vector<std::thread> readers;
  std::atomic<std::int64_t> queries{0};
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(2000 + r);
      readersRunning.fetch_add(1);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto q = randomVec(rng, dim);
        const std::int64_t sizeBefore = index.size();
        const auto got = index.query(q.data(), 4);
        // An epoch query returns only rows committed at entry, so at
        // most min(sizeBefore-at-entry..., 4); ids must be valid rows.
        for (const auto& n : got) {
          EXPECT_GE(n.id, 0);
          EXPECT_LT(n.id, index.size());
          EXPECT_GE(n.distance, -1e-5f);
          ASSERT_NE(n.payload, nullptr);
          EXPECT_GE(n.payload[0], 0.0f);  // published payload, not zeros mid-copy
        }
        if (sizeBefore > 0) {
          EXPECT_FALSE(got.empty());
        }
        queries.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_EQ(index.size(), kWriters * kRowsPerWriter);
  EXPECT_GT(queries.load(), 0);
}

// -- PredictionCache admission gates ----------------------------------------

CacheConfig gateConfig(float maxDist, float maxSigmaPs) {
  CacheConfig config;
  config.enabled = true;
  config.maxDist = maxDist;
  config.maxSigmaPs = maxSigmaPs;
  return config;
}

TEST(PredictionCache, EmptyIndexProbeIsMiss) {
  PredictionCache cache(8, gateConfig(0.5f, 10.0f));
  const std::vector<float> v(8, 1.0f);
  const auto r = cache.probe(v.data());
  EXPECT_EQ(r.outcome, PredictionCache::ProbeOutcome::kMiss);
  const auto c = cache.counters();
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.hits, 0u);
}

TEST(PredictionCache, SigmaExactlyAtThresholdAdmits) {
  PredictionCache cache(8, gateConfig(0.5f, 10.0f));
  Rng rng(5);
  const auto v = randomVec(rng, 8);
  cache.insert(v.data(), {3.25f, 10.0f});  // sigma == maxSigmaPs exactly
  const auto r = cache.probe(v.data());
  EXPECT_EQ(r.outcome, PredictionCache::ProbeOutcome::kHit);
  EXPECT_EQ(r.posterior.rawMeanNs, 3.25f);
  EXPECT_EQ(r.posterior.sigmaPs, 10.0f);
}

TEST(PredictionCache, SigmaAboveThresholdRejects) {
  PredictionCache cache(8, gateConfig(0.5f, 10.0f));
  Rng rng(6);
  const auto v = randomVec(rng, 8);
  cache.insert(v.data(), {3.25f, 10.0001f});
  const auto r = cache.probe(v.data());
  EXPECT_EQ(r.outcome, PredictionCache::ProbeOutcome::kRejectSigma);
  const auto c = cache.counters();
  EXPECT_EQ(c.rejectBySigma, 1u);
  EXPECT_EQ(c.misses, 1u);  // rejects count as fall-throughs
  EXPECT_EQ(c.hits, 0u);
}

TEST(PredictionCache, DistantNeighborRejectsByDistance) {
  PredictionCache cache(3, gateConfig(0.01f, 10.0f));
  const std::vector<float> a = {1.0f, 0.0f, 0.0f};
  const std::vector<float> b = {0.0f, 1.0f, 0.0f};  // orthogonal: dist 1.0
  cache.insert(a.data(), {1.0f, 1.0f});
  const auto r = cache.probe(b.data());
  EXPECT_EQ(r.outcome, PredictionCache::ProbeOutcome::kRejectDist);
  EXPECT_NEAR(r.distance, 1.0f, 1e-5f);
  EXPECT_EQ(cache.counters().rejectByDist, 1u);
}

TEST(PredictionCache, EraMemoIsWriteOnceAndSwapsWithSnapshot) {
  PredictionCache cache(4, gateConfig(0.5f, 10.0f));
  const int keyA = 0;
  const int keyB = 0;
  const auto era1 = cache.eraFor(&keyA, 8);
  EXPECT_EQ(era1->lookup(3), nullptr);
  const std::vector<float> v = {1.0f, 2.0f, 3.0f, 4.0f};
  era1->memoize(3, v.data());
  ASSERT_NE(era1->lookup(3), nullptr);
  EXPECT_EQ(std::memcmp(era1->lookup(3), v.data(), 4 * sizeof(float)), 0);
  // Same key: same era back. New key: fresh (empty) era, old one intact.
  EXPECT_EQ(cache.eraFor(&keyA, 8).get(), era1.get());
  const auto era2 = cache.eraFor(&keyB, 8);
  EXPECT_NE(era2.get(), era1.get());
  EXPECT_EQ(era2->lookup(3), nullptr);
  EXPECT_NE(era1->lookup(3), nullptr);  // retired era still readable
}

// -- Engine integration ------------------------------------------------------

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

const features::DesignData& or1200() {
  static features::DesignData d = pipeline().build("or1200");
  return d;
}

const features::DesignData& arm9() {
  static features::DesignData d = pipeline().build("arm9");
  return d;
}

serve::BundleManifest tinyOursManifest() {
  serve::BundleManifest manifest;
  manifest.modelKind = "ours";
  manifest.variant = "full";  // Bayesian head: the cacheable kind
  manifest.strategy = "retrieval-test";
  manifest.targetNode = netlist::TechNode::k7nm;
  manifest.vocabularyNodes = dataConfig().nodes;
  manifest.pinFeatureDim = pipeline().featureDim();
  manifest.model.gnnHidden = 16;
  manifest.model.cnnBaseChannels = 4;
  manifest.model.cnnDim = 8;
  manifest.model.headHidden = 16;
  manifest.model.imageResolution = dataConfig().imageResolution;
  manifest.features = dataConfig().features;
  return manifest;
}

const std::string& bundleDir() {
  static std::string dir = [] {
    const serve::BundleManifest manifest = tinyOursManifest();
    const auto model = serve::ModelBundle::instantiate(manifest);
    const std::string d =
        (std::filesystem::temp_directory_path() /
         ("dagt_retrieval_bundle_" + std::to_string(::getpid())))
            .string();
    serve::ModelBundle::save(*model, manifest, d);
    return d;
  }();
  return dir;
}

serve::EngineConfig soloConfig() {
  serve::EngineConfig config;
  config.batching = false;  // solo path: deterministic batch composition
  config.retrieval.enabled = false;
  return config;
}

std::unique_ptr<serve::PredictionEngine> makeEngine(
    const serve::EngineConfig& config, const features::DesignData& d,
    const std::string& key) {
  auto engine = std::make_unique<serve::PredictionEngine>(config);
  engine->addBundleFromDir(bundleDir());
  engine->loadDesign(key, d.netlist, d.node, d.placement, "r1");
  return engine;
}

/// Cache-off bitwise parity: an engine with the retrieval layer disabled
/// (the default) serves exactly what a pre-retrieval engine served — and
/// an enabled engine whose gates never admit (maxDist < 0) must match it
/// bitwise too, because the miss path reproduces the full forward.
void expectCacheOffParity(const features::DesignData& d,
                          const std::string& key) {
  auto off = makeEngine(soloConfig(), d, key);
  serve::EngineConfig onConfig = soloConfig();
  onConfig.retrieval.enabled = true;
  onConfig.retrieval.maxDist = -1.0f;  // nothing ever admits
  auto on = makeEngine(onConfig, d, key);
  ASSERT_NE(on->retrievalCache(key), nullptr);
  EXPECT_EQ(off->retrievalCache(key), nullptr);

  const std::int64_t n = std::min<std::int64_t>(d.numEndpoints(), 24);
  ASSERT_GT(n, 0);
  for (std::int64_t e = 0; e < n; ++e) {
    const float a = off->predictEndpoint(key, e);
    const float b = on->predictEndpoint(key, e);
    // memcmp, not ==: bitwise parity is the contract.
    EXPECT_EQ(std::memcmp(&a, &b, sizeof(float)), 0)
        << key << " endpoint " << e << ": off=" << a << " on=" << b;
  }
  const auto snap = on->metrics();
  EXPECT_TRUE(snap.retrievalEnabled);
  EXPECT_EQ(snap.retrievalHits, 0u);
  EXPECT_EQ(snap.retrievalMisses, static_cast<std::uint64_t>(n));
  EXPECT_EQ(snap.retrievalRejectByDist,
            static_cast<std::uint64_t>(n - 1));  // first probe: empty index
  EXPECT_FALSE(off->metrics().retrievalEnabled);
}

TEST(RetrievalEngine, CacheOffBitwiseParityOr1200) {
  expectCacheOffParity(or1200(), "or1200");
}

TEST(RetrievalEngine, CacheOffBitwiseParityArm9) {
  expectCacheOffParity(arm9(), "arm9");
}

TEST(RetrievalEngine, RepeatQueryHitsAndMatchesWithinBudget) {
  serve::EngineConfig config = soloConfig();
  config.retrieval.enabled = true;
  config.retrieval.maxDist = 1e-4f;     // effectively exact-repeat only
  config.retrieval.maxSigmaPs = 1e9f;   // sigma gate wide open
  const auto& d = or1200();
  auto engine = makeEngine(config, d, "or1200");

  const std::int64_t n = std::min<std::int64_t>(d.numEndpoints(), 16);
  std::vector<float> first(static_cast<std::size_t>(n));
  for (std::int64_t e = 0; e < n; ++e) {
    first[static_cast<std::size_t>(e)] = engine->predictEndpoint("or1200", e);
  }
  const auto cold = engine->metrics();
  EXPECT_EQ(cold.retrievalHits, 0u);
  EXPECT_EQ(cold.retrievalInserts, static_cast<std::uint64_t>(n));
  EXPECT_EQ(cold.retrievalIndexSize, static_cast<std::uint64_t>(n));

  for (std::int64_t e = 0; e < n; ++e) {
    const float again = engine->predictEndpoint("or1200", e);
    // A zero-distance hit replays the endpoint's own posterior; the only
    // difference from the cold value is the scalar-vs-tensor bypass
    // rounding, so it must agree to float precision.
    EXPECT_NEAR(again, first[static_cast<std::size_t>(e)],
                1e-3f * (1.0f + std::abs(first[static_cast<std::size_t>(e)])));
  }
  const auto warm = engine->metrics();
  EXPECT_EQ(warm.retrievalHits, static_cast<std::uint64_t>(n));
  EXPECT_EQ(warm.retrievalEmbedMemoHits, static_cast<std::uint64_t>(n));
  EXPECT_GT(warm.retrievalHitRate, 0.0);
  // Metric keys are part of the documented surface (docs/retrieval.md).
  const std::string json = warm.toJson().dump(0);
  for (const char* needle :
       {"retrieval_hits", "retrieval_misses", "retrieval_hit_rate",
        "retrieval_reject_by_dist", "retrieval_reject_by_sigma",
        "retrieval_inserts", "retrieval_embed_memo_hits",
        "retrieval_index_size", "retrieval_hit_mean_us",
        "retrieval_miss_mean_us"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
}

TEST(RetrievalEngine, CacheSurvivesRevisionReload) {
  serve::EngineConfig config = soloConfig();
  config.retrieval.enabled = true;
  const auto& d = or1200();
  auto engine = makeEngine(config, d, "or1200");
  const auto cache = engine->retrievalCache("or1200");
  ASSERT_NE(cache, nullptr);
  // A new revision of the same key keeps the accumulated posteriors.
  engine->loadDesign("or1200", d.netlist, d.node, d.placement, "r2");
  EXPECT_EQ(engine->retrievalCache("or1200").get(), cache.get());
}

}  // namespace
}  // namespace dagt::retrieval
