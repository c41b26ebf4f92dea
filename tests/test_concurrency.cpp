// Concurrency stress suite. Built into its own binary (dagt_concurrency_tests,
// label "concurrency") so it can be compiled alone under ThreadSanitizer:
//
//   cmake -B build-tsan -S . -DDAGT_SANITIZE=thread
//   cmake --build build-tsan --target dagt_concurrency_tests
//   ./build-tsan/tests/dagt_concurrency_tests
//
// The tests drive the shared-state surfaces of the serving stack from many
// threads at once: request coalescing + metrics snapshots, design/bundle
// registry mutation during queries, the global BufferPool / Workspace
// recycling handoff, and the trainer's batch producer. Most assertions are
// coarse (totals, finiteness) — the point is the interleaving; TSan and the
// DAGT_CHECKS contracts do the fine-grained judging. Served answers are
// pinned bitwise: every bundle kind answers an endpoint independently of
// what shares its batch.

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

#include "common/check.hpp"
#include "core/batch_prefetcher.hpp"
#include "core/dataset.hpp"
#include "core/trainer.hpp"
#include "features/design_data.hpp"
#include "serve/model_bundle.hpp"
#include "serve/prediction_engine.hpp"
#include "sta/netlist_edits.hpp"
#include "tensor/expr.hpp"
#include "tensor/ops.hpp"
#include "tensor/storage.hpp"
#include "tensor/tensor.hpp"
#include "whatif/whatif_session.hpp"

namespace dagt::serve {
namespace {

// -- Tiny untrained bundle fixture -------------------------------------------
//
// The stress tests don't care about prediction quality, so the bundle wraps
// an untrained (randomly initialized) model: a dac23 one by default, cheap
// to build and forward, or an "ours" one with the Bayesian head for the
// tests that pin served answers across both model families.

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

BundleManifest tinyManifest(const std::string& kind) {
  BundleManifest manifest;
  manifest.modelKind = kind;
  manifest.variant = kind == "ours" ? "full" : "shared";
  manifest.strategy = "stress";
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

std::string saveBundle(const std::string& kind) {
  const BundleManifest manifest = tinyManifest(kind);
  const auto model = ModelBundle::instantiate(manifest);
  // Per-process directory: ctest runs each gtest case as its own process,
  // and concurrent cases must not rewrite a bundle another one is loading.
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("dagt_stress_bundle_" + kind + "_" + std::to_string(::getpid())))
          .string();
  ModelBundle::save(*model, manifest, dir);
  return dir;
}

/// The bundle directory of model kind "dac23" or "ours", saved once.
const std::string& bundleDir(const std::string& kind = "dac23") {
  if (kind == "ours") {
    static const std::string ours = saveBundle(kind);
    return ours;
  }
  static const std::string dac23 = saveBundle(kind);
  return dac23;
}

/// The two model families whose served answers the stress tests pin.
const std::vector<std::string> kBundleKinds = {"dac23", "ours"};

std::unique_ptr<PredictionEngine> makeEngine(
    std::int32_t workers, std::int64_t maxBatch, bool batching = true,
    const std::string& kind = "dac23") {
  EngineConfig config;
  config.batching = batching;
  config.workerThreads = workers;
  config.maxBatch = maxBatch;
  config.maxWaitUs = 100;
  auto engine = std::make_unique<PredictionEngine>(config);
  engine->addBundleFromDir(bundleDir(kind));
  return engine;
}

// -- Engine-level stress -----------------------------------------------------

/// Two design keys on two snapshots, served by two batchers at once: the
/// second key is the same design as a new revision with moved cells.
/// Clients alternate keys, so batches on both snapshots are in flight
/// together. Every reply must equal its key's full-design row bitwise,
/// whichever requests shared its batch.
void coalescedClientsStress(const std::string& kind) {
  SCOPED_TRACE(kind);
  auto engine = makeEngine(/*workers=*/2, /*maxBatch=*/16, /*batching=*/true,
                           kind);
  const features::DesignData& reference = target7();
  const std::int64_t endpointCount = engine->loadDesign(
      "smallboom", reference.netlist, reference.node, reference.placement,
      "r1");
  ASSERT_GT(endpointCount, 8);
  netlist::Netlist moved = reference.netlist;
  const netlist::CellId cells = moved.numCells();
  for (netlist::CellId c = 0; c < std::min<netlist::CellId>(32, cells / 2);
       ++c) {
    const Point a = moved.cell(c).location;
    moved.setCellLocation(c, moved.cell(cells - 1 - c).location);
    moved.setCellLocation(cells - 1 - c, a);
  }
  ASSERT_EQ(engine->loadDesign("smallboom-moved", std::move(moved),
                               reference.node, reference.placement, "r2"),
            endpointCount);
  const std::vector<std::string> keys = {"smallboom", "smallboom-moved"};
  const std::vector<std::vector<float>> expected = {
      engine->predictDesign(keys[0]), engine->predictDesign(keys[1])};
  // The moved cells must change the answers, or a reply served from the
  // wrong snapshot would pass.
  ASSERT_NE(std::memcmp(expected[0].data(), expected[1].data(),
                        expected[0].size() * sizeof(float)),
            0);

  constexpr int kClients = 4;
  constexpr int kItersPerClient = 12;
  std::atomic<std::uint64_t> issued{0};
  std::atomic<bool> failed{false};

  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (int iter = 0; iter < kItersPerClient; ++iter) {
        const std::size_t k = static_cast<std::size_t>((c + iter) % 2);
        std::vector<std::int64_t> endpoints;
        for (int j = 0; j < 3; ++j) {
          endpoints.push_back((c * 31 + iter * 7 + j) % endpointCount);
        }
        const auto out = engine->predictEndpoints(keys[k], endpoints);
        if (out.size() != endpoints.size()) {
          failed = true;
          continue;
        }
        for (std::size_t i = 0; i < out.size(); ++i) {
          const float want =
              expected[k][static_cast<std::size_t>(endpoints[i])];
          if (std::memcmp(&out[i], &want, sizeof(float)) != 0) failed = true;
        }
        issued.fetch_add(endpoints.size(), std::memory_order_relaxed);
      }
    });
  }
  // Metrics poller: snapshots race against in-flight recording — every
  // snapshot must still be internally sane (no torn counters).
  threads.emplace_back([&] {
    for (int i = 0; i < 50; ++i) {
      const MetricsSnapshot snap = engine->metrics();
      if (snap.requests > 0 && snap.batches == 0) failed = true;
      if (snap.cacheHitRate < 0.0 || snap.cacheHitRate > 1.0) failed = true;
      std::this_thread::yield();
    }
  });
  // Pool churn: allocate/release tensor buffers and trim the global pool
  // while the serve path is acquiring its own scratch.
  threads.emplace_back([&] {
    for (int i = 0; i < 40; ++i) {
      tensor::Workspace ws;
      tensor::Tensor t = tensor::Tensor::zeros({64, 32});
      tensor::Tensor u = tensor::add(t, t);
      if (u.numel() != 64 * 32) failed = true;
      if (i % 8 == 0) tensor::BufferPool::global().trim();
    }
  });
  for (auto& t : threads) t.join();

  EXPECT_FALSE(failed.load());
  const MetricsSnapshot final = engine->metrics();
  EXPECT_EQ(final.requests, issued.load());
  EXPECT_GT(final.batches, 0u);
}

TEST(ConcurrencyStress, CoalescedClientsMetricsPollerAndPoolChurn) {
  for (const std::string& kind : kBundleKinds) coalescedClientsStress(kind);
}

TEST(ConcurrencyStress, RegistryMutationDuringQueries) {
  auto engine = makeEngine(/*workers=*/2, /*maxBatch=*/8);
  const features::DesignData& reference = target7();
  const std::int64_t endpointCount = engine->loadDesign(
      "smallboom", reference.netlist, reference.node, reference.placement,
      "r1");

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  // Clients keep querying while the registry churns underneath them.
  for (int c = 0; c < 3; ++c) {
    threads.emplace_back([&, c] {
      for (int iter = 0; iter < 10; ++iter) {
        const float v = engine->predictEndpoint(
            "smallboom", (c * 13 + iter) % endpointCount);
        if (!std::isfinite(v)) failed = true;
      }
    });
  }
  // Re-load the same design+revision (feature-cache hit path) and register
  // additional design keys concurrently with the queries.
  threads.emplace_back([&] {
    for (int iter = 0; iter < 6; ++iter) {
      const std::int64_t n = engine->loadDesign(
          "smallboom", reference.netlist, reference.node, reference.placement,
          "r1");
      if (n != endpointCount) failed = true;
    }
  });
  threads.emplace_back([&] {
    for (int iter = 0; iter < 3; ++iter) {
      const std::string key = "alias" + std::to_string(iter);
      const std::int64_t n = engine->loadDesign(
          key, reference.netlist, reference.node, reference.placement, "r1");
      if (n != endpointCount) failed = true;
      const float v = engine->predictEndpoint(key, 0);
      if (!std::isfinite(v)) failed = true;
    }
  });
  // Readers of the node registry.
  threads.emplace_back([&] {
    for (int iter = 0; iter < 20; ++iter) {
      const auto nodes = engine->nodes();
      if (nodes.size() != 1u) failed = true;
      std::this_thread::yield();
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load());

  const MetricsSnapshot snap = engine->metrics();
  EXPECT_GT(snap.cacheHits, 0u);  // the revision "r1" re-loads must hit
}

/// installSnapshot routes the key with an empty GNN memo (no warm-up), so
/// the first readers race to fill it: caller-thread full-design predicts
/// plus endpoint queries, served by the batcher or (batching off) by the
/// callers' own solo batches, all at once. Exactly one fill may run (from
/// the previous memo of the same snapshot, so it recomputes no row), and
/// every reader must see its complete result.
void newlyRoutedSnapshotStress(const std::string& kind) {
  SCOPED_TRACE(kind);
  const features::DesignData& reference = target7();
  constexpr int kFull = 3;
  constexpr int kEndpoint = 3;
  for (const bool batching : {true, false}) {
    auto engine =
        makeEngine(/*workers=*/2, /*maxBatch=*/8, batching, kind);
    const std::int64_t endpointCount = engine->loadDesign(
        "smallboom", reference.netlist, reference.node, reference.placement,
        "r1");
    const std::vector<float> expected = engine->predictDesign("smallboom");
    const auto snapshot = engine->currentSnapshot("smallboom");
    for (int round = 0; round < 3; ++round) {
      engine->installSnapshot("smallboom", "r1", snapshot);
      const std::uint64_t fillsBefore = engine->metrics().graphMemoFills;
      std::atomic<int> arrived{0};
      std::atomic<bool> failed{false};
      const auto waitForAll = [&] {
        arrived.fetch_add(1);
        while (arrived.load() < kFull + kEndpoint) std::this_thread::yield();
      };
      std::vector<std::thread> threads;
      for (int c = 0; c < kFull; ++c) {
        threads.emplace_back([&] {
          waitForAll();
          const std::vector<float> full = engine->predictDesign("smallboom");
          if (full.size() != expected.size() ||
              std::memcmp(full.data(), expected.data(),
                          full.size() * sizeof(float)) != 0) {
            failed = true;
          }
        });
      }
      for (int c = 0; c < kEndpoint; ++c) {
        threads.emplace_back([&, c] {
          waitForAll();
          const std::int64_t e = (c * 11 + round) % endpointCount;
          const float v = engine->predictEndpoint("smallboom", e);
          // Any batch reproduces the full-design answer bitwise.
          if (std::memcmp(&v, &expected[static_cast<std::size_t>(e)],
                          sizeof(float)) != 0) {
            failed = true;
          }
        });
      }
      for (auto& t : threads) t.join();
      EXPECT_FALSE(failed.load()) << "batching=" << batching << " round "
                                  << round;
      EXPECT_EQ(engine->metrics().graphMemoFills, fillsBefore + 1)
          << "batching=" << batching << " round " << round;
    }
  }
}

TEST(ConcurrencyStress, NewlyRoutedSnapshotSweepsOnceUnderConcurrentReaders) {
  for (const std::string& kind : kBundleKinds) newlyRoutedSnapshotStress(kind);
}

TEST(ConcurrencyStress, ConeUpdatedSnapshotFillsOnceUnderConcurrentReaders) {
  // The sibling of the test above, re-routed through what-if cone updates:
  // each round's new memo has the previous round's filled memo as its
  // base, and the racing first readers must run exactly one cone fill,
  // answer bitwise like a cold engine, and release the base with it. The
  // base holds the previous snapshot's pin-feature blocks. A block the
  // edit rewrote is held by nothing else once the snapshot is re-routed,
  // unless the session's revert baseline shares it, so such a block's
  // lifetime shows when the base goes.
  const features::DesignData& reference = target7();
  constexpr int kFull = 3;
  constexpr int kEndpoint = 3;
  for (const bool batching : {true, false}) {
    auto engine = makeEngine(/*workers=*/2, /*maxBatch=*/8, batching);
    whatif::WhatIfSession session(*engine, "smallboom", reference.netlist,
                                  reference.node, reference.placement);
    const std::shared_ptr<const ServableDesign> baseline =
        engine->currentSnapshot("smallboom");
    const std::int64_t endpointCount = session.numEndpoints();
    const std::int64_t numPins = session.netlist().numPins();
    netlist::CellId cell = 0;
    while (cell < session.netlist().numCells() &&
           sta::upsizedVariant(session.netlist(), cell) ==
               netlist::kInvalidCellType) {
      ++cell;
    }
    ASSERT_LT(cell, session.netlist().numCells());
    // Resizes one cell up and down in turn, so every round rewrites the
    // blocks of its pins, which the first resize took off the baseline.
    bool up = true;
    const auto resize = [&] {
      ASSERT_TRUE(session.resizeCell(cell, up));
      up = !up;
    };
    resize();
    (void)session.predict({0});
    for (int round = 0; round < 3; ++round) {
      std::shared_ptr<const ServableDesign> base =
          engine->currentSnapshot("smallboom");
      resize();
      session.sync();
      ASSERT_FALSE(session.lastSync().structuralRebuild);
      // The base's blocks this edit rewrote and the baseline does not hold.
      std::vector<std::weak_ptr<tensor::TensorImpl>> rewritten;
      {
        const auto& was = base->data.pinFeatures;
        const auto& now =
            engine->currentSnapshot("smallboom")->data.pinFeatures;
        const auto& first = baseline->data.pinFeatures;
        for (std::int64_t b = 0; b < was.numBlocks(); ++b) {
          if (now.block(b).data() != was.block(b).data() &&
              first.block(b).data() != was.block(b).data()) {
            rewritten.push_back(was.block(b).impl());
          }
        }
      }
      base.reset();
      ASSERT_FALSE(rewritten.empty()) << "round " << round;
      for (const auto& block : rewritten) {
        EXPECT_FALSE(block.expired())
            << "the sync released the base; its fill should";
      }

      auto cold = makeEngine(/*workers=*/1, /*maxBatch=*/8, /*batching=*/false);
      cold->loadDesign("cold", session.netlist(), reference.node,
                       reference.placement);
      const std::vector<float> expected = cold->predictDesign("cold");
      const MetricsSnapshot before = engine->metrics();
      std::atomic<int> arrived{0};
      std::atomic<bool> failed{false};
      const auto waitForAll = [&] {
        arrived.fetch_add(1);
        while (arrived.load() < kFull + kEndpoint) std::this_thread::yield();
      };
      std::vector<std::thread> threads;
      for (int c = 0; c < kFull; ++c) {
        threads.emplace_back([&] {
          waitForAll();
          const std::vector<float> full = engine->predictDesign("smallboom");
          if (full.size() != expected.size() ||
              std::memcmp(full.data(), expected.data(),
                          full.size() * sizeof(float)) != 0) {
            failed = true;
          }
        });
      }
      for (int c = 0; c < kEndpoint; ++c) {
        threads.emplace_back([&, c] {
          waitForAll();
          const std::int64_t e = (c * 11 + round) % endpointCount;
          const float v = engine->predictEndpoint("smallboom", e);
          if (std::memcmp(&v, &expected[static_cast<std::size_t>(e)],
                          sizeof(float)) != 0) {
            failed = true;
          }
        });
      }
      for (auto& t : threads) t.join();
      EXPECT_FALSE(failed.load()) << "batching=" << batching << " round "
                                  << round;
      const MetricsSnapshot after = engine->metrics();
      EXPECT_EQ(after.graphMemoFills, before.graphMemoFills + 1)
          << "batching=" << batching << " round " << round;
      const std::uint64_t rows =
          after.graphMemoRowsComputed - before.graphMemoRowsComputed;
      EXPECT_GT(rows, 0u);
      EXPECT_LT(rows, static_cast<std::uint64_t>(numPins))
          << "a resize should fill the cone, not sweep the design";
      for (const auto& block : rewritten) {
        EXPECT_TRUE(block.expired())
            << "batching=" << batching << " round " << round
            << ": the fill kept its base";
      }
    }
  }
}

// -- Tensor-layer stress -----------------------------------------------------

TEST(ConcurrencyStress, BufferPoolCrossThreadChurn) {
  auto& pool = tensor::BufferPool::global();
  constexpr int kThreads = 4;
  constexpr int kIters = 200;
  std::atomic<bool> failed{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        // Mixed sizes so threads contend on the same buckets.
        const std::size_t n = 64u << ((t + i) % 4);
        auto handle = pool.acquire(n);
        handle->data()[0] = static_cast<float>(t);
        handle->data()[n - 1] = static_cast<float>(i);
        if (handle->capacity() < n) failed = true;
        if (i % 32 == 0) {
          tensor::Workspace ws;
          auto inner = pool.acquire(n);
          inner->data()[0] = 1.0f;
        }
      }
    });
  }
  // Main thread trims and reads stats concurrently.
  for (int i = 0; i < 20; ++i) {
    pool.trim();
    const tensor::PoolStats stats = pool.stats();
    if (stats.hitRate() < 0.0 || stats.hitRate() > 1.0) failed = true;
    std::this_thread::yield();
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load());

  const tensor::PoolStats stats = pool.stats();
  EXPECT_GE(stats.acquisitions(), static_cast<std::uint64_t>(kThreads * kIters));
}

TEST(ConcurrencyStress, WorkspaceDrainHandsBuffersToOtherThreads) {
  auto& pool = tensor::BufferPool::global();
  pool.trim();
  pool.resetStats();
  constexpr std::size_t kSize = 1u << 15;  // distinctive bucket

  std::thread producer([&] {
    tensor::Workspace ws;
    for (int i = 0; i < 4; ++i) {
      auto handle = pool.acquire(kSize);
      handle->data()[0] = 42.0f;
    }
    // Workspace destructor drains the cached buffer to the global pool.
  });
  producer.join();

  std::thread consumer([&] {
    auto handle = pool.acquire(kSize);
    // The buffer (and the producer's write) must be visible here.
    EXPECT_EQ(handle->data()[0], 42.0f);
  });
  consumer.join();

  const tensor::PoolStats stats = pool.stats();
  EXPECT_GE(stats.poolReuses, 1u);
}

TEST(ConcurrencyStress, FusionProgramsCompileAndReplayConcurrently) {
  // Serve workers share one ProgramCache per module: concurrent misses on
  // the same signature must compile exactly once, replays of one immutable
  // FusedProgram must be safe from many threads, and every fused result
  // must equal the eager chain computed on the same thread. Three batch
  // shapes rotate per iteration so compile/hit/replay interleave.
  using tensor::Tensor;
  namespace expr = tensor::expr;
  constexpr int kThreads = 8;
  constexpr int kIters = 100;
  Rng init(61);
  const Tensor w = Tensor::randn({24, 16}, init);
  const Tensor bias = Tensor::randn({16}, init);
  expr::ProgramCache cache;
  std::atomic<int> compiles{0};
  std::atomic<int> mismatches{0};

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      tensor::NoGradGuard noGrad;
      Rng rng(1000 + t);
      for (int it = 0; it < kIters; ++it) {
        const std::int64_t batch = 2 + (t + it) % 3;
        const Tensor x = Tensor::randn({batch, 24}, rng);
        expr::SigHash sig;
        sig.mixTrailingDims(x.shape());
        sig.mixTensor(w);
        const auto program = cache.getOrCompile(sig.h, batch, [&] {
          compiles.fetch_add(1, std::memory_order_relaxed);
          expr::Capture cap;
          const Tensor lx = cap.input(x);
          const Tensor lw = cap.input(w);
          const Tensor lb = cap.input(bias);
          const Tensor out =
              tensor::sigmoid(tensor::addBias(tensor::matmul(lx, lw), lb));
          return cap.compile({&out});
        });
        const Tensor fused = program->runOne({x, w, bias});
        const Tensor eager =
            tensor::sigmoid(tensor::addBias(tensor::matmul(x, w), bias));
        if (fused.shape() != eager.shape() ||
            std::memcmp(fused.data(), eager.data(),
                        static_cast<std::size_t>(fused.numel()) *
                            sizeof(float)) != 0) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(mismatches.load(), 0);
  // One compile per distinct batch shape: the cache mutex serializes
  // concurrent first misses.
  EXPECT_EQ(compiles.load(), 3);
}

TEST(ConcurrencyStress, BatchPrefetcherDeliversEveryStepInOrder) {
  // Hammer the async producer/consumer handoff: the producer allocates a
  // real payload per step (so TSan sees the memory cross threads) and the
  // consumer asserts strict ordering and exact count.
  constexpr std::size_t kSteps = 2000;
  struct Step {
    std::size_t seq = 0;
    std::vector<float> payload;
  };
  for (int round = 0; round < 4; ++round) {
    std::size_t produced = 0;
    core::BatchPrefetcher<Step> prefetcher(
        [&](Step& out) {
          if (produced >= kSteps) return false;
          out.seq = produced++;
          out.payload.assign(64, static_cast<float>(out.seq));
          return true;
        });
    Step step;
    std::size_t consumed = 0;
    while (prefetcher.next(step)) {
      ASSERT_EQ(step.seq, consumed);
      ASSERT_EQ(step.payload.at(63), static_cast<float>(consumed));
      ++consumed;
    }
    EXPECT_EQ(consumed, kSteps);
  }
}

TEST(ConcurrencyStress, BatchPrefetcherAbandonedMidStreamShutsDownCleanly) {
  // The consumer may stop early (exception paths, test teardown); the
  // destructor must unblock and join a producer stuck on a full slot.
  struct Step {
    std::vector<float> payload;
  };
  for (int round = 0; round < 16; ++round) {
    core::BatchPrefetcher<Step> prefetcher(
        [&](Step& out) {
          out.payload.assign(256, 1.0f);
          return true;  // endless stream
        });
    Step step;
    ASSERT_TRUE(prefetcher.next(step));
    // Drop the prefetcher with the producer mid-flight.
  }
}

TEST(ConcurrencyStress, BatchPrefetcherPropagatesProducerException) {
  struct Step {
    int value = 0;
  };
  std::size_t produced = 0;
  core::BatchPrefetcher<Step> prefetcher(
      [&](Step& out) -> bool {
        if (produced++ == 3) throw CheckError("producer exploded");
        out.value = static_cast<int>(produced);
        return true;
      });
  Step step;
  std::size_t got = 0;
  try {
    while (prefetcher.next(step)) ++got;
    FAIL() << "expected the producer's exception";
  } catch (const CheckError&) {
  }
  EXPECT_EQ(got, 3u);
}

TEST(ConcurrencyStress, PrefetchedTrainingUnderThreads) {
  // End-to-end transfer training: the async batch producer draws each
  // step's target pick, both batches and the forward seed while the
  // training thread runs the step before. This is the TSan surface for
  // the whole train-side pipeline.
  const auto& d7 = target7();
  const auto& d130 = source130();
  core::TimingDataset trainSet({&d7, &d130});
  core::TrainConfig tc;
  tc.epochs = 3;
  tc.endpointCap = 16;
  tc.model.gnnHidden = 8;
  tc.model.cnnBaseChannels = 2;
  tc.model.cnnDim = 4;
  tc.model.headHidden = 8;
  const core::Trainer trainer(trainSet, tc);
  core::TrainStats stats;
  auto model = trainer.train(core::Strategy::kOurs, &stats);
  ASSERT_NE(model, nullptr);
  ASSERT_EQ(stats.epochLoss.size(), 3u);
  for (const float loss : stats.epochLoss) {
    EXPECT_TRUE(std::isfinite(loss));
  }
}

}  // namespace
}  // namespace dagt::serve
