// What-if service suite (label "whatif"). Covers the session's determinism
// contract (edited predictions bitwise equal to a cold rebuild), cone-based
// feature-cache invalidation exactness (edits outside an endpoint's cone
// keep its cached artifacts — pointer-shared, not recomputed — while edits
// inside invalidate it), GNN memos filled from their predecessor's over the
// dirty fanout cone, commit/revert baselines, rejected off-die moves, the
// metrics surface, and a reader/writer stress that tools/verify.sh also runs
// under ThreadSanitizer (and the whole suite under ASan/UBSan):
//
//   cmake -B build-tsan -S . -DDAGT_SANITIZE=thread
//   cmake --build build-tsan --target dagt_whatif_tests

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "designgen/design_suite.hpp"
#include "features/design_data.hpp"
#include "features/path_extractor.hpp"
#include "netlist/cell_library.hpp"
#include "obs/trace.hpp"
#include "place/placer.hpp"
#include "serve/model_bundle.hpp"
#include "serve/prediction_engine.hpp"
#include "sta/netlist_edits.hpp"
#include "tensor/expr.hpp"
#include "tensor/kernels/kernels.hpp"
#include "whatif/edit_script.hpp"
#include "whatif/whatif_session.hpp"

namespace dagt::whatif {
namespace {

// -- Tiny untrained bundle fixture -------------------------------------------
//
// Prediction quality is irrelevant here — the contracts under test are
// bitwise determinism and cache bookkeeping — so the bundle wraps an
// untrained model: dac23 by default, cheap to build and forward, or "ours"
// with the Bayesian head where a test pins the exact head's answers.

const features::DataConfig& dataConfig() {
  static features::DataConfig config = [] {
    features::DataConfig c;
    c.designScale = 0.2f;
    return c;
  }();
  return config;
}

std::string saveBundle(const std::string& kind) {
  const features::DataPipeline pipeline(dataConfig());
  serve::BundleManifest manifest;
  manifest.modelKind = kind;
  manifest.variant = kind == "ours" ? "full" : "shared";
  manifest.strategy = "whatif_tests";
  manifest.targetNode = netlist::TechNode::k7nm;
  manifest.vocabularyNodes = dataConfig().nodes;
  manifest.pinFeatureDim = pipeline.featureDim();
  manifest.model.gnnHidden = 16;
  manifest.model.cnnBaseChannels = 4;
  manifest.model.cnnDim = 8;
  manifest.model.headHidden = 16;
  manifest.model.imageResolution = dataConfig().imageResolution;
  manifest.features = dataConfig().features;
  const auto model = serve::ModelBundle::instantiate(manifest);
  // Per-process directory: ctest runs each case as its own process.
  const std::string d =
      (std::filesystem::temp_directory_path() /
       ("dagt_whatif_bundle_" + kind + "_" + std::to_string(::getpid())))
          .string();
  serve::ModelBundle::save(*model, manifest, d);
  return d;
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

/// A placed suite design plus an engine with the bundle registered.
/// batching=false by default: caller-thread forwards.
struct SessionFixture {
  designgen::DesignSuite suite{0.2f};
  netlist::TechNode node = netlist::TechNode::k7nm;
  netlist::CellLibrary lib = netlist::CellLibrary::makeNode(node);
  netlist::Netlist nl;
  place::PlacementResult placement;
  serve::PredictionEngine engine;

  explicit SessionFixture(const char* name = "or1200", bool batching = false,
                          const std::string& kind = "dac23")
      : nl([&] {
          const auto& entry = suite.entry(name);
          return suite.buildNetlist(entry, lib);
        }()),
        engine([&] {
          serve::EngineConfig config;
          config.batching = batching;
          config.workerThreads = batching ? 2 : 1;
          return config;
        }()) {
    place::PlacerConfig placerConfig;
    placerConfig.seed ^= suite.entry(name).spec.seed;
    placement = place::Placer::place(nl, placerConfig);
    engine.addBundleFromDir(bundleDir(kind));
  }
};

/// First cell with a larger drive variant, skipping `skip` candidates.
netlist::CellId findResizable(const netlist::Netlist& nl, int skip = 0) {
  for (netlist::CellId c = 0; c < nl.numCells(); ++c) {
    if (sta::upsizedVariant(nl, c) == netlist::kInvalidCellType) continue;
    if (skip-- == 0) return c;
  }
  return netlist::kInvalidId;
}

/// First net insertFanoutBuffer will accept (>= 4 sinks).
netlist::NetId findBufferable(const netlist::Netlist& nl) {
  for (netlist::NetId n = 0; n < nl.numNets(); ++n) {
    if (nl.net(n).sinks.size() >= 4) return n;
  }
  return netlist::kInvalidId;
}

void expectBitwiseEqual(const std::vector<float>& a,
                        const std::vector<float>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::memcmp(&a[i], &b[i], sizeof(float)), 0)
        << what << ": endpoint " << i << " " << a[i] << " vs " << b[i];
  }
}

// -- Determinism contract ----------------------------------------------------

TEST(WhatIfSession, EditStreamMatchesColdRebuildBitwise) {
  SessionFixture f;
  WhatIfSession session(f.engine, "wi", f.nl, f.node, f.placement);
  const std::int64_t numEndpoints = session.numEndpoints();
  ASSERT_GT(numEndpoints, 8);
  std::vector<std::int64_t> all(static_cast<std::size_t>(numEndpoints));
  std::iota(all.begin(), all.end(), std::int64_t{0});

  const Rect die = f.placement.dieArea;
  int coldSerial = 0;
  const auto checkParity = [&](const char* what) {
    const std::vector<float> incremental = session.predict(all);
    f.engine.loadDesign("cold", session.netlist(), f.node, f.placement,
                        "c" + std::to_string(coldSerial++));
    const std::vector<float> cold = f.engine.predictEndpoints("cold", all);
    expectBitwiseEqual(incremental, cold, what);
  };

  // One edit of each kind, parity after each: resize (pure cone update),
  // move (re-masked cones + image diff), buffer (grown pin graph, re-walked
  // cones). Each is a cone update: only a key's first load builds cold.
  const netlist::CellId toResize = findResizable(session.netlist());
  ASSERT_NE(toResize, netlist::kInvalidId);
  ASSERT_TRUE(session.resizeCell(toResize, /*up=*/true));
  checkParity("after resize");
  EXPECT_FALSE(session.lastSync().structuralRebuild);

  const netlist::CellId toMove = findResizable(session.netlist(), 3);
  ASSERT_NE(toMove, netlist::kInvalidId);
  session.moveCell(toMove, Point{die.hi.x, die.hi.y});
  checkParity("after move");
  EXPECT_FALSE(session.lastSync().structuralRebuild);

  const netlist::NetId toBuffer = findBufferable(session.netlist());
  ASSERT_NE(toBuffer, netlist::kInvalidId);
  ASSERT_TRUE(session.insertBuffer(toBuffer).inserted);
  checkParity("after buffer insertion");
  EXPECT_FALSE(session.lastSync().structuralRebuild);
}

TEST(WhatIfSession, PredictAllMatchesPredictDesignForOurs) {
  // The Bayesian head answers an endpoint in closed form, whatever shares
  // its batch: a what-if report through the endpoint path equals the
  // full-design forward bitwise, batched or not, after a resize and after
  // a move.
  for (const bool batching : {false, true}) {
    SessionFixture f("or1200", batching, "ours");
    WhatIfSession session(f.engine, "wi", f.nl, f.node, f.placement);
    const Rect die = f.placement.dieArea;
    ASSERT_TRUE(session.resizeCell(findResizable(session.netlist()), true));
    const std::vector<float> resized = session.predictAll();
    expectBitwiseEqual(resized, f.engine.predictDesign("wi"), "after resize");
    session.moveCell(findResizable(session.netlist(), 3),
                     Point{die.hi.x, die.hi.y});
    const std::vector<float> moved = session.predictAll();
    expectBitwiseEqual(moved, f.engine.predictDesign("wi"), "after move");
    EXPECT_NE(std::memcmp(resized.data(), moved.data(),
                          moved.size() * sizeof(float)),
              0)
        << "the move must change some answer";
  }
}

// -- Cone-based invalidation exactness ---------------------------------------

TEST(WhatIfSession, EditOutsideConeKeepsCachedEndpointsExactly) {
  SessionFixture f;
  WhatIfSession session(f.engine, "wi", f.nl, f.node, f.placement);
  const std::int64_t numEndpoints = session.numEndpoints();
  const std::vector<float> baseline = session.predictAll();
  const auto before = f.engine.currentSnapshot("wi");
  ASSERT_NE(before, nullptr);

  const netlist::CellId cell = findResizable(session.netlist());
  ASSERT_NE(cell, netlist::kInvalidId);
  const netlist::PinId editedPin = session.netlist().cell(cell).outputPin;
  ASSERT_TRUE(session.resizeCell(cell, /*up=*/true));
  session.sync();
  const auto& res = session.lastSync();
  EXPECT_FALSE(res.structuralRebuild);
  EXPECT_EQ(res.imagesReused + res.imagesRebuilt, numEndpoints);

  // The edit's blast radius must be real but local: some endpoints dirty,
  // and on a multi-hundred-endpoint design not all of them.
  const std::set<std::int64_t> dirty(res.dirtyEndpoints.begin(),
                                     res.dirtyEndpoints.end());
  ASSERT_FALSE(dirty.empty());
  ASSERT_LT(static_cast<std::int64_t>(dirty.size()), numEndpoints);

  // "Inside the cone" direction: every endpoint whose fanout cone contains
  // the resized cell's output pin must be flagged dirty.
  const auto after = f.engine.currentSnapshot("wi");
  ASSERT_NE(after, nullptr);
  ASSERT_NE(after.get(), before.get());
  int coveringEndpoints = 0;
  for (std::int64_t e = 0; e < numEndpoints; ++e) {
    const auto& cone = after->data.paths()[static_cast<std::size_t>(e)].conePins;
    if (std::find(cone.begin(), cone.end(), editedPin) == cone.end()) continue;
    ++coveringEndpoints;
    EXPECT_TRUE(dirty.count(e)) << "endpoint " << e
                                << " contains the edited pin but was kept";
  }
  ASSERT_GT(coveringEndpoints, 0);

  // "Outside the cone" direction: kept endpoints are bit-identical — same
  // prediction as before the edit, and the cached masked image is the SAME
  // allocation as the prior snapshot's, not a recomputed copy.
  const std::vector<float> afterAll = session.predictAll();
  const auto beforeSlots = before->dataset->exportImages(before->data);
  const auto afterSlots = after->dataset->exportImages(after->data);
  ASSERT_EQ(beforeSlots.size(), afterSlots.size());
  int kept = 0;
  for (std::int64_t e = 0; e < numEndpoints; ++e) {
    if (dirty.count(e)) continue;
    ++kept;
    ASSERT_EQ(std::memcmp(&baseline[static_cast<std::size_t>(e)],
                          &afterAll[static_cast<std::size_t>(e)],
                          sizeof(float)),
              0)
        << "kept endpoint " << e << " changed prediction";
    ASSERT_NE(beforeSlots[static_cast<std::size_t>(e)], nullptr);
    EXPECT_EQ(afterSlots[static_cast<std::size_t>(e)].get(),
              beforeSlots[static_cast<std::size_t>(e)].get())
        << "kept endpoint " << e << " lost its shared image slot";
  }
  ASSERT_GT(kept, 0);
}

// -- Commit / revert ---------------------------------------------------------

TEST(WhatIfSession, RevertRestoresBaselinePredictionsBitwise) {
  SessionFixture f;
  WhatIfSession session(f.engine, "wi", f.nl, f.node, f.placement);
  const std::vector<float> baseline = session.predictAll();
  const std::int64_t baseCells = session.netlist().numCells();

  const Rect die = f.placement.dieArea;
  ASSERT_TRUE(session.resizeCell(findResizable(session.netlist()), true));
  session.moveCell(findResizable(session.netlist(), 5),
                   Point{die.lo.x, die.lo.y});
  ASSERT_TRUE(session.insertBuffer(findBufferable(session.netlist())).inserted);
  EXPECT_EQ(session.netlist().numCells(), baseCells + 1);

  session.revert();
  EXPECT_EQ(session.netlist().numCells(), baseCells);
  expectBitwiseEqual(session.predictAll(), baseline, "after revert");
}

TEST(WhatIfSession, CommitMovesTheRevertBaseline) {
  SessionFixture f;
  WhatIfSession session(f.engine, "wi", f.nl, f.node, f.placement);

  ASSERT_TRUE(session.resizeCell(findResizable(session.netlist()), true));
  session.commit();
  const std::vector<float> committed = session.predictAll();

  const Rect die = f.placement.dieArea;
  session.moveCell(findResizable(session.netlist(), 7),
                   Point{die.hi.x, die.lo.y});
  session.revert();
  // Revert lands on the committed state, not the construction-time one.
  expectBitwiseEqual(session.predictAll(), committed, "after commit+revert");
}

// -- GNN memo across re-routes -----------------------------------------------

TEST(WhatIfSession, EveryRerouteAnswersLikeAColdEngine) {
  // Each way a key is re-routed (cone update, revert) starts an empty GNN
  // memo whose base is the previous one; its fill re-runs only the changed
  // fanout cone, and the answers must match an engine that never saw the
  // key, bitwise. A memo kept across the re-route, or a cone that misses a
  // changed row, would serve the previous snapshot's embeddings: cone
  // updates share the pin graph, so only the answers can tell.
  SessionFixture f;
  WhatIfSession session(f.engine, "wi", f.nl, f.node, f.placement);
  std::vector<std::int64_t> all(
      static_cast<std::size_t>(session.numEndpoints()));
  std::iota(all.begin(), all.end(), std::int64_t{0});
  const auto expectCold = [&](const netlist::Netlist& nl, const char* what) {
    serve::EngineConfig config;
    config.batching = false;
    serve::PredictionEngine cold(config);
    cold.addBundleFromDir(bundleDir());
    cold.loadDesign("cold", nl, f.node, f.placement);
    expectBitwiseEqual(f.engine.predictEndpoints("wi", all),
                       cold.predictEndpoints("cold", all), what);
    expectBitwiseEqual(f.engine.predictDesign("wi"),
                       cold.predictDesign("cold"), what);
  };
  expectCold(session.netlist(), "baseline");

  ASSERT_TRUE(session.resizeCell(findResizable(session.netlist()), true));
  session.sync();
  ASSERT_FALSE(session.lastSync().structuralRebuild);
  expectCold(session.netlist(), "after cone update");

  session.revert();
  expectCold(session.netlist(), "after revert");
}

/// Pin the kernel tier for one scope; back to env/CPUID resolution after.
class TierGuard {
 public:
  explicit TierGuard(tensor::kernels::Tier tier) {
    tensor::kernels::forceTier(tier);
  }
  ~TierGuard() { tensor::kernels::resetTier(); }
};

/// A seeded stream of resizes, moves, buffer insertions, commits and
/// reverts. About a third of the syncs get no query, so the next re-route
/// hands its memo the base of one that was never filled. After every query
/// the session's engine must answer, endpoint by endpoint and for the full
/// design, bitwise like a fresh engine that loaded the edited netlist cold.
void expectConeFillsMatchColdLoads(std::uint64_t seed) {
  SessionFixture f;
  WhatIfSession session(f.engine, "wi", f.nl, f.node, f.placement);
  const Rect die = f.placement.dieArea;
  Rng rng(seed);
  int queries = 0;
  for (int step = 0; queries < 8 && step < 200; ++step) {
    const double kind = rng.uniform();
    const auto cells =
        static_cast<std::uint64_t>(session.netlist().numCells());
    const auto cell = static_cast<netlist::CellId>(rng.uniformInt(cells));
    if (kind < 0.45) {
      if (!session.resizeCell(cell, rng.uniform() < 0.5)) continue;
    } else if (kind < 0.65) {
      session.moveCell(
          cell, Point{static_cast<float>(rng.uniform(die.lo.x, die.hi.x)),
                      static_cast<float>(rng.uniform(die.lo.y, die.hi.y))});
    } else if (kind < 0.8) {
      ASSERT_TRUE(session.insertBuffer(findBufferable(session.netlist()))
                      .inserted);
    } else if (kind < 0.9) {
      session.commit();
    } else {
      session.revert();
    }
    if (rng.uniform() < 0.35) {
      session.sync();
      continue;
    }
    const std::string what =
        "seed " + std::to_string(seed) + " step " + std::to_string(step);
    const std::vector<float> endpoints = session.predictAll();
    const std::vector<float> full = f.engine.predictDesign("wi");
    serve::EngineConfig config;
    config.batching = false;
    serve::PredictionEngine cold(config);
    cold.addBundleFromDir(bundleDir());
    cold.loadDesign("cold", session.netlist(), f.node, f.placement);
    std::vector<std::int64_t> all(
        static_cast<std::size_t>(session.numEndpoints()));
    std::iota(all.begin(), all.end(), std::int64_t{0});
    expectBitwiseEqual(endpoints, cold.predictEndpoints("cold", all),
                       what.c_str());
    expectBitwiseEqual(full, cold.predictDesign("cold"), what.c_str());
    ++queries;
  }
  ASSERT_EQ(queries, 8);
  // Not vacuous: some fills were cone fills, which compute fewer rows than
  // a full sweep of the (largest) design would.
  const serve::MetricsSnapshot snap = f.engine.metrics();
  EXPECT_LT(snap.graphMemoRowsComputed,
            snap.graphMemoFills *
                static_cast<std::uint64_t>(session.netlist().numPins()));
}

TEST(WhatIfSession, ConeFilledMemosMatchColdLoadsAtEveryTier) {
  {
    TierGuard scalar(tensor::kernels::Tier::kScalar);
    expectConeFillsMatchColdLoads(0xc0e1ULL);
  }
  expectConeFillsMatchColdLoads(0xc0e1ULL);
}

/// Pins whose pin-feature rows differ bitwise between two snapshots,
/// comparing every row both hold (PinFeatures::changedRows skips shared
/// blocks).
std::vector<netlist::PinId> changedFeatureRows(
    const features::PinFeatures& before, const features::PinFeatures& after) {
  EXPECT_EQ(before.dim(), after.dim());
  const std::size_t rowBytes =
      static_cast<std::size_t>(after.dim()) * sizeof(float);
  std::vector<netlist::PinId> changed;
  const std::int64_t common = std::min(before.numPins(), after.numPins());
  for (std::int64_t pin = 0; pin < common; ++pin) {
    if (std::memcmp(before.row(pin), after.row(pin), rowBytes) != 0) {
      changed.push_back(static_cast<netlist::PinId>(pin));
    }
  }
  return changed;
}

/// Size of the set of pins reachable from `seeds` (seeds included) along
/// the graph's net and cell edges: a breadth-first search over a pin
/// adjacency list, not the level sweep the GNN uses.
std::int64_t fanoutClosure(const features::PinGraph& graph,
                           const std::vector<netlist::PinId>& seeds) {
  std::vector<std::vector<netlist::PinId>> fanout(
      static_cast<std::size_t>(graph.numPins()));
  for (std::int32_t level = 0; level < graph.numLevels(); ++level) {
    const auto& pins = graph.pinsAtLevel(level);
    for (const features::LevelEdges* edges :
         {&graph.netEdgesInto(level), &graph.cellEdgesInto(level)}) {
      for (std::size_t e = 0; e < edges->size(); ++e) {
        const auto [srcLevel, srcRow] = edges->src[e];
        const netlist::PinId src =
            graph.pinsAtLevel(srcLevel)[static_cast<std::size_t>(srcRow)];
        fanout[static_cast<std::size_t>(src)].push_back(
            pins[static_cast<std::size_t>(edges->dstLocal[e])]);
      }
    }
  }
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(graph.numPins()),
                                 0);
  std::vector<netlist::PinId> frontier;
  for (const netlist::PinId p : seeds) {
    if (seen[static_cast<std::size_t>(p)]++ == 0) frontier.push_back(p);
  }
  std::int64_t reached = 0;
  while (!frontier.empty()) {
    const netlist::PinId p = frontier.back();
    frontier.pop_back();
    ++reached;
    for (const netlist::PinId q : fanout[static_cast<std::size_t>(p)]) {
      if (seen[static_cast<std::size_t>(q)]++ == 0) frontier.push_back(q);
    }
  }
  return reached;
}

TEST(WhatIfSession, RowsComputedCountTheDirtyFanoutCone) {
  SessionFixture f;
  WhatIfSession session(f.engine, "wi", f.nl, f.node, f.placement);
  const auto before = f.engine.currentSnapshot("wi");
  const std::int64_t numPins = before->data.graph->numPins();
  // The load-time warm-up swept every pin.
  const serve::MetricsSnapshot loaded = f.engine.metrics();
  EXPECT_EQ(loaded.graphMemoFills, 1u);
  EXPECT_EQ(loaded.graphMemoRowsComputed, static_cast<std::uint64_t>(numPins));

  ASSERT_TRUE(session.resizeCell(findResizable(session.netlist()), true));
  session.predict({0});
  const auto after = f.engine.currentSnapshot("wi");
  ASSERT_EQ(after->data.graph, before->data.graph);
  const std::int64_t cone = fanoutClosure(
      *after->data.graph,
      changedFeatureRows(before->data.pinFeatures, after->data.pinFeatures));
  const serve::MetricsSnapshot resized = f.engine.metrics();
  EXPECT_EQ(resized.graphMemoFills, loaded.graphMemoFills + 1);
  EXPECT_EQ(resized.graphMemoRowsComputed - loaded.graphMemoRowsComputed,
            static_cast<std::uint64_t>(cone));
  EXPECT_GT(cone, 0);
  EXPECT_LT(cone, numPins);

  // A buffer insertion builds a new pin graph. The fill recomputes at
  // least the fanout cone of the changed rows, the new pins and the
  // rewired sinks (plus any level whose edge kinds changed), not every pin.
  const netlist::NetId toBuffer = findBufferable(session.netlist());
  const sta::BufferInsertion buffer = session.insertBuffer(toBuffer);
  ASSERT_TRUE(buffer.inserted);
  session.predict({0});
  const auto buffered = f.engine.currentSnapshot("wi");
  ASSERT_NE(buffered->data.graph, after->data.graph);
  std::vector<netlist::PinId> seeds =
      changedFeatureRows(after->data.pinFeatures, buffered->data.pinFeatures);
  for (netlist::PinId p = static_cast<netlist::PinId>(numPins);
       p < session.netlist().numPins(); ++p) {
    seeds.push_back(p);
  }
  const auto& rewired = session.netlist().net(buffer.bufNet).sinks;
  seeds.insert(seeds.end(), rewired.begin(), rewired.end());
  const std::uint64_t bufferCone =
      static_cast<std::uint64_t>(fanoutClosure(*buffered->data.graph, seeds));
  const serve::MetricsSnapshot bufferedMetrics = f.engine.metrics();
  EXPECT_EQ(bufferedMetrics.graphMemoFills, resized.graphMemoFills + 1);
  const std::uint64_t bufferRows = bufferedMetrics.graphMemoRowsComputed -
                                   resized.graphMemoRowsComputed;
  EXPECT_GE(bufferRows, bufferCone);
  EXPECT_LT(bufferRows,
            static_cast<std::uint64_t>(session.netlist().numPins()));
  const std::string json = bufferedMetrics.toJson().dump();
  EXPECT_NE(json.find("\"graph_memo_rows_computed\""), std::string::npos);
}

TEST(WhatIfSession, ResizeSyncSharesWhatItDidNotRewrite) {
  // A resize sync shares with its predecessor the pin graph, the paths,
  // the RUDY and macro channels and every pin-feature block without a
  // rewritten row. The rewritten rows are the resized cell's pins, the
  // drivers and sinks of their nets, and the pins whose timing changed.
  SessionFixture f;
  WhatIfSession session(f.engine, "wi", f.nl, f.node, f.placement);
  const auto before = f.engine.currentSnapshot("wi");
  const sta::TimingResult timingBefore = session.timing();
  const netlist::CellId cell = findResizable(session.netlist());
  ASSERT_TRUE(session.resizeCell(cell, /*up=*/true));
  session.sync();
  ASSERT_FALSE(session.lastSync().structuralRebuild);
  const auto after = f.engine.currentSnapshot("wi");
  ASSERT_NE(after.get(), before.get());

  EXPECT_EQ(after->data.graph, before->data.graph);
  EXPECT_EQ(after->data.pathsPtr, before->data.pathsPtr);
  EXPECT_NE(&after->data.maps->channel(0), &before->data.maps->channel(0));
  EXPECT_EQ(&after->data.maps->channel(1), &before->data.maps->channel(1));
  EXPECT_EQ(&after->data.maps->channel(2), &before->data.maps->channel(2));
  // Served snapshots keep no netlist.
  EXPECT_EQ(before->data.netlist.numPins(), 0);
  EXPECT_EQ(after->data.netlist.numPins(), 0);

  const netlist::Netlist& nl = session.netlist();
  std::vector<std::uint8_t> rewritten(static_cast<std::size_t>(nl.numPins()),
                                      0);
  std::vector<netlist::PinId> cellPins = nl.cell(cell).inputPins;
  cellPins.push_back(nl.cell(cell).outputPin);
  for (const netlist::PinId p : cellPins) {
    rewritten[static_cast<std::size_t>(p)] = 1;
    const netlist::Net& net = nl.net(nl.pin(p).net);
    rewritten[static_cast<std::size_t>(net.driver)] = 1;
    for (const netlist::PinId sink : net.sinks) {
      rewritten[static_cast<std::size_t>(sink)] = 1;
    }
  }
  const sta::TimingResult& timingAfter = session.timing();
  for (std::size_t p = 0; p < rewritten.size(); ++p) {
    if (std::memcmp(&timingBefore.arrival[p], &timingAfter.arrival[p],
                    sizeof(float)) != 0 ||
        std::memcmp(&timingBefore.slew[p], &timingAfter.slew[p],
                    sizeof(float)) != 0) {
      rewritten[p] = 1;
    }
  }
  const features::PinFeatures& was = before->data.pinFeatures;
  const features::PinFeatures& now = after->data.pinFeatures;
  constexpr std::int64_t kRows = features::PinFeatures::kRowsPerBlock;
  std::int64_t cloned = 0;
  for (std::int64_t b = 0; b < now.numBlocks(); ++b) {
    const std::int64_t first = b * kRows;
    const std::int64_t last = std::min(first + kRows, now.numPins());
    const bool holdsRewritten =
        std::any_of(rewritten.begin() + first, rewritten.begin() + last,
                    [](std::uint8_t r) { return r != 0; });
    const bool shared = now.block(b).data() == was.block(b).data();
    EXPECT_EQ(shared, !holdsRewritten) << "block " << b;
    cloned += shared ? 0 : 1;
  }
  EXPECT_GT(cloned, 0);
  EXPECT_LT(cloned, now.numBlocks());
}

TEST(WhatIfSession, BufferSyncSharesWhatItDidNotRewire) {
  // A buffer sync appends the buffer's pins and rebuilds the pin graph and
  // the layout maps, but shares with its predecessor every pin-feature
  // block without a rewritten row and carries every cone that holds no
  // moved sink. The rewritten rows are the buffer's pins, the drivers and
  // sinks of both nets, and the pins whose timing changed.
  SessionFixture f;
  WhatIfSession session(f.engine, "wi", f.nl, f.node, f.placement);
  const auto before = f.engine.currentSnapshot("wi");
  const sta::TimingResult timingBefore = session.timing();
  const std::int64_t priorPins = session.netlist().numPins();
  const std::uint64_t rowsBefore = f.engine.metrics().graphMemoRowsComputed;
  const sta::BufferInsertion buffer =
      session.insertBuffer(findBufferable(session.netlist()));
  ASSERT_TRUE(buffer.inserted);
  session.sync();
  EXPECT_FALSE(session.lastSync().structuralRebuild);
  const auto after = f.engine.currentSnapshot("wi");
  const netlist::Netlist& nl = session.netlist();
  ASSERT_GT(nl.numPins(), priorPins);
  ASSERT_EQ(after->data.graph->numPins(), nl.numPins());

  std::vector<std::uint8_t> rewritten(static_cast<std::size_t>(nl.numPins()),
                                      0);
  std::vector<netlist::PinId> cellPins = nl.cell(buffer.buffer).inputPins;
  cellPins.push_back(nl.cell(buffer.buffer).outputPin);
  for (const netlist::PinId p : cellPins) {
    const netlist::Net& net = nl.net(nl.pin(p).net);
    rewritten[static_cast<std::size_t>(net.driver)] = 1;
    for (const netlist::PinId sink : net.sinks) {
      rewritten[static_cast<std::size_t>(sink)] = 1;
    }
  }
  const sta::TimingResult& timingAfter = session.timing();
  for (std::size_t p = 0; p < rewritten.size(); ++p) {
    if (static_cast<std::int64_t>(p) >= priorPins ||
        std::memcmp(&timingBefore.arrival[p], &timingAfter.arrival[p],
                    sizeof(float)) != 0 ||
        std::memcmp(&timingBefore.slew[p], &timingAfter.slew[p],
                    sizeof(float)) != 0) {
      rewritten[p] = 1;
    }
  }
  const features::PinFeatures& was = before->data.pinFeatures;
  const features::PinFeatures& now = after->data.pinFeatures;
  ASSERT_EQ(now.numPins(), nl.numPins());
  constexpr std::int64_t kRows = features::PinFeatures::kRowsPerBlock;
  std::int64_t shared = 0;
  for (std::int64_t b = 0; b < was.numBlocks(); ++b) {
    const std::int64_t first = b * kRows;
    const std::int64_t last = std::min(first + kRows, priorPins);
    const bool holdsRewritten =
        std::any_of(rewritten.begin() + first, rewritten.begin() + last,
                    [](std::uint8_t r) { return r != 0; });
    const bool same = now.block(b).data() == was.block(b).data();
    // A partial last block grows into a longer copy.
    EXPECT_EQ(same, last - first == kRows && !holdsRewritten) << "block " << b;
    shared += same ? 1 : 0;
  }
  EXPECT_GT(shared, 0);

  // Every cone equals a fresh extraction; the ones without a moved sink
  // are the prior snapshot's, and only the others were walked.
  const std::vector<netlist::PinId>& moved = nl.net(buffer.bufNet).sinks;
  const place::LayoutMaps maps(nl, f.placement, dataConfig().imageResolution);
  const std::vector<features::TimingPath> fresh =
      features::PathExtractor::extract(nl, &maps);
  ASSERT_EQ(after->data.paths().size(), fresh.size());
  std::int64_t holdingMoved = 0;
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    const features::TimingPath& old = before->data.paths()[i];
    const features::TimingPath& got = after->data.paths()[i];
    ASSERT_EQ(got.conePins, fresh[i].conePins) << "path " << i;
    ASSERT_EQ(got.maskBins, fresh[i].maskBins) << "path " << i;
    const bool holds = std::any_of(moved.begin(), moved.end(), [&](auto p) {
      return std::binary_search(old.conePins.begin(), old.conePins.end(), p);
    });
    holdingMoved += holds ? 1 : 0;
    if (!holds) {
      EXPECT_EQ(got.conePins, old.conePins) << "path " << i;
    }
  }
  EXPECT_EQ(session.lastSync().conesWalked, holdingMoved);
  EXPECT_GT(holdingMoved, 0);
  EXPECT_LT(holdingMoved, static_cast<std::int64_t>(fresh.size()));

  // The query's memo fill recomputes part of the design, and no update
  // built cold.
  (void)session.predict({0});
  const serve::MetricsSnapshot snap = session.metrics();
  EXPECT_GT(snap.graphMemoRowsComputed, rowsBefore);
  EXPECT_LT(snap.graphMemoRowsComputed - rowsBefore,
            static_cast<std::uint64_t>(nl.numPins()));
  EXPECT_EQ(snap.coneStructuralRebuilds, 0u);
}

TEST(WhatIfSession, MovedConesRemaskLikeAFreshExtraction) {
  // A move keeps every cone's pins and recomputes the mask bins of the
  // cones it touched; each path must equal a fresh extraction on the moved
  // netlist, over maps built here from scratch.
  SessionFixture f;
  WhatIfSession session(f.engine, "wi", f.nl, f.node, f.placement);
  const auto loaded = f.engine.currentSnapshot("wi");
  const Rect die = f.placement.dieArea;
  Rng rng(0x3a5c);
  for (int m = 0; m < 6; ++m) {
    const auto cell = static_cast<netlist::CellId>(rng.uniformInt(
        static_cast<std::uint64_t>(session.netlist().numCells())));
    session.moveCell(
        cell, Point{static_cast<float>(rng.uniform(die.lo.x, die.hi.x)),
                    static_cast<float>(rng.uniform(die.lo.y, die.hi.y))});
    if (m % 2 == 1) session.sync();  // each sync carries two moves
  }
  const auto moved = f.engine.currentSnapshot("wi");
  const place::LayoutMaps maps(session.netlist(), f.placement,
                               dataConfig().imageResolution);
  const std::vector<netlist::PinId> endpoints = session.netlist().endpoints();
  ASSERT_EQ(moved->data.paths().size(), endpoints.size());
  int remasked = 0;
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    const features::TimingPath want = features::PathExtractor::extract(
        session.netlist(), &maps, {&endpoints[i], 1})[0];
    const features::TimingPath& got = moved->data.paths()[i];
    ASSERT_EQ(got.endpoint, want.endpoint) << "path " << i;
    ASSERT_EQ(got.conePins, want.conePins) << "path " << i;
    ASSERT_EQ(got.maskBins, want.maskBins) << "path " << i;
    remasked += got.maskBins != loaded->data.paths()[i].maskBins ? 1 : 0;
  }
  EXPECT_GT(remasked, 0);
}

TEST(WhatIfSession, ResizeAndMoveEditsCompileNoPrograms) {
  // Once the load's sweep and a first answered edit have compiled the
  // programs a query needs (the path programs are keyed by the fixed query
  // width; the GNN runs outside programs), cone fills of any size compile
  // nothing more.
  SessionFixture f;
  WhatIfSession session(f.engine, "wi", f.nl, f.node, f.placement);
  Rng rng(29);
  const auto drawQuery = [&] {
    std::set<std::int64_t> distinct;
    while (distinct.size() < 8) {
      distinct.insert(rng.uniformInt(0, session.numEndpoints() - 1));
    }
    return std::vector<std::int64_t>(distinct.begin(), distinct.end());
  };
  const Rect& die = f.placement.dieArea;
  const auto edit = [&](int i) {
    const auto cells =
        static_cast<std::uint64_t>(session.netlist().numCells());
    const auto cell = static_cast<netlist::CellId>(rng.uniformInt(cells));
    if (i % 4 != 3) return session.resizeCell(cell, rng.uniform() < 0.5);
    const Point to{static_cast<float>(rng.uniform(die.lo.x, die.hi.x)),
                   static_cast<float>(rng.uniform(die.lo.y, die.hi.y))};
    session.moveCell(cell, to);
    return true;
  };
  ASSERT_TRUE(session.resizeCell(findResizable(session.netlist()), true));
  (void)session.predict(drawQuery());

  const std::uint64_t compiledBefore =
      tensor::expr::stats().programsCompiled;
  const std::uint64_t fillsBefore = f.engine.metrics().graphMemoFills;
  int edits = 0;
  for (int i = 0; edits < 30 && i < 300; ++i) {
    if (!edit(i)) continue;
    (void)session.predict(drawQuery());
    ++edits;
  }
  ASSERT_EQ(edits, 30);
  EXPECT_EQ(f.engine.metrics().graphMemoFills - fillsBefore, 30u)
      << "every edit's query fills a memo";
  EXPECT_EQ(tensor::expr::stats().programsCompiled - compiledBefore, 0u);
}

// -- Rejected edits ----------------------------------------------------------

TEST(WhatIfSession, MoveOffTheDieFailsAndLeavesPredictionsUnchanged) {
  SessionFixture f;
  WhatIfSession session(f.engine, "wi", f.nl, f.node, f.placement);
  const std::vector<float> baseline = session.predictAll();
  const Rect die = f.placement.dieArea;
  const netlist::CellId cell = findResizable(session.netlist());
  ASSERT_NE(cell, netlist::kInvalidId);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const Point to : {Point{1e30f, 0.0f}, Point{nan, die.lo.y},
                         Point{die.lo.x, nan},
                         Point{std::nextafter(die.hi.x, inf), die.hi.y},
                         Point{die.lo.x, std::nextafter(die.lo.y, -inf)}}) {
    EXPECT_THROW(session.moveCell(cell, to), CheckError)
        << "(" << to.x << ", " << to.y << ")";
  }
  // Through the edit script the command fails and the session goes on.
  const CommandOutcome outcome =
      runCommand(session, "move " + std::to_string(cell) + " 1e30 0");
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.message.find("outside the die"), std::string::npos)
      << outcome.message;
  EXPECT_EQ(session.edits(), 0u);
  expectBitwiseEqual(session.predictAll(), baseline, "after rejected moves");

  // The die boundary counts as inside.
  EXPECT_NO_THROW(session.moveCell(cell, die.hi));
}

// -- Metrics and tracing surface ---------------------------------------------

TEST(WhatIfSession, MetricsExposeEditAndConeCounters) {
  SessionFixture f;
  obs::TraceRegistry::global().setEnabled(true);
  WhatIfSession session(f.engine, "wi", f.nl, f.node, f.placement);

  ASSERT_TRUE(session.resizeCell(findResizable(session.netlist()), true));
  session.predict({0, 1});
  session.moveCell(findResizable(session.netlist(), 2),
                   Point{f.placement.dieArea.hi.x, f.placement.dieArea.hi.y});
  session.predict({2});

  const serve::MetricsSnapshot snap = session.metrics();
  EXPECT_EQ(snap.whatifEdits, 2u);
  EXPECT_EQ(snap.whatifRepredicts, 2u);
  EXPECT_GE(snap.coneUpdates, 2u);
  EXPECT_EQ(snap.coneStructuralRebuilds, 0u);
  EXPECT_GT(snap.staIncrementalUpdates, 0u);
  EXPECT_GE(snap.staPinsVisitedTotal, snap.staPinsVisitedLast);
  std::uint64_t histTotal = 0;
  for (const std::uint64_t bucket : snap.staConeHist) histTotal += bucket;
  EXPECT_EQ(histTotal, snap.staIncrementalUpdates);

  // With tracing on, the snapshot carries whatif/ and sta/ span aggregates.
  bool sawEdit = false, sawSync = false;
  for (const auto& span : snap.traceSpans) {
    sawEdit = sawEdit || span.name == "whatif/edit";
    sawSync = sawSync || span.name == "whatif/sync";
  }
  EXPECT_TRUE(sawEdit);
  EXPECT_TRUE(sawSync);
  obs::TraceRegistry::global().setEnabled(false);
}

// -- Reader/writer stress (ThreadSanitizer target) ---------------------------

TEST(WhatIfConcurrency, ReadersPredictWhileSessionEdits) {
  SessionFixture f("or1200", /*batching=*/true);
  WhatIfSession session(f.engine, "wi", f.nl, f.node, f.placement);
  const std::int64_t numEndpoints = session.numEndpoints();
  ASSERT_GT(numEndpoints, 8);

  // Readers hammer the engine (snapshot lookups + lazy masked-image fills
  // + request coalescing) while the session swaps snapshots under them.
  // In-flight queries finish against whichever snapshot they grabbed; the
  // assertion here is coarse (finiteness) — TSan judges the interleaving.
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(0xbeef0000ULL + static_cast<std::uint64_t>(r));
      while (!stop.load(std::memory_order_acquire)) {
        std::vector<std::int64_t> query(4);
        for (auto& e : query) {
          e = static_cast<std::int64_t>(
              rng.uniformInt(static_cast<std::uint64_t>(numEndpoints)));
        }
        for (const float v : f.engine.predictEndpoints("wi", query)) {
          if (!std::isfinite(v)) failed.store(true);
        }
      }
    });
  }

  Rng rng(0xec0ULL);
  const Rect die = f.placement.dieArea;
  for (int edit = 0; edit < 7; ++edit) {
    if (edit == 6) {
      // A buffer insertion: the cone update grows the pin graph and the
      // pin features under the readers.
      if (!session.insertBuffer(findBufferable(session.netlist())).inserted) {
        failed.store(true);
      }
    } else if (edit % 3 == 2) {
      session.moveCell(
          static_cast<netlist::CellId>(rng.uniformInt(
              static_cast<std::uint64_t>(session.netlist().numCells()))),
          Point{static_cast<float>(rng.uniform(die.lo.x, die.hi.x)),
                static_cast<float>(rng.uniform(die.lo.y, die.hi.y))});
    } else {
      const netlist::CellId cell = findResizable(session.netlist(), edit);
      if (cell == netlist::kInvalidId) continue;
      session.resizeCell(cell, edit % 2 == 0);
    }
    for (const float v : session.predict({0, 1, 2})) {
      if (!std::isfinite(v)) failed.store(true);
    }
  }

  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed.load());
}

}  // namespace
}  // namespace dagt::whatif
