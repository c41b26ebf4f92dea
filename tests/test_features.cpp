#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "features/design_data.hpp"
#include "features/feature_builder.hpp"
#include "features/path_extractor.hpp"
#include "features/pin_features.hpp"
#include "features/pin_graph.hpp"
#include "place/placer.hpp"
#include "sta/netlist_edits.hpp"
#include "tensor/ops.hpp"

namespace dagt::features {
namespace {

/// One shared small pipeline for the whole file (data generation is the
/// expensive part).
const DataPipeline& pipeline() {
  static DataPipeline* p = [] {
    DataConfig config;
    config.designScale = 0.25f;
    return new DataPipeline(config);
  }();
  return *p;
}

const DesignData& arm9() {
  static DesignData d = pipeline().build("arm9");
  return d;
}

const DesignData& jpeg() {
  static DesignData d = pipeline().build("jpeg");
  return d;
}

TEST(PinGraph, CoversEveryPinExactlyOnce) {
  const auto& d = arm9();
  const PinGraph& g = *d.graph;
  std::set<netlist::PinId> seen;
  for (std::int32_t lv = 0; lv < g.numLevels(); ++lv) {
    for (const netlist::PinId p : g.pinsAtLevel(lv)) {
      EXPECT_TRUE(seen.insert(p).second) << "pin " << p << " duplicated";
    }
  }
  EXPECT_EQ(static_cast<std::int64_t>(seen.size()), d.netlist.numPins());
}

TEST(PinGraph, EdgesPointBackwardOnly) {
  const PinGraph& g = *arm9().graph;
  for (std::int32_t lv = 0; lv < g.numLevels(); ++lv) {
    for (const auto& [srcLevel, srcRow] : g.netEdgesInto(lv).src) {
      EXPECT_LT(srcLevel, lv);
      EXPECT_LT(srcRow, static_cast<std::int64_t>(
                            g.pinsAtLevel(srcLevel).size()));
    }
    for (const auto& [srcLevel, srcRow] : g.cellEdgesInto(lv).src) {
      EXPECT_LT(srcLevel, lv);
    }
  }
}

TEST(PinGraph, EdgeCountsMatchNetlistStats) {
  const auto& d = arm9();
  const auto stats = d.netlist.stats();
  EXPECT_EQ(d.graph->totalNetEdges(), stats.numNetEdges);
  EXPECT_EQ(d.graph->totalCellEdges(), stats.numCellEdges);
}

TEST(PinGraph, LocateRoundTrips) {
  const auto& d = arm9();
  const PinGraph& g = *d.graph;
  for (netlist::PinId p = 0; p < d.netlist.numPins(); p += 7) {
    const auto [lv, row] = g.locate(p);
    EXPECT_EQ(g.pinsAtLevel(lv)[static_cast<std::size_t>(row)], p);
  }
}

TEST(FeatureBuilder, RowsAreOneHotAndFinite) {
  const auto& d = arm9();
  const auto& t = d.pinFeatures;
  const std::int64_t dim = t.dim();
  const std::int64_t vocabSize = pipeline().vocabulary().size();
  ASSERT_EQ(dim, FeatureBuilder::kNumericFeatures + vocabSize);
  for (std::int64_t r = 0; r < t.numPins(); ++r) {
    float onehotSum = 0.0f;
    float kindSum = 0.0f;
    for (std::int64_t c = 0; c < dim; ++c) {
      const float v = t.row(r)[c];
      EXPECT_TRUE(std::isfinite(v));
      if (c >= FeatureBuilder::kNumericFeatures) onehotSum += v;
      if (c >= 3 && c <= 6) kindSum += v;
    }
    EXPECT_FLOAT_EQ(onehotSum, 1.0f) << "row " << r;
    EXPECT_FLOAT_EQ(kindSum, 1.0f) << "row " << r;
  }
}

TEST(FeatureBuilder, NodesUseDisjointVocabularySlots) {
  // The same design area mapped to different nodes must activate different
  // one-hot slots — this is the node-dependent signal of the paper.
  const auto& d7 = arm9();
  const auto& d130 = jpeg();
  const std::int64_t base = FeatureBuilder::kNumericFeatures;
  const std::int64_t lib130Cells =
      pipeline().library(netlist::TechNode::k130nm).numCells();
  auto activeSlots = [&](const DesignData& d) {
    std::set<std::int64_t> slots;
    for (std::int64_t r = 0; r < d.pinFeatures.numPins(); ++r) {
      for (std::int64_t c = base; c < d.pinFeatures.dim(); ++c) {
        if (d.pinFeatures.row(r)[c] > 0.5f) slots.insert(c - base);
      }
    }
    return slots;
  };
  const std::int64_t portBase =
      pipeline().vocabulary().primaryInputIndex();
  for (const std::int64_t s : activeSlots(d130)) {
    if (s >= portBase) continue;  // port pseudo-gates are shared
    EXPECT_LT(s, lib130Cells);
  }
  for (const std::int64_t s : activeSlots(d7)) {
    if (s >= portBase) continue;
    EXPECT_GE(s, lib130Cells);
  }
}

TEST(PathExtractor, ConesContainEndpointAndReachStartpoints) {
  const auto& d = arm9();
  const auto endpoints = d.netlist.endpoints();
  ASSERT_EQ(d.paths().size(), endpoints.size());
  for (std::size_t i = 0; i < d.paths().size(); ++i) {
    const auto& path = d.paths()[i];
    EXPECT_EQ(path.endpoint, endpoints[i]);
    EXPECT_TRUE(std::binary_search(path.conePins.begin(),
                                   path.conePins.end(), path.endpoint));
    // Every cone pin's fanin must stay inside the cone (cone = closure).
    for (const netlist::PinId p : path.conePins) {
      for (const netlist::PinId f : d.netlist.timingFanin(p)) {
        EXPECT_TRUE(std::binary_search(path.conePins.begin(),
                                       path.conePins.end(), f))
            << "fanin " << f << " of " << p << " escapes the cone";
      }
    }
  }
}

/// The cone extraction the bitset walk replaced: a reverse DFS, then a
/// sort of the cone and a sort-unique of its bins.
TimingPath referenceCone(const netlist::Netlist& nl,
                         const place::LayoutMaps* maps,
                         netlist::PinId endpoint) {
  TimingPath path;
  path.endpoint = endpoint;
  std::vector<std::uint8_t> visited(static_cast<std::size_t>(nl.numPins()),
                                    0);
  std::vector<netlist::PinId> stack{endpoint};
  visited[static_cast<std::size_t>(endpoint)] = 1;
  while (!stack.empty()) {
    const netlist::PinId p = stack.back();
    stack.pop_back();
    path.conePins.push_back(p);
    for (const netlist::PinId f : nl.timingFanin(p)) {
      if (visited[static_cast<std::size_t>(f)] == 0) {
        visited[static_cast<std::size_t>(f)] = 1;
        stack.push_back(f);
      }
    }
  }
  std::sort(path.conePins.begin(), path.conePins.end());
  if (maps != nullptr) {
    const std::int32_t res = maps->resolution();
    for (const netlist::PinId p : path.conePins) {
      const auto [gx, gy] = maps->binOf(nl.pinLocation(p));
      path.maskBins.push_back(gy * res + gx);
    }
    std::sort(path.maskBins.begin(), path.maskBins.end());
    path.maskBins.erase(
        std::unique(path.maskBins.begin(), path.maskBins.end()),
        path.maskBins.end());
  }
  return path;
}

void expectExtractMatchesReference(const netlist::Netlist& nl,
                                   const place::PlacementResult& placement,
                                   const std::string& what) {
  const place::LayoutMaps maps(nl, placement, 32);
  const auto endpoints = nl.endpoints();
  for (const place::LayoutMaps* m :
       {static_cast<const place::LayoutMaps*>(&maps),
        static_cast<const place::LayoutMaps*>(nullptr)}) {
    const std::vector<TimingPath> got = PathExtractor::extract(nl, m);
    ASSERT_EQ(got.size(), endpoints.size()) << what;
    for (std::size_t i = 0; i < endpoints.size(); ++i) {
      const TimingPath want = referenceCone(nl, m, endpoints[i]);
      ASSERT_EQ(got[i].endpoint, want.endpoint) << what << " path " << i;
      ASSERT_EQ(got[i].conePins, want.conePins) << what << " path " << i;
      ASSERT_EQ(got[i].maskBins, want.maskBins) << what << " path " << i;
    }
    // A subset, in its own order, walks each cone alike.
    const std::vector<netlist::PinId> some(endpoints.rbegin(),
                                           endpoints.rend());
    const std::vector<TimingPath> reversed =
        PathExtractor::extract(nl, m, some);
    ASSERT_EQ(reversed.size(), some.size());
    for (std::size_t i = 0; i < some.size(); ++i) {
      const TimingPath& same = got[some.size() - 1 - i];
      ASSERT_EQ(reversed[i].conePins, same.conePins) << what;
      ASSERT_EQ(reversed[i].maskBins, same.maskBins) << what;
    }
  }
}

TEST(PathExtractor, ExtractMatchesReferenceWalk) {
  // Every suite design, with and without layout maps, before and after
  // seeded buffer insertions (new pins past the old id range, rewired
  // sinks, a new cell on the grid).
  const designgen::DesignSuite suite(0.15f);
  for (const designgen::DesignEntry& entry : suite.entries()) {
    const auto lib = netlist::CellLibrary::makeNode(entry.node);
    netlist::Netlist nl = suite.buildNetlist(entry, lib);
    place::PlacerConfig placerConfig;
    placerConfig.seed ^= entry.spec.seed;
    const place::PlacementResult placement =
        place::Placer::place(nl, placerConfig);
    expectExtractMatchesReference(nl, placement, entry.spec.name);

    Rng rng(entry.spec.seed);
    int buffers = 0;
    for (int attempt = 0; attempt < 200 && buffers < 3; ++attempt) {
      const auto net = static_cast<netlist::NetId>(
          rng.uniformInt(static_cast<std::uint64_t>(nl.numNets())));
      buffers += sta::insertFanoutBuffer(nl, net).inserted ? 1 : 0;
    }
    ASSERT_GT(buffers, 0) << entry.spec.name;
    expectExtractMatchesReference(nl, placement,
                                  entry.spec.name + " after buffers");
  }
}

TEST(PathExtractor, MaskedImageZeroOutsideFootprint) {
  const auto& d = arm9();
  const auto& path = d.paths().front();
  const auto masked = PathExtractor::maskedImage(*d.maps, path);
  const std::int32_t res = d.maps->resolution();
  ASSERT_EQ(masked.size(),
            static_cast<std::size_t>(3 * res * res));
  // Build the dilated footprint and check complement is zero.
  std::set<std::int32_t> inMask;
  for (const std::int32_t bin : path.maskBins) {
    const std::int32_t gx = bin % res;
    const std::int32_t gy = bin / res;
    for (std::int32_t dy = -1; dy <= 1; ++dy) {
      for (std::int32_t dx = -1; dx <= 1; ++dx) {
        if (gx + dx >= 0 && gx + dx < res && gy + dy >= 0 && gy + dy < res) {
          inMask.insert((gy + dy) * res + gx + dx);
        }
      }
    }
  }
  for (std::int32_t c = 0; c < 3; ++c) {
    for (std::int32_t bin = 0; bin < res * res; ++bin) {
      if (!inMask.count(bin)) {
        EXPECT_EQ(masked[static_cast<std::size_t>(c * res * res + bin)],
                  0.0f);
      }
    }
  }
}

TEST(DesignData, LabelsAlignWithEndpointsAndAreHarderThanElmore) {
  const auto& d = jpeg();
  ASSERT_EQ(d.labels.size(), d.paths().size());
  ASSERT_EQ(d.preRouteArrivals.size(), d.labels.size());
  // Sign-off (optimized but routed) arrival differs from the optimistic
  // pre-routing estimate — the gap the predictor learns.
  double signoffSum = 0.0, preSum = 0.0;
  for (std::size_t i = 0; i < d.labels.size(); ++i) {
    EXPECT_GT(d.labels[i], 0.0f);
    signoffSum += d.labels[i];
    preSum += d.preRouteArrivals[i];
  }
  EXPECT_NE(signoffSum, preSum);
}

TEST(DesignData, OptimizerActuallyRestructured) {
  const auto& d = jpeg();
  EXPECT_GT(d.optimizerReport.cellsResized, 0);
  EXPECT_LE(d.optimizerReport.worstArrivalAfter,
            d.optimizerReport.worstArrivalBefore);
}

TEST(DataPipeline, NodeGapVisibleInLabels) {
  // 130nm arrivals must sit roughly an order of magnitude above 7nm.
  const auto& d7 = arm9();
  const auto& d130 = jpeg();
  auto mean = [](const std::vector<float>& v) {
    double s = 0.0;
    for (const float x : v) s += x;
    return s / static_cast<double>(v.size());
  };
  EXPECT_GT(mean(d130.labels) / mean(d7.labels), 4.0);
}

TEST(DataPipeline, UnknownDesignThrows) {
  EXPECT_THROW(pipeline().build("nope"), CheckError);
}

TEST(DataPipeline, UnconfiguredNodeThrows) {
  // The default pipeline covers 130nm + 7nm only.
  EXPECT_THROW(pipeline().library(netlist::TechNode::k45nm), CheckError);
}

TEST(DataPipeline, ThreeNodePipelineBuildsCustomDesigns) {
  DataConfig config;
  config.designScale = 0.15f;
  config.nodes = {netlist::TechNode::k130nm, netlist::TechNode::k7nm,
                  netlist::TechNode::k45nm};
  const DataPipeline multi(config);
  // Feature width grows by the 45nm cells.
  EXPECT_GT(multi.featureDim(), pipeline().featureDim());

  designgen::DesignEntry entry = multi.suite().entry("spiMaster");
  entry.node = netlist::TechNode::k45nm;
  entry.spec.name = "spiMaster_45";
  const DesignData d45 = multi.buildCustom(entry);
  EXPECT_EQ(d45.node, netlist::TechNode::k45nm);
  EXPECT_GT(d45.numEndpoints(), 0);
  // 45nm arrivals sit between the other nodes' scales.
  const DesignData d130 = multi.build("spiMaster");
  auto mean = [](const std::vector<float>& v) {
    double s = 0.0;
    for (const float x : v) s += x;
    return s / static_cast<double>(v.size());
  };
  EXPECT_LT(mean(d45.labels), mean(d130.labels));
}

// -- Pin features as shared row blocks ---------------------------------------

constexpr std::int64_t kBlockRows = PinFeatures::kRowsPerBlock;
// Three full blocks and a partial last one.
constexpr std::int64_t kPins = 3 * kBlockRows + 29;
constexpr std::int64_t kDim = 13;

tensor::Tensor denseFeatures(std::uint64_t seed) {
  Rng rng(seed);
  return tensor::Tensor::randn({kPins, kDim}, rng);
}

bool rowEquals(const float* a, const float* b) {
  return std::memcmp(a, b, static_cast<std::size_t>(kDim) * sizeof(float)) ==
         0;
}

TEST(PinFeatures, GatherMatchesIndexSelectBitwise) {
  const tensor::Tensor dense = denseFeatures(0x9a7e);
  const PinFeatures features(dense);
  ASSERT_EQ(features.numPins(), kPins);
  ASSERT_EQ(features.numBlocks(), 4);
  EXPECT_EQ(features.block(3).dim(0), 29);
  Rng rng(0x9a7f);
  for (int trial = 0; trial < 16; ++trial) {
    std::vector<std::int64_t> index(
        static_cast<std::size_t>(rng.uniformInt(1, 300)));
    for (std::int64_t& pin : index) pin = rng.uniformInt(0, kPins - 1);
    index.push_back(kPins - 1);      // the partial block's last row
    index.push_back(index.front());  // a repeat
    const tensor::Tensor got = features.gather(index);
    const tensor::Tensor want = tensor::indexSelect0(dense, index);
    ASSERT_EQ(got.shape(), want.shape());
    ASSERT_EQ(std::memcmp(got.data(), want.data(),
                          static_cast<std::size_t>(want.numel()) *
                              sizeof(float)),
              0)
        << "trial " << trial;
  }
  EXPECT_THROW(features.gather({kPins}), CheckError);
  EXPECT_THROW(features.gather({-1}), CheckError);
}

TEST(PinFeatures, WritingACopyLeavesTheOriginalAndSharesTheRest) {
  const tensor::Tensor dense = denseFeatures(0x57a3);
  const PinFeatures original(dense);
  PinFeatures copy = original;
  const std::int64_t pin = kBlockRows + 5;  // block 1
  copy.mutableRow(pin)[2] += 1.0f;
  const float* clone = copy.block(1).data();
  copy.mutableRow(pin + 1)[0] = 7.0f;  // the clone is written in place
  EXPECT_EQ(copy.block(1).data(), clone);
  EXPECT_EQ(copy.row(pin)[2], dense.data()[pin * kDim + 2] + 1.0f);

  for (std::int64_t p = 0; p < kPins; ++p) {
    ASSERT_TRUE(rowEquals(original.row(p), dense.data() + p * kDim))
        << "original row " << p;
  }
  for (std::int64_t b = 0; b < original.numBlocks(); ++b) {
    if (b == 1) {
      EXPECT_NE(copy.block(b).data(), original.block(b).data());
    } else {
      EXPECT_EQ(copy.block(b).data(), original.block(b).data())
          << "block " << b;
    }
  }

  // A copy of the writer shares its clone, so the next write clones again
  // and the second copy keeps what it saw.
  const PinFeatures second = copy;
  copy.mutableRow(pin + 1)[0] = 8.0f;
  EXPECT_NE(copy.block(1).data(), second.block(1).data());
  EXPECT_EQ(second.row(pin + 1)[0], 7.0f);
  EXPECT_EQ(copy.row(pin + 1)[0], 8.0f);
}

TEST(PinFeatures, ChangedRowsMatchABruteForceDiff) {
  const tensor::Tensor dense = denseFeatures(0xd1ff);
  const PinFeatures base(dense);
  PinFeatures edited = base;
  Rng rng(0xd200);
  // Seeded edits outside the last block.
  for (int k = 0; k < 12; ++k) {
    const std::int64_t pin = rng.uniformInt(0, 3 * kBlockRows - 1);
    edited.mutableRow(pin)[rng.uniformInt(0, kDim - 1)] += 1.0f;
  }
  // A row rewritten to the bytes it had: its block is cloned, but the row
  // did not change.
  const std::int64_t same = kPins - 1;
  float* row = edited.mutableRow(same);
  const std::vector<float> kept(row, row + kDim);
  std::fill(row, row + kDim, 0.0f);
  std::copy(kept.begin(), kept.end(), row);
  ASSERT_NE(edited.block(3).data(), base.block(3).data());

  std::vector<netlist::PinId> brute;
  for (std::int64_t p = 0; p < kPins; ++p) {
    if (!rowEquals(edited.row(p), base.row(p))) {
      brute.push_back(static_cast<netlist::PinId>(p));
    }
  }
  ASSERT_FALSE(brute.empty());
  EXPECT_EQ(std::count(brute.begin(), brute.end(),
                       static_cast<netlist::PinId>(same)),
            0);
  EXPECT_EQ(edited.changedRows(base), brute);
  EXPECT_EQ(base.changedRows(edited), brute);
  // Equal bytes in blocks shared with nothing: no row differs.
  EXPECT_TRUE(PinFeatures(dense.clone()).changedRows(base).empty());
  EXPECT_TRUE(base.changedRows(base).empty());
}

}  // namespace
}  // namespace dagt::features
