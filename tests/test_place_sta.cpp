#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.hpp"
#include "designgen/design_suite.hpp"
#include "place/layout_maps.hpp"
#include "place/placer.hpp"
#include "sta/netlist_edits.hpp"
#include "sta/sta_engine.hpp"
#include "sta/timing_optimizer.hpp"

namespace dagt {
namespace {

using designgen::DesignSuite;
using netlist::CellLibrary;
using netlist::Netlist;
using netlist::PinId;
using netlist::TechNode;

/// Shared fixture: one placed mid-sized 7nm design.
struct PlacedDesign {
  CellLibrary lib;
  Netlist nl;
  place::PlacementResult placement;

  explicit PlacedDesign(const std::string& name = "arm9", float scale = 0.4f,
                        TechNode node = TechNode::k7nm)
      : lib(CellLibrary::makeNode(node)),
        nl([&] {
          const DesignSuite suite(scale);
          return suite.buildNetlist(suite.entry(name), lib);
        }()) {
    placement = place::Placer::place(nl);
  }
};

TEST(Placer, AllCellsInsideDieAndOutsideMacros) {
  PlacedDesign d("or1200", 0.3f);
  for (netlist::CellId c = 0; c < d.nl.numCells(); ++c) {
    const Point loc = d.nl.cell(c).location;
    EXPECT_TRUE(d.placement.dieArea.contains(loc));
    for (const Rect& m : d.placement.macros) {
      EXPECT_FALSE(m.contains(loc)) << "cell " << c << " inside macro";
    }
  }
}

TEST(Placer, CellsOccupyDistinctSites) {
  PlacedDesign d("arm9", 0.4f);
  std::set<std::pair<float, float>> seen;
  for (netlist::CellId c = 0; c < d.nl.numCells(); ++c) {
    const Point loc = d.nl.cell(c).location;
    EXPECT_TRUE(seen.insert({loc.x, loc.y}).second)
        << "overlapping cells at (" << loc.x << "," << loc.y << ")";
  }
}

TEST(Placer, AnnealingImprovesHpwl) {
  PlacedDesign d("or1200", 0.3f);
  EXPECT_LT(d.placement.finalHpwl, d.placement.initialHpwl);
  EXPECT_GT(d.placement.finalHpwl, 0.0f);
}

TEST(Placer, PortsSitOnDieBoundary) {
  PlacedDesign d;
  for (const PinId pi : d.nl.primaryInputs()) {
    EXPECT_FLOAT_EQ(d.nl.pinLocation(pi).x, d.placement.dieArea.lo.x);
  }
  for (const PinId po : d.nl.primaryOutputs()) {
    EXPECT_FLOAT_EQ(d.nl.pinLocation(po).x, d.placement.dieArea.hi.x);
  }
}

TEST(LayoutMaps, ChannelsAreBoundedAndNonTrivial) {
  PlacedDesign d("or1200", 0.3f);
  const place::LayoutMaps maps(d.nl, d.placement, 32);
  ASSERT_EQ(place::LayoutMaps::kNumChannels, 3);
  for (std::int32_t c = 0; c < place::LayoutMaps::kNumChannels; ++c) {
    ASSERT_EQ(maps.channel(c).size(), 32u * 32);
  }
  float densitySum = 0.0f, rudySum = 0.0f, macroSum = 0.0f;
  for (std::int32_t gy = 0; gy < 32; ++gy) {
    for (std::int32_t gx = 0; gx < 32; ++gx) {
      EXPECT_GE(maps.cellDensityAt(gx, gy), 0.0f);
      EXPECT_LE(maps.cellDensityAt(gx, gy), 1.0f);
      EXPECT_GE(maps.rudyAt(gx, gy), 0.0f);
      EXPECT_LE(maps.rudyAt(gx, gy), 1.5f);
      densitySum += maps.cellDensityAt(gx, gy);
      rudySum += maps.rudyAt(gx, gy);
      macroSum += maps.macroAt(gx, gy);
    }
  }
  EXPECT_GT(densitySum, 0.0f);
  EXPECT_GT(rudySum, 0.0f);
  EXPECT_GT(macroSum, 0.0f);  // macros exist for designs this size
}

TEST(LayoutMaps, DensityUpdateAfterResizesEqualsAColdBuild) {
  // Maps built from their predecessor's after each batch of seeded resizes
  // share its RUDY and macro planes and must equal a cold build bitwise.
  PlacedDesign d("or1200", 0.3f);
  Rng rng(0x1a40);
  for (const std::int32_t res : {16, 32}) {
    Netlist nl = d.nl;
    const place::LayoutMaps first(nl, d.placement, res);
    place::LayoutMaps maps = first;
    bool densityMoved = false;
    for (int step = 0; step < 6; ++step) {
      for (int resized = 0; resized < 4;) {
        const auto cell = static_cast<netlist::CellId>(
            rng.uniformInt(static_cast<std::uint64_t>(nl.numCells())));
        const netlist::CellTypeId variant =
            rng.uniform() < 0.5 ? sta::upsizedVariant(nl, cell)
                                : sta::downsizedVariant(nl, cell);
        if (variant == netlist::kInvalidCellType) continue;
        nl.resizeCell(cell, variant);
        ++resized;
      }
      const place::LayoutMaps updated(maps, nl);
      const place::LayoutMaps cold(nl, d.placement, res);
      for (std::int32_t c = 0; c < place::LayoutMaps::kNumChannels; ++c) {
        ASSERT_EQ(updated.channel(c).size(), cold.channel(c).size());
        ASSERT_EQ(std::memcmp(updated.channel(c).data(),
                              cold.channel(c).data(),
                              cold.channel(c).size() * sizeof(float)),
                  0)
            << "resolution " << res << " step " << step << " channel " << c;
      }
      EXPECT_EQ(&updated.channel(1), &maps.channel(1));
      EXPECT_EQ(&updated.channel(2), &maps.channel(2));
      densityMoved = densityMoved || updated.channel(0) != first.channel(0);
      maps = updated;
    }
    EXPECT_TRUE(densityMoved) << "resolution " << res;
  }
}

TEST(LayoutMaps, MacroChannelMatchesMacroRects) {
  PlacedDesign d("or1200", 0.3f);
  const place::LayoutMaps maps(d.nl, d.placement, 32);
  ASSERT_FALSE(d.placement.macros.empty());
  const Rect& m = d.placement.macros.front();
  const Point center{(m.lo.x + m.hi.x) / 2, (m.lo.y + m.hi.y) / 2};
  const auto [gx, gy] = maps.binOf(center);
  EXPECT_FLOAT_EQ(maps.macroAt(gx, gy), 1.0f);
}

TEST(Sta, ArrivalIsMonotoneAlongTimingEdges) {
  PlacedDesign d;
  const auto timing =
      sta::StaEngine::run(d.nl, nullptr, sta::RouteConfig{});
  for (PinId p = 0; p < d.nl.numPins(); ++p) {
    for (const PinId f : d.nl.timingFanin(p)) {
      EXPECT_GE(timing.arrival[static_cast<std::size_t>(p)],
                timing.arrival[static_cast<std::size_t>(f)])
          << "pin " << p << " earlier than its fanin " << f;
    }
  }
}

TEST(Sta, EndpointArrivalsArePositiveAndWorstMatches) {
  PlacedDesign d;
  const auto timing = sta::StaEngine::run(d.nl, nullptr, sta::RouteConfig{});
  const auto arrivals = timing.endpointArrivals(d.nl);
  ASSERT_EQ(arrivals.size(), d.nl.endpoints().size());
  float worst = 0.0f;
  for (const float a : arrivals) {
    EXPECT_GT(a, 0.0f);
    worst = std::max(worst, a);
  }
  EXPECT_FLOAT_EQ(worst, timing.worstArrival);
}

TEST(Sta, RoutedModelIsSlowerThanPreRouting) {
  PlacedDesign d;
  const place::LayoutMaps maps(d.nl, d.placement, 32);
  const auto pre = sta::StaEngine::run(d.nl, nullptr, sta::RouteConfig{});
  const auto routed = sta::StaEngine::run(
      d.nl, &maps,
      sta::RouteConfig{sta::WireModel::kRouted, 0.6f, 0.12f});
  EXPECT_GT(routed.worstArrival, pre.worstArrival);
}

TEST(Sta, NodeScaleGapShowsInArrivalTimes) {
  // Same functionality scale on both nodes: 130nm arrivals must sit about
  // an order of magnitude above 7nm (paper Figure 6).
  PlacedDesign seven("arm9", 0.3f, TechNode::k7nm);
  PlacedDesign mature("linkruncca", 0.3f, TechNode::k130nm);
  const auto t7 = sta::StaEngine::run(seven.nl, nullptr, sta::RouteConfig{});
  const auto t130 =
      sta::StaEngine::run(mature.nl, nullptr, sta::RouteConfig{});
  EXPECT_GT(t130.worstArrival / t7.worstArrival, 4.0f);
}

TEST(Sta, DriverLoadIncludesSinkPinCaps) {
  PlacedDesign d;
  const auto timing = sta::StaEngine::run(d.nl, nullptr, sta::RouteConfig{});
  for (netlist::NetId n = 0; n < d.nl.numNets(); ++n) {
    const auto& net = d.nl.net(n);
    float minLoad = 0.0f;
    for (const PinId sink : net.sinks) {
      const auto& sp = d.nl.pin(sink);
      if (sp.kind == netlist::PinKind::kCellInput) {
        minLoad += d.nl.cellTypeOf(sp.cell).inputCap;
      }
    }
    EXPECT_GE(timing.loadCap[static_cast<std::size_t>(net.driver)],
              minLoad - 1e-4f);
  }
}

TEST(TimingOptimizer, ImprovesWorstArrivalAndRestructures) {
  PlacedDesign d("or1200", 0.4f);
  const place::LayoutMaps maps(d.nl, d.placement, 32);
  const auto before = d.nl.stats();
  const auto report = sta::TimingOptimizer::optimize(d.nl, maps);
  EXPECT_LE(report.worstArrivalAfter, report.worstArrivalBefore);
  EXPECT_GT(report.cellsResized, 0);
  const auto after = d.nl.stats();
  if (report.buffersInserted > 0) {
    EXPECT_GT(after.numPins, before.numPins);
  }
  EXPECT_NO_THROW(d.nl.validate());
}

TEST(TimingOptimizer, PreservesEndpoints) {
  PlacedDesign d("or1200", 0.4f);
  const place::LayoutMaps maps(d.nl, d.placement, 32);
  const auto endpointsBefore = d.nl.endpoints();
  (void)sta::TimingOptimizer::optimize(d.nl, maps);
  const auto endpointsAfter = d.nl.endpoints();
  EXPECT_EQ(endpointsBefore, endpointsAfter);
}

}  // namespace
}  // namespace dagt
