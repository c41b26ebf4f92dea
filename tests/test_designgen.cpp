#include <gtest/gtest.h>

#include <limits>

#include "common/check.hpp"
#include "designgen/design_suite.hpp"
#include "designgen/logic_network.hpp"
#include "designgen/tech_mapper.hpp"

namespace dagt::designgen {
namespace {

using netlist::CellFunction;
using netlist::CellLibrary;
using netlist::TechNode;

DesignSpec smallSpec(DesignStyle style = DesignStyle::kCpu) {
  DesignSpec spec;
  spec.name = "unit";
  spec.seed = 5;
  spec.style = style;
  spec.numPrimaryInputs = 12;
  spec.numGates = 160;
  spec.pipelineStages = 3;
  spec.registerFraction = 0.3f;
  return spec;
}

TEST(LogicNetwork, GenerateIsDeterministic) {
  const LogicNetwork a = LogicNetwork::generate(smallSpec());
  const LogicNetwork b = LogicNetwork::generate(smallSpec());
  ASSERT_EQ(a.numNodes(), b.numNodes());
  for (SignalId i = 0; i < a.numNodes(); ++i) {
    EXPECT_EQ(a.node(i).kind, b.node(i).kind);
    EXPECT_EQ(a.node(i).function, b.node(i).function);
    EXPECT_EQ(a.node(i).fanin, b.node(i).fanin);
  }
}

TEST(LogicNetwork, DifferentSeedsDiffer) {
  DesignSpec s1 = smallSpec();
  DesignSpec s2 = smallSpec();
  s2.seed = 6;
  const LogicNetwork a = LogicNetwork::generate(s1);
  const LogicNetwork b = LogicNetwork::generate(s2);
  bool different = a.numNodes() != b.numNodes();
  if (!different) {
    for (SignalId i = 0; i < a.numNodes() && !different; ++i) {
      different = a.node(i).function != b.node(i).function ||
                  a.node(i).fanin != b.node(i).fanin;
    }
  }
  EXPECT_TRUE(different);
}

TEST(LogicNetwork, ValidatesAndHasExpectedShape) {
  const LogicNetwork net = LogicNetwork::generate(smallSpec());
  EXPECT_NO_THROW(net.validate());
  EXPECT_EQ(net.countKind(OpKind::kInput), 12);
  EXPECT_EQ(net.countKind(OpKind::kGate),
            net.numNodes() - net.countKind(OpKind::kInput) -
                net.countKind(OpKind::kRegister) -
                net.countKind(OpKind::kOutput));
  EXPECT_GE(net.countKind(OpKind::kGate), 160);  // gates + OR compaction
  EXPECT_GT(net.countKind(OpKind::kRegister), 0);
  EXPECT_GT(net.countKind(OpKind::kOutput), 0);
  EXPECT_LE(net.countKind(OpKind::kOutput), smallSpec().maxOutputs);
}

TEST(LogicNetwork, EverySignalIsConsumed) {
  const LogicNetwork net = LogicNetwork::generate(smallSpec());
  std::vector<int> fanout(static_cast<std::size_t>(net.numNodes()), 0);
  for (const auto& n : net.nodes()) {
    for (const SignalId f : n.fanin) ++fanout[static_cast<std::size_t>(f)];
  }
  for (SignalId i = 0; i < net.numNodes(); ++i) {
    if (net.node(i).kind == OpKind::kOutput) continue;
    EXPECT_GT(fanout[static_cast<std::size_t>(i)], 0)
        << "dangling signal " << i;
  }
}

TEST(LogicNetwork, LocalityBiasStretchesDepth) {
  DesignSpec deep = smallSpec(DesignStyle::kDatapath);
  deep.localityBias = 0.95f;
  DesignSpec shallow = smallSpec(DesignStyle::kDatapath);
  shallow.localityBias = 0.1f;
  const auto depthOf = [](const LogicNetwork& net) {
    std::int32_t best = 0;
    for (const std::int32_t d : net.logicDepth()) best = std::max(best, d);
    return best;
  };
  EXPECT_GT(depthOf(LogicNetwork::generate(deep)),
            depthOf(LogicNetwork::generate(shallow)));
}

TEST(TechMapper, MapsToBothNodes) {
  const LogicNetwork logic = LogicNetwork::generate(smallSpec());
  const CellLibrary lib130 = CellLibrary::makeNode(TechNode::k130nm);
  const CellLibrary lib7 = CellLibrary::makeNode(TechNode::k7nm);
  const auto nl130 = TechMapper::map(logic, lib130);
  const auto nl7 = TechMapper::map(logic, lib7);
  EXPECT_NO_THROW(nl130.validate());
  EXPECT_NO_THROW(nl7.validate());
  // Same functionality, same observable interface.
  EXPECT_EQ(nl130.primaryInputs().size(), nl7.primaryInputs().size());
  EXPECT_EQ(nl130.primaryOutputs().size(), nl7.primaryOutputs().size());
  EXPECT_EQ(nl130.endpoints().size(), nl7.endpoints().size());
}

TEST(TechMapper, AdvancedNodeDecompositionGrowsTheNetlist) {
  // The 7nm library lacks 3-input cells, so a control-style design (rich in
  // AOI/NAND3) must decompose: more cells on 7nm than on 130nm.
  const LogicNetwork logic =
      LogicNetwork::generate(smallSpec(DesignStyle::kControl));
  const CellLibrary lib130 = CellLibrary::makeNode(TechNode::k130nm);
  const CellLibrary lib7 = CellLibrary::makeNode(TechNode::k7nm);
  const auto nl130 = TechMapper::map(logic, lib130);
  const auto nl7 = TechMapper::map(logic, lib7);
  EXPECT_GT(nl7.numCells(), nl130.numCells());
}

TEST(TechMapper, ForcedDecompositionMatchesRestrictedLibrary) {
  const LogicNetwork logic =
      LogicNetwork::generate(smallSpec(DesignStyle::kControl));
  const CellLibrary lib130 = CellLibrary::makeNode(TechNode::k130nm);
  MapperOptions opts;
  opts.preferComplexGates = false;
  const auto decomposed = TechMapper::map(logic, lib130, opts);
  const auto direct = TechMapper::map(logic, lib130);
  EXPECT_GT(decomposed.numCells(), direct.numCells());
  // No 3-input combinational cell may survive forced decomposition.
  for (netlist::CellId c = 0; c < decomposed.numCells(); ++c) {
    const auto& type = decomposed.cellTypeOf(c);
    if (!type.isSequential) {
      EXPECT_LE(type.numInputs, 2);
    }
  }
}

TEST(TechMapper, HighFanoutSignalsGetStrongerCells) {
  const LogicNetwork logic = LogicNetwork::generate(smallSpec());
  const CellLibrary lib = CellLibrary::makeNode(TechNode::k7nm);
  const auto nl = TechMapper::map(logic, lib);
  bool sawUpsized = false;
  for (netlist::CellId c = 0; c < nl.numCells(); ++c) {
    const auto& cell = nl.cell(c);
    const auto& type = nl.cellTypeOf(c);
    if (type.isSequential) continue;
    const auto net = nl.pin(cell.outputPin).net;
    if (net == netlist::kInvalidId) continue;
    const auto fanout = nl.net(net).sinks.size();
    if (fanout > 5) {
      EXPECT_GE(type.driveStrength, 2) << "fanout " << fanout;
      sawUpsized = true;
    }
  }
  EXPECT_TRUE(sawUpsized) << "test design has no high-fanout nets";
}

TEST(DesignSuite, HasTheTenPaperDesigns) {
  const DesignSuite suite(0.1f);
  EXPECT_EQ(suite.entries().size(), 10u);
  EXPECT_EQ(suite.byRole(DesignRole::kTrainSource).size(), 4u);
  EXPECT_EQ(suite.byRole(DesignRole::kTrainTarget).size(), 1u);
  EXPECT_EQ(suite.byRole(DesignRole::kTest).size(), 5u);
  EXPECT_EQ(suite.entry("smallboom").node, TechNode::k7nm);
  EXPECT_EQ(suite.entry("jpeg").node, TechNode::k130nm);
  EXPECT_EQ(suite.entry("or1200").role, DesignRole::kTest);
  EXPECT_THROW(suite.entry("nonexistent"), ::dagt::CheckError);
}

TEST(DesignSuite, RelativeSizesFollowTable1) {
  const DesignSuite suite(0.1f);
  // jpeg is the largest train design; usbf_device the smallest; hwacha the
  // largest test design.
  EXPECT_GT(suite.entry("jpeg").spec.numGates,
            suite.entry("smallboom").spec.numGates);
  EXPECT_GT(suite.entry("smallboom").spec.numGates,
            suite.entry("usbf_device").spec.numGates);
  EXPECT_GT(suite.entry("hwacha").spec.numGates,
            suite.entry("or1200").spec.numGates);
  EXPECT_GT(suite.entry("or1200").spec.numGates,
            suite.entry("arm9").spec.numGates);
}

TEST(DesignSuite, RejectsAScaleThatIsNotAFiniteNumberAboveZero) {
  for (const float scale : {std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN(), -1.0f,
                            0.0f}) {
    EXPECT_THROW(DesignSuite{scale}, ::dagt::CheckError) << scale;
  }
}

TEST(DesignSuite, BuildNetlistChecksNode) {
  const DesignSuite suite(0.05f);
  const CellLibrary lib7 = CellLibrary::makeNode(TechNode::k7nm);
  const CellLibrary lib130 = CellLibrary::makeNode(TechNode::k130nm);
  EXPECT_NO_THROW(suite.buildNetlist(suite.entry("arm9"), lib7));
  EXPECT_THROW(suite.buildNetlist(suite.entry("arm9"), lib130), ::dagt::CheckError);
}

TEST(DesignSuite, RegisterRichDesignHasMoreEndpointsPerPin) {
  const DesignSuite suite(0.15f);
  const CellLibrary lib7 = CellLibrary::makeNode(TechNode::k7nm);
  const auto or1200 = suite.buildNetlist(suite.entry("or1200"), lib7);
  const auto sha3 = suite.buildNetlist(suite.entry("sha3"), lib7);
  const auto ratio = [](const netlist::Netlist& nl) {
    const auto s = nl.stats();
    return static_cast<double>(s.numEndpoints) /
           static_cast<double>(s.numPins);
  };
  EXPECT_GT(ratio(or1200), ratio(sha3));
}

}  // namespace
}  // namespace dagt::designgen
