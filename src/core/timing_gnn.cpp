#include "core/timing_gnn.hpp"

#include <algorithm>
#include <cstring>

#include "common/check.hpp"
#include "tensor/ops.hpp"

namespace dagt::core {

using tensor::Tensor;

TimingGnn::TimingGnn(std::int64_t inputDim, std::int64_t hidden, Rng& rng)
    : inputDim_(inputDim),
      hidden_(hidden),
      self_(inputDim, hidden, rng),
      netSum_(hidden, hidden, rng),
      netMax_(hidden, hidden, rng),
      cellSum_(hidden, hidden, rng),
      cellMax_(hidden, hidden, rng),
      norm_(hidden) {
  registerChild(self_);
  registerChild(netSum_);
  registerChild(netMax_);
  registerChild(cellSum_);
  registerChild(cellMax_);
  registerChild(norm_);
  levelWeights_ = {self_.weight(),    self_.bias(),    netSum_.weight(),
                   netSum_.bias(),    netMax_.weight(), netMax_.bias(),
                   cellSum_.weight(), cellSum_.bias(),  cellMax_.weight(),
                   cellMax_.bias(),   norm_.gain(),     norm_.bias(),
                   norm_.epsilon()};
}

void TimingGnn::checkInputs(const features::PinGraph& graph,
                            const features::PinFeatures& pinFeatures) const {
  DAGT_CHECK_MSG(pinFeatures.numPins() == graph.numPins(),
                 "pin feature rows " << pinFeatures.numPins() << " != pins "
                                     << graph.numPins());
  DAGT_CHECK_MSG(pinFeatures.dim() == inputDim_,
                 "pin feature dim " << pinFeatures.dim() << " != "
                                    << inputDim_);
}

Tensor TimingGnn::levelBody(const features::PinFeatures& pinFeatures,
                            const std::vector<std::int64_t>& pins,
                            const std::vector<Tensor>& earlier,
                            const features::LevelEdges* netEdges,
                            const features::LevelEdges* cellEdges) const {
  // Own features of the pins.
  const Tensor x = pinFeatures.gather(pins);

  if (tensor::expr::fusionEnabled()) {
    // The level as one op, bitwise equal to the chain below in its values
    // and in every gradient it accumulates.
    tensor::GnnLevelEdges net;
    tensor::GnnLevelEdges cell;
    if (netEdges != nullptr) net = {&netEdges->src, &netEdges->dstLocal};
    if (cellEdges != nullptr) cell = {&cellEdges->src, &cellEdges->dstLocal};
    return tensor::gnnLevel(x, earlier, netEdges != nullptr ? &net : nullptr,
                            cellEdges != nullptr ? &cell : nullptr,
                            levelWeights_);
  }
  // DAGT_FUSION=0: the autograd op chain, the reference path.
  const std::int64_t n = static_cast<std::int64_t>(pins.size());
  Tensor h = self_.forward(x);
  const auto addAggregates = [&](const features::LevelEdges* edges,
                                 const nn::Linear& meanProj,
                                 const nn::Linear& maxProj) {
    if (edges == nullptr) return;
    const Tensor sources = tensor::gatherRowsMulti(earlier, edges->src);
    // Mean aggregation: divide the segment sums by per-pin fanin counts
    // (sum aggregation compounds with depth and overflows float32 on deep
    // designs).
    std::vector<float> invCount(static_cast<std::size_t>(n), 0.0f);
    for (const std::int64_t dst : edges->dstLocal) {
      invCount[static_cast<std::size_t>(dst)] += 1.0f;
    }
    for (auto& c : invCount) c = c > 0.0f ? 1.0f / c : 0.0f;
    const Tensor aggMean = tensor::mulColVec(
        tensor::segmentSum(sources, edges->dstLocal, n),
        Tensor::fromVector({n}, std::move(invCount)));
    const Tensor aggMax = tensor::segmentMax(sources, edges->dstLocal, n);
    h = tensor::add(h, meanProj.forward(aggMean));
    h = tensor::add(h, maxProj.forward(aggMax));
  };
  addAggregates(netEdges, netSum_, netMax_);
  addAggregates(cellEdges, cellSum_, cellMax_);
  return norm_.forward(h, /*relu=*/true);
}

TimingGnn::Output TimingGnn::forward(
    const features::PinGraph& graph,
    const features::PinFeatures& pinFeatures) const {
  checkInputs(graph, pinFeatures);
  Output out;
  out.graph = &graph;
  out.levelEmbeddings.reserve(static_cast<std::size_t>(graph.numLevels()));
  // Sized once for the widest level; every level reuses it.
  std::vector<std::int64_t> pins;
  std::size_t widest = 0;
  for (std::int32_t level = 0; level < graph.numLevels(); ++level) {
    widest = std::max(widest, graph.pinsAtLevel(level).size());
  }
  pins.reserve(widest);
  for (std::int32_t level = 0; level < graph.numLevels(); ++level) {
    const auto& levelPins = graph.pinsAtLevel(level);
    pins.assign(levelPins.begin(), levelPins.end());
    const features::LevelEdges& net = graph.netEdgesInto(level);
    const features::LevelEdges& cell = graph.cellEdgesInto(level);
    out.levelEmbeddings.push_back(levelBody(
        pinFeatures, pins, out.levelEmbeddings,
        net.size() > 0 ? &net : nullptr, cell.size() > 0 ? &cell : nullptr));
  }
  return out;
}

namespace {

/// Which edge kinds enter `level`: bit 0 net, bit 1 cell. The level body
/// applies a kind's projections, biases included, to every row of a level
/// that has the kind, so a row depends on this as well as on its own edges.
int edgeKinds(const features::PinGraph& graph, std::int32_t level) {
  return (graph.netEdgesInto(level).size() > 0 ? 1 : 0) |
         (graph.cellEdgesInto(level).size() > 0 ? 2 : 0);
}

}  // namespace

TimingGnn::Output TimingGnn::forwardFrom(
    const Output& base, const features::PinFeatures& basePinFeatures,
    const features::PinGraph& graph, const features::PinFeatures& pinFeatures,
    std::int64_t* rowsComputed) const {
  checkInputs(graph, pinFeatures);
  // Rows are patched into cloned tensors behind the tape's back.
  DAGT_CHECK_MSG(!tensor::NoGradGuard::gradEnabled(),
                 "forwardFrom is inference only");
  DAGT_CHECK(base.graph != nullptr);
  const features::PinGraph& baseGraph = *base.graph;
  DAGT_CHECK(static_cast<std::int32_t>(base.levelEmbeddings.size()) ==
             baseGraph.numLevels());
  const bool sameGraph = &baseGraph == &graph;
  const std::int32_t numLevels = graph.numLevels();

  // Cone membership per pin, laid out level by level: row r of level L is
  // entry levelStart[L] + r.
  std::vector<std::int64_t> levelStart(static_cast<std::size_t>(numLevels) + 1,
                                       0);
  std::size_t widest = 0;
  std::size_t mostNetEdges = 0;
  std::size_t mostCellEdges = 0;
  for (std::int32_t level = 0; level < numLevels; ++level) {
    const std::size_t width = graph.pinsAtLevel(level).size();
    levelStart[static_cast<std::size_t>(level) + 1] =
        levelStart[static_cast<std::size_t>(level)] +
        static_cast<std::int64_t>(width);
    widest = std::max(widest, width);
    mostNetEdges = std::max(mostNetEdges, graph.netEdgesInto(level).size());
    mostCellEdges = std::max(mostCellEdges, graph.cellEdgesInto(level).size());
  }
  std::vector<std::uint8_t> inCone(
      static_cast<std::size_t>(graph.numPins()), 0);
  const auto member =
      [&](const std::pair<std::int32_t, std::int64_t>& at) -> std::uint8_t& {
    return inCone[static_cast<std::size_t>(
        levelStart[static_cast<std::size_t>(at.first)] + at.second)];
  };

  // Seeds: the pins whose feature rows differ bitwise from the base's, new
  // pins included; the blocks the two share are skipped unread.
  for (const netlist::PinId pin : pinFeatures.changedRows(basePinFeatures)) {
    member(graph.locate(pin)) = 1;
  }
  // Over another graph, a row is a pure function of the pin's feature row,
  // its in-edge sources in order and its level's edge kinds, so it carries
  // by pin id only when the pin had all three in the base.
  if (!sameGraph) {
    for (std::int32_t level = 0; level < numLevels; ++level) {
      const auto& levelPins = graph.pinsAtLevel(level);
      const int kinds = edgeKinds(graph, level);
      for (std::size_t row = 0; row < levelPins.size(); ++row) {
        const netlist::PinId pin = levelPins[row];
        const auto fanin = graph.fanin(pin);
        if (pin >= baseGraph.numPins() ||
            edgeKinds(baseGraph, baseGraph.locate(pin).first) != kinds ||
            !std::ranges::equal(fanin, baseGraph.fanin(pin))) {
          member({level, static_cast<std::int64_t>(row)}) = 1;
        }
      }
    }
  }

  Output out;
  out.graph = &graph;
  out.levelEmbeddings.reserve(static_cast<std::size_t>(numLevels));
  std::int64_t computed = 0;
  // Per-level scratch, sized once so a level allocates only its tensors.
  std::vector<std::int64_t> pins;
  pins.reserve(widest);
  features::LevelEdges coneNet;
  coneNet.src.reserve(mostNetEdges);
  coneNet.dstLocal.reserve(mostNetEdges);
  features::LevelEdges coneCell;
  coneCell.src.reserve(mostCellEdges);
  coneCell.dstLocal.reserve(mostCellEdges);
  // Position of a cone row among its level's cone rows; valid for cone
  // rows of the current level only.
  std::vector<std::int64_t> position(widest, 0);
  const std::size_t rowBytes =
      static_cast<std::size_t>(hidden_) * sizeof(float);
  for (std::int32_t level = 0; level < numLevels; ++level) {
    std::uint8_t* cone =
        inCone.data() + levelStart[static_cast<std::size_t>(level)];
    const features::LevelEdges& net = graph.netEdgesInto(level);
    const features::LevelEdges& cell = graph.cellEdgesInto(level);
    // A pin joins the cone when any net or cell fanin is in it; sources
    // sit on earlier levels, whose membership is final.
    for (std::size_t e = 0; e < net.size(); ++e) {
      if (member(net.src[e]) != 0) {
        cone[static_cast<std::size_t>(net.dstLocal[e])] = 1;
      }
    }
    for (std::size_t e = 0; e < cell.size(); ++e) {
      if (member(cell.src[e]) != 0) {
        cone[static_cast<std::size_t>(cell.dstLocal[e])] = 1;
      }
    }

    const auto& levelPins = graph.pinsAtLevel(level);
    pins.clear();
    for (std::size_t row = 0; row < levelPins.size(); ++row) {
      if (cone[row] == 0) continue;
      position[row] = static_cast<std::int64_t>(pins.size());
      pins.push_back(levelPins[row]);
    }
    // The base level tensor this level patches, when the base holds the
    // same pins at this level in the same rows.
    const Tensor* sameRows = nullptr;
    if (sameGraph || (level < baseGraph.numLevels() &&
                      baseGraph.pinsAtLevel(level) == levelPins)) {
      sameRows = &base.levelEmbeddings[static_cast<std::size_t>(level)];
    }
    if (pins.empty() && sameRows != nullptr) {
      out.levelEmbeddings.push_back(*sameRows);
      continue;
    }
    Tensor rows;
    if (!pins.empty()) {
      // In-edges of the cone rows, in the level's edge order, so each
      // destination reduces its sources in the order the full sweep does.
      const auto restrict = [&](const features::LevelEdges& edges,
                                features::LevelEdges& sub) {
        sub.src.clear();
        sub.dstLocal.clear();
        for (std::size_t e = 0; e < edges.size(); ++e) {
          const auto dst = static_cast<std::size_t>(edges.dstLocal[e]);
          if (cone[dst] == 0) continue;
          sub.src.push_back(edges.src[e]);
          sub.dstLocal.push_back(position[dst]);
        }
      };
      restrict(net, coneNet);
      restrict(cell, coneCell);
      rows = levelBody(pinFeatures, pins, out.levelEmbeddings,
                       net.size() > 0 ? &coneNet : nullptr,
                       cell.size() > 0 ? &coneCell : nullptr);
      computed += static_cast<std::int64_t>(pins.size());
      if (pins.size() == levelPins.size()) {
        out.levelEmbeddings.push_back(std::move(rows));
        continue;
      }
    }
    // Cone rows from `rows`, the rest from the base: in place of a clone
    // of the same-rows level, else found by pin id.
    Tensor patched =
        sameRows != nullptr
            ? sameRows->clone()
            : Tensor::zeros({static_cast<std::int64_t>(levelPins.size()),
                             hidden_});
    for (std::size_t row = 0; row < levelPins.size(); ++row) {
      float* dst = patched.data() + static_cast<std::int64_t>(row) * hidden_;
      if (cone[row] != 0) {
        std::memcpy(dst, rows.data() + position[row] * hidden_, rowBytes);
      } else if (sameRows == nullptr) {
        const auto [baseLevel, baseRow] = baseGraph.locate(levelPins[row]);
        std::memcpy(dst,
                    base.levelEmbeddings[static_cast<std::size_t>(baseLevel)]
                            .data() +
                        baseRow * hidden_,
                    rowBytes);
      }
    }
    out.levelEmbeddings.push_back(std::move(patched));
  }
  if (rowsComputed != nullptr) *rowsComputed = computed;
  return out;
}

Tensor TimingGnn::select(const Output& output,
                         const std::vector<netlist::PinId>& pins) {
  DAGT_CHECK(output.graph != nullptr);
  std::vector<std::pair<std::int32_t, std::int64_t>> coords;
  coords.reserve(pins.size());
  for (const netlist::PinId p : pins) {
    coords.push_back(output.graph->locate(p));
  }
  return tensor::gatherRowsMulti(output.levelEmbeddings, coords);
}

}  // namespace dagt::core
