#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "netlist/netlist.hpp"

namespace dagt::features {

/// Edges entering one topological level, grouped for batched gather /
/// segment-reduce inside the GNN.
struct LevelEdges {
  /// Source pin as (source level ordinal, row within that level) — the
  /// coordinates tensor::gatherRowsMulti consumes.
  std::vector<std::pair<std::int32_t, std::int64_t>> src;
  /// Destination pin as a row within *this* level (segment id).
  std::vector<std::int64_t> dstLocal;

  std::size_t size() const { return dstLocal.size(); }
};

/// Levelized heterogeneous pin graph of a netlist — the GNN's "H" input
/// (paper Section 3.1): nodes are pins; net edges connect a net's driver to
/// each sink; cell edges connect a combinational cell's input pins to its
/// output pin. Levels follow the timing graph's ASAP order, so a
/// level-by-level sweep propagates information from primary inputs to
/// endpoints exactly like a timing engine.
class PinGraph {
 public:
  explicit PinGraph(const netlist::Netlist& netlist);

  std::int32_t numLevels() const {
    return static_cast<std::int32_t>(levels_.size());
  }
  /// Pin ids at a level (level 0 = startpoints and other fanin-free pins).
  const std::vector<netlist::PinId>& pinsAtLevel(std::int32_t level) const;
  /// Net edges / cell edges entering a level.
  const LevelEdges& netEdgesInto(std::int32_t level) const;
  const LevelEdges& cellEdgesInto(std::int32_t level) const;
  /// Coordinates of a pin: (level ordinal, row within level).
  std::pair<std::int32_t, std::int64_t> locate(netlist::PinId pin) const;
  /// Source pins of `pin`'s in-edges, in the order its level's edge list
  /// holds them (Netlist::timingFanin's order).
  std::span<const netlist::PinId> fanin(netlist::PinId pin) const;

  std::int64_t numPins() const { return numPins_; }
  std::int64_t totalNetEdges() const { return totalNetEdges_; }
  std::int64_t totalCellEdges() const { return totalCellEdges_; }

 private:
  std::int64_t numPins_ = 0;
  std::int64_t totalNetEdges_ = 0;
  std::int64_t totalCellEdges_ = 0;
  std::vector<std::vector<netlist::PinId>> levels_;
  std::vector<LevelEdges> netEdges_;   // indexed by destination level
  std::vector<LevelEdges> cellEdges_;  // indexed by destination level
  std::vector<std::pair<std::int32_t, std::int64_t>> pinRef_;  // by pin id
  // In-edge sources by pin id: fanin(p) is faninPins_[faninOffsets_[p],
  // faninOffsets_[p + 1]).
  std::vector<std::int32_t> faninOffsets_;
  std::vector<netlist::PinId> faninPins_;
};

}  // namespace dagt::features
