#include "features/pin_graph.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace dagt::features {

using netlist::Netlist;
using netlist::PinId;
using netlist::PinKind;

PinGraph::PinGraph(const Netlist& nl) {
  numPins_ = nl.numPins();
  const auto order = nl.topologicalPinOrder();

  // ASAP level per pin.
  std::vector<std::int32_t> level(static_cast<std::size_t>(numPins_), 0);
  std::int32_t maxLevel = 0;
  for (const PinId p : order) {
    std::int32_t lv = 0;
    for (const PinId f : nl.timingFanin(p)) {
      lv = std::max(lv, level[static_cast<std::size_t>(f)] + 1);
    }
    level[static_cast<std::size_t>(p)] = lv;
    maxLevel = std::max(maxLevel, lv);
  }

  levels_.resize(static_cast<std::size_t>(maxLevel) + 1);
  pinRef_.resize(static_cast<std::size_t>(numPins_));
  for (const PinId p : order) {
    auto& bucket = levels_[static_cast<std::size_t>(level[
        static_cast<std::size_t>(p)])];
    pinRef_[static_cast<std::size_t>(p)] = {
        level[static_cast<std::size_t>(p)],
        static_cast<std::int64_t>(bucket.size())};
    bucket.push_back(p);
  }

  netEdges_.resize(levels_.size());
  cellEdges_.resize(levels_.size());
  faninOffsets_.reserve(static_cast<std::size_t>(numPins_) + 1);
  faninOffsets_.push_back(0);
  for (PinId p = 0; p < numPins_; ++p) {
    const auto [dstLevel, dstRow] = pinRef_[static_cast<std::size_t>(p)];
    const auto& pin = nl.pin(p);
    const bool isCellOutput = pin.kind == PinKind::kCellOutput;
    const auto fanin = nl.timingFanin(p);
    faninPins_.insert(faninPins_.end(), fanin.begin(), fanin.end());
    faninOffsets_.push_back(static_cast<std::int32_t>(faninPins_.size()));
    for (const PinId f : fanin) {
      LevelEdges& edges = isCellOutput
                              ? cellEdges_[static_cast<std::size_t>(dstLevel)]
                              : netEdges_[static_cast<std::size_t>(dstLevel)];
      edges.src.push_back(pinRef_[static_cast<std::size_t>(f)]);
      edges.dstLocal.push_back(dstRow);
      if (isCellOutput) {
        ++totalCellEdges_;
      } else {
        ++totalNetEdges_;
      }
    }
  }
}

const std::vector<PinId>& PinGraph::pinsAtLevel(std::int32_t level) const {
  DAGT_CHECK_MSG(level >= 0 && level < numLevels(), "level " << level);
  return levels_[static_cast<std::size_t>(level)];
}

const LevelEdges& PinGraph::netEdgesInto(std::int32_t level) const {
  DAGT_CHECK(level >= 0 && level < numLevels());
  return netEdges_[static_cast<std::size_t>(level)];
}

const LevelEdges& PinGraph::cellEdgesInto(std::int32_t level) const {
  DAGT_CHECK(level >= 0 && level < numLevels());
  return cellEdges_[static_cast<std::size_t>(level)];
}

std::pair<std::int32_t, std::int64_t> PinGraph::locate(PinId pin) const {
  DAGT_CHECK_MSG(pin >= 0 && pin < numPins_, "pin " << pin);
  return pinRef_[static_cast<std::size_t>(pin)];
}

std::span<const PinId> PinGraph::fanin(PinId pin) const {
  DAGT_CHECK_MSG(pin >= 0 && pin < numPins_, "pin " << pin);
  const auto first = faninOffsets_[static_cast<std::size_t>(pin)];
  const auto last = faninOffsets_[static_cast<std::size_t>(pin) + 1];
  return {faninPins_.data() + first, static_cast<std::size_t>(last - first)};
}

}  // namespace dagt::features
