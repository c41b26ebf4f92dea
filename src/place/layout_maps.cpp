#include "place/layout_maps.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace dagt::place {

using netlist::NetId;
using netlist::Netlist;
using netlist::PinId;

LayoutMaps::LayoutMaps(const Netlist& nl, const PlacementResult& placement,
                       std::int32_t resolution)
    : resolution_(resolution), die_(placement.dieArea) {
  DAGT_CHECK(resolution >= 4);
  DAGT_CHECK(die_.width() > 0.0f && die_.height() > 0.0f);
  const std::size_t plane = static_cast<std::size_t>(resolution_) *
                            static_cast<std::size_t>(resolution_);
  const float binW = die_.width() / static_cast<float>(resolution_);
  const float binH = die_.height() / static_cast<float>(resolution_);
  const float binArea = binW * binH;
  const auto bin = [&](std::int32_t gx, std::int32_t gy) {
    return static_cast<std::size_t>(gy * resolution_ + gx);
  };

  // Channel 0: cell density.
  channels_[0] = std::make_shared<const std::vector<float>>(cellDensity(nl));

  // Channel 1: RUDY — each net spreads hpwl/(w*h) wire density uniformly
  // over its bounding box (Spindler & Johannes' estimator).
  std::vector<float> rudy(plane, 0.0f);
  for (NetId n = 0; n < nl.numNets(); ++n) {
    const auto& net = nl.net(n);
    Rect box{nl.pinLocation(net.driver), nl.pinLocation(net.driver)};
    for (const PinId sink : net.sinks) box.expand(nl.pinLocation(sink));
    const float w = std::max(box.width(), binW);
    const float h = std::max(box.height(), binH);
    const float density = (w + h) / (w * h);  // wirelength per unit area
    const auto [gx0, gy0] = binOf(box.lo);
    const auto [gx1, gy1] = binOf(box.hi);
    for (std::int32_t gy = gy0; gy <= gy1; ++gy) {
      for (std::int32_t gx = gx0; gx <= gx1; ++gx) {
        rudy[bin(gx, gy)] += density * binArea;
      }
    }
  }
  // Normalize channel 1 by its 95th-percentile-ish scale: mean * 3.
  {
    double total = 0.0;
    for (std::size_t i = 0; i < plane; ++i) total += rudy[i];
    const float scale =
        total > 0.0 ? static_cast<float>(total / static_cast<double>(plane)) *
                          3.0f
                    : 1.0f;
    for (std::size_t i = 0; i < plane; ++i) {
      rudy[i] = std::min(rudy[i] / scale, 1.5f);
    }
  }
  channels_[1] = std::make_shared<const std::vector<float>>(std::move(rudy));

  // Channel 2: macro region mask.
  std::vector<float> macro(plane, 0.0f);
  for (std::int32_t gy = 0; gy < resolution_; ++gy) {
    for (std::int32_t gx = 0; gx < resolution_; ++gx) {
      const Point center{die_.lo.x + (static_cast<float>(gx) + 0.5f) * binW,
                         die_.lo.y + (static_cast<float>(gy) + 0.5f) * binH};
      for (const Rect& m : placement.macros) {
        if (m.contains(center)) {
          macro[bin(gx, gy)] = 1.0f;
          break;
        }
      }
    }
  }
  channels_[2] = std::make_shared<const std::vector<float>>(std::move(macro));
}

LayoutMaps::LayoutMaps(const LayoutMaps& prior, const Netlist& nl)
    : resolution_(prior.resolution_),
      die_(prior.die_),
      channels_(prior.channels_) {
  channels_[0] = std::make_shared<const std::vector<float>>(cellDensity(nl));
}

std::vector<float> LayoutMaps::cellDensity(const Netlist& nl) const {
  const float binW = die_.width() / static_cast<float>(resolution_);
  const float binH = die_.height() / static_cast<float>(resolution_);
  const float binArea = binW * binH;
  std::vector<float> density(static_cast<std::size_t>(resolution_) *
                                 static_cast<std::size_t>(resolution_),
                             0.0f);
  // Cell area accumulated into the covering bin.
  for (netlist::CellId c = 0; c < nl.numCells(); ++c) {
    const auto [gx, gy] = binOf(nl.cell(c).location);
    density[static_cast<std::size_t>(gy * resolution_ + gx)] +=
        nl.cellTypeOf(c).area / binArea;
  }
  // Normalize: density 1.0 = fully packed bin; clamp pathological overlap.
  for (float& v : density) v = std::min(v, 2.0f) * 0.5f;
  return density;
}

float LayoutMaps::at(std::int32_t channel, std::int32_t gx,
                     std::int32_t gy) const {
  return (*channels_[static_cast<std::size_t>(channel)])
      [static_cast<std::size_t>(gy * resolution_ + gx)];
}

float LayoutMaps::cellDensityAt(std::int32_t gx, std::int32_t gy) const {
  return at(0, gx, gy);
}
float LayoutMaps::rudyAt(std::int32_t gx, std::int32_t gy) const {
  return at(1, gx, gy);
}
float LayoutMaps::macroAt(std::int32_t gx, std::int32_t gy) const {
  return at(2, gx, gy);
}

std::pair<std::int32_t, std::int32_t> LayoutMaps::binOf(Point p) const {
  // Clamp in float before the cast: converting a float outside int32's
  // range (a far off-die point) is undefined behaviour. NaN lands in bin 0.
  const float lastBin = static_cast<float>(resolution_ - 1);
  const auto bin = [&](float fraction) {
    const float at = fraction * static_cast<float>(resolution_);
    return at >= 0.0f ? static_cast<std::int32_t>(std::min(at, lastBin)) : 0;
  };
  return {bin((p.x - die_.lo.x) / die_.width()),
          bin((p.y - die_.lo.y) / die_.height())};
}

float LayoutMaps::congestionAt(Point p) const {
  const auto [gx, gy] = binOf(p);
  return rudyAt(gx, gy);
}

}  // namespace dagt::place
