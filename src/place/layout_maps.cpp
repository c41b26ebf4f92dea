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
  image_.assign(static_cast<std::size_t>(3) * resolution_ * resolution_,
                0.0f);
  const float binW = die_.width() / static_cast<float>(resolution_);
  const float binH = die_.height() / static_cast<float>(resolution_);
  const float binArea = binW * binH;

  // Channel 0: cell density — cell area accumulated into the covering bin.
  for (netlist::CellId c = 0; c < nl.numCells(); ++c) {
    const auto [gx, gy] = binOf(nl.cell(c).location);
    at(0, gx, gy) += nl.cellTypeOf(c).area / binArea;
  }
  // Normalize: density 1.0 = fully packed bin; clamp pathological overlap.
  for (std::int32_t i = 0; i < resolution_ * resolution_; ++i) {
    image_[static_cast<std::size_t>(i)] =
        std::min(image_[static_cast<std::size_t>(i)], 2.0f) * 0.5f;
  }

  // Channel 1: RUDY — each net spreads hpwl/(w*h) wire density uniformly
  // over its bounding box (Spindler & Johannes' estimator).
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
        at(1, gx, gy) += density * binArea;
      }
    }
  }
  // Normalize channel 1 by its 95th-percentile-ish scale: mean * 3.
  {
    double total = 0.0;
    const std::size_t base = static_cast<std::size_t>(resolution_) *
                             static_cast<std::size_t>(resolution_);
    for (std::size_t i = 0; i < base; ++i) total += image_[base + i];
    const float scale =
        total > 0.0 ? static_cast<float>(total / static_cast<double>(base)) *
                          3.0f
                    : 1.0f;
    for (std::size_t i = 0; i < base; ++i) {
      image_[base + i] = std::min(image_[base + i] / scale, 1.5f);
    }
  }

  // Channel 2: macro region mask.
  for (std::int32_t gy = 0; gy < resolution_; ++gy) {
    for (std::int32_t gx = 0; gx < resolution_; ++gx) {
      const Point center{die_.lo.x + (static_cast<float>(gx) + 0.5f) * binW,
                         die_.lo.y + (static_cast<float>(gy) + 0.5f) * binH};
      for (const Rect& m : placement.macros) {
        if (m.contains(center)) {
          at(2, gx, gy) = 1.0f;
          break;
        }
      }
    }
  }
}

float& LayoutMaps::at(std::int32_t channel, std::int32_t gx, std::int32_t gy) {
  return image_[static_cast<std::size_t>(
      (channel * resolution_ + gy) * resolution_ + gx)];
}

float LayoutMaps::at(std::int32_t channel, std::int32_t gx,
                     std::int32_t gy) const {
  return image_[static_cast<std::size_t>(
      (channel * resolution_ + gy) * resolution_ + gx)];
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
