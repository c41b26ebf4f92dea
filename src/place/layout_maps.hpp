#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/geometry.hpp"
#include "netlist/netlist.hpp"
#include "place/placer.hpp"

namespace dagt::place {

/// Rasterized layout image set — the CNN input of the paper (Section 3.1):
/// channel 0: cell density map,
/// channel 1: RUDY (rectangular uniform wire density) map,
/// channel 2: macro-cell region map.
///
/// All channels share a resolution x resolution grid over the die area.
/// Values are normalized to roughly [0, 1] per channel. Each channel is an
/// immutable plane that copies, and maps built from a prior, share.
class LayoutMaps {
 public:
  static constexpr std::int32_t kNumChannels = 3;

  LayoutMaps(const netlist::Netlist& netlist, const PlacementResult& placement,
             std::int32_t resolution);
  /// The maps of `netlist` when no pin has moved since `prior` was built
  /// from the same placement (the edits since were resizes). Shares
  /// prior's RUDY and macro channels and recomputes cell density with the
  /// cold build's loop, so the result is bitwise equal to a cold build:
  /// RUDY and macros read only pin locations (a pin's location is its
  /// cell's), connectivity, the die and the macros, and a resize changes
  /// none of them. A move needs the cold build, since RUDY's global-mean
  /// normalization rescales every bin.
  LayoutMaps(const LayoutMaps& prior, const netlist::Netlist& netlist);

  std::int32_t resolution() const { return resolution_; }
  /// Channel `c`'s [resolution, resolution] plane, row-major. The CNN input
  /// is the three planes channel-first (PathExtractor::maskedImage).
  const std::vector<float>& channel(std::int32_t c) const {
    return *channels_[static_cast<std::size_t>(c)];
  }

  float cellDensityAt(std::int32_t gx, std::int32_t gy) const;
  float rudyAt(std::int32_t gx, std::int32_t gy) const;
  float macroAt(std::int32_t gx, std::int32_t gy) const;

  /// Grid bin containing a die location (clamped to the grid).
  std::pair<std::int32_t, std::int32_t> binOf(Point p) const;
  /// RUDY congestion at a die location — consumed by the routing estimator
  /// to model congestion-driven detours.
  float congestionAt(Point p) const;

 private:
  /// Channel 0 of `netlist` on this grid: cell area per bin, normalized.
  std::vector<float> cellDensity(const netlist::Netlist& netlist) const;
  float at(std::int32_t channel, std::int32_t gx, std::int32_t gy) const;

  std::int32_t resolution_;
  Rect die_;
  std::array<std::shared_ptr<const std::vector<float>>, kNumChannels>
      channels_;
};

}  // namespace dagt::place
