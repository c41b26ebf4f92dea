#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "place/layout_maps.hpp"

namespace dagt::features {

/// One timing path G' in the paper's sense: the whole fanin cone of a
/// timing endpoint (a sub-graph of the netlist), plus its footprint on the
/// layout grid for CNN masking.
struct TimingPath {
  netlist::PinId endpoint = netlist::kInvalidId;
  /// Pins of the fanin cone (endpoint included), ascending pin id.
  std::vector<netlist::PinId> conePins;
  /// Flattened layout-grid bins (gy * resolution + gx) touched by cone
  /// pins; sorted unique. Used to mask the layout image per path.
  std::vector<std::int32_t> maskBins;
};

/// Extracts Path(G) = {G'_i}: the fanin cone of every endpoint.
class PathExtractor {
 public:
  /// Cones for all endpoints (ordered like Netlist::endpoints()).
  /// `maps` may be null to skip mask-bin computation.
  static std::vector<TimingPath> extract(const netlist::Netlist& netlist,
                                         const place::LayoutMaps* maps);

  /// Cones of the given endpoints, in that order. Each cone costs its own
  /// size: the walk marks its pins and bins in bitsets, which read them
  /// back in order (no sort) and are left clear for the next endpoint.
  static std::vector<TimingPath> extract(
      const netlist::Netlist& netlist, const place::LayoutMaps* maps,
      std::span<const netlist::PinId> endpoints);

  /// The mask half of a cone's extraction: the sorted unique bins of
  /// `conePins`' locations. A what-if move changes no cone membership,
  /// only locations, so a moved path re-runs just this on its conePins.
  static std::vector<std::int32_t> maskBins(
      const netlist::Netlist& netlist, const place::LayoutMaps& maps,
      const std::vector<netlist::PinId>& conePins);

  /// Masked copy of the layout image for one path: bins outside the path's
  /// footprint are zeroed (with the footprint dilated by one bin so local
  /// context survives). Returns a flattened [3, res, res] image.
  static std::vector<float> maskedImage(const place::LayoutMaps& maps,
                                        const TimingPath& path);
};

}  // namespace dagt::features
