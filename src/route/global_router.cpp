#include "route/global_router.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace dagt::route {

using netlist::NetId;
using netlist::Netlist;
using netlist::PinId;

namespace {

/// Mutable routing state for one pass.
struct Grid {
  std::int32_t size = 0;
  float cellW = 0.0f;
  float cellH = 0.0f;
  Point origin;
  float capacity = 0.0f;
  std::vector<float> hUsage;  // (size-1) * size edges
  std::vector<float> vUsage;  // size * (size-1) edges

  std::pair<std::int32_t, std::int32_t> cellOf(const Point& p) const {
    const std::int32_t gx = std::clamp(
        static_cast<std::int32_t>((p.x - origin.x) / cellW), 0, size - 1);
    const std::int32_t gy = std::clamp(
        static_cast<std::int32_t>((p.y - origin.y) / cellH), 0, size - 1);
    return {gx, gy};
  }

  float& hEdge(std::int32_t x, std::int32_t y) {
    // Edge from (x, y) to (x+1, y); x in [0, size-2].
    DAGT_DCHECK(x >= 0 && x < size - 1 && y >= 0 && y < size);
    return hUsage[static_cast<std::size_t>(y * (size - 1) + x)];
  }
  float& vEdge(std::int32_t x, std::int32_t y) {
    // Edge from (x, y) to (x, y+1); y in [0, size-2].
    DAGT_DCHECK(x >= 0 && x < size && y >= 0 && y < size - 1);
    return vUsage[static_cast<std::size_t>(x * (size - 1) + y)];
  }
};

/// Route one two-pin connection as a congestion-aware staircase.
/// Returns the routed length in um and accumulates edge usage.
float routeTwoPin(Grid& grid, Point from, Point to) {
  auto [x, y] = grid.cellOf(from);
  const auto [tx, ty] = grid.cellOf(to);
  float steps = 0.0f;  // grid edges traversed

  // Walk until the target GCell is reached; bounded by grid perimeter x4
  // (escape steps can add detours, but never loops: an escape is always
  // followed by progress or the alternative direction).
  const std::int32_t guard = grid.size * grid.size;
  for (std::int32_t iter = 0; iter < guard && (x != tx || y != ty); ++iter) {
    const std::int32_t dx = tx > x ? 1 : (tx < x ? -1 : 0);
    const std::int32_t dy = ty > y ? 1 : (ty < y ? -1 : 0);

    // Candidate frontier edges toward the target.
    float hCost = 1e30f, vCost = 1e30f;
    if (dx != 0) hCost = grid.hEdge(dx > 0 ? x : x - 1, y);
    if (dy != 0) vCost = grid.vEdge(x, dy > 0 ? y : y - 1);

    if (hCost <= vCost && dx != 0) {
      if (hCost >= grid.capacity && dy != 0 && vCost < grid.capacity) {
        // Horizontal saturated; the vertical move also makes progress.
        grid.vEdge(x, dy > 0 ? y : y - 1) += 1.0f;
        y += dy;
      } else {
        grid.hEdge(dx > 0 ? x : x - 1, y) += 1.0f;
        x += dx;
      }
    } else if (dy != 0) {
      if (vCost >= grid.capacity && dx != 0 && hCost < grid.capacity) {
        grid.hEdge(dx > 0 ? x : x - 1, y) += 1.0f;
        x += dx;
      } else {
        grid.vEdge(x, dy > 0 ? y : y - 1) += 1.0f;
        y += dy;
      }
    } else if (dx != 0) {
      grid.hEdge(dx > 0 ? x : x - 1, y) += 1.0f;
      x += dx;
    }

    // Escape: both progressing directions saturated -> sidestep
    // perpendicular to the dominant direction (adds detour length). The
    // directions are those that still progress from the new position.
    if (x != tx || y != ty) {
      const std::int32_t ndx = tx > x ? 1 : (tx < x ? -1 : 0);
      const std::int32_t ndy = ty > y ? 1 : (ty < y ? -1 : 0);
      const bool hBlocked =
          ndx != 0 && grid.hEdge(ndx > 0 ? x : x - 1, y) > grid.capacity;
      const bool vBlocked =
          ndy != 0 && grid.vEdge(x, ndy > 0 ? y : y - 1) > grid.capacity;
      if (hBlocked && vBlocked) {
        if (y + 1 < grid.size) {
          grid.vEdge(x, y) += 1.0f;
          ++y;
          steps += 1.0f;
        } else if (y > 0) {
          grid.vEdge(x, y - 1) += 1.0f;
          --y;
          steps += 1.0f;
        }
      }
    }
    steps += 1.0f;
  }

  // Length: traversed grid edges plus the local pin stubs inside the
  // terminal GCells.
  const float edgeLen = 0.5f * (grid.cellW + grid.cellH);
  const float stub = 0.5f * (std::abs(from.x - to.x) < grid.cellW &&
                                     std::abs(from.y - to.y) < grid.cellH
                                 ? manhattan(from, to)
                                 : edgeLen);
  return steps * edgeLen + stub;
}

}  // namespace

RoutingResult GlobalRouter::route(const Netlist& nl,
                                  const place::PlacementResult& placement,
                                  const RouterConfig& config) {
  DAGT_CHECK(config.gridSize >= 2);
  Grid grid;
  grid.size = config.gridSize;
  grid.origin = placement.dieArea.lo;
  grid.cellW = placement.dieArea.width() / static_cast<float>(grid.size);
  grid.cellH = placement.dieArea.height() / static_cast<float>(grid.size);
  DAGT_CHECK_MSG(grid.cellW > 0.0f && grid.cellH > 0.0f,
                 "degenerate die area");
  grid.capacity = std::max(
      1.0f, config.capacityScale * grid.cellW / nl.library().sitePitch());
  grid.hUsage.assign(static_cast<std::size_t>((grid.size - 1) * grid.size),
                     0.0f);
  grid.vUsage.assign(static_cast<std::size_t>(grid.size * (grid.size - 1)),
                     0.0f);

  // Net ordering: short nets first.
  std::vector<NetId> order(static_cast<std::size_t>(nl.numNets()));
  for (NetId n = 0; n < nl.numNets(); ++n) {
    order[static_cast<std::size_t>(n)] = n;
  }
  if (config.sortByHpwl) {
    std::vector<float> hpwl(order.size());
    for (const NetId n : order) {
      const auto& net = nl.net(n);
      Rect box{nl.pinLocation(net.driver), nl.pinLocation(net.driver)};
      for (const PinId sink : net.sinks) box.expand(nl.pinLocation(sink));
      hpwl[static_cast<std::size_t>(n)] = box.halfPerimeter();
    }
    std::sort(order.begin(), order.end(), [&](NetId a, NetId b) {
      return hpwl[static_cast<std::size_t>(a)] <
             hpwl[static_cast<std::size_t>(b)];
    });
  }

  RoutingResult result;
  result.gridSize = grid.size;
  result.nets.resize(static_cast<std::size_t>(nl.numNets()));
  for (const NetId n : order) {
    const auto& net = nl.net(n);
    const Point driverLoc = nl.pinLocation(net.driver);
    RoutedNet routed;
    for (const PinId sink : net.sinks) {
      RoutedSink rs;
      rs.sink = sink;
      rs.length = routeTwoPin(grid, driverLoc, nl.pinLocation(sink));
      rs.length = std::max(rs.length, nl.library().sitePitch() * 0.5f);
      result.totalWirelength += rs.length;
      routed.sinks.push_back(rs);
    }
    result.nets[static_cast<std::size_t>(n)] = std::move(routed);
  }

  for (const float usage : grid.hUsage) {
    result.maxUtilization = std::max(result.maxUtilization,
                                     usage / grid.capacity);
    if (usage > grid.capacity) ++result.overflowEdges;
  }
  for (const float usage : grid.vUsage) {
    result.maxUtilization = std::max(result.maxUtilization,
                                     usage / grid.capacity);
    if (usage > grid.capacity) ++result.overflowEdges;
  }
  result.hUsage = std::move(grid.hUsage);
  result.vUsage = std::move(grid.vUsage);
  return result;
}

}  // namespace dagt::route
