#include "features/path_extractor.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace dagt::features {

using netlist::Netlist;
using netlist::PinId;

namespace {

/// Shared per-endpoint body of extract/extractOne. `visited` and `stack` are
/// caller-owned scratch; `visited` is left all-zero again on return.
TimingPath extractCone(const Netlist& nl, const place::LayoutMaps* maps,
                       const PinId endpoint,
                       std::vector<std::uint8_t>& visited,
                       std::vector<PinId>& stack) {
  TimingPath path;
  path.endpoint = endpoint;

  // Reverse DFS over timing fanin — the whole fanin cone.
  stack.clear();
  stack.push_back(endpoint);
  visited[static_cast<std::size_t>(endpoint)] = 1;
  while (!stack.empty()) {
    const PinId p = stack.back();
    stack.pop_back();
    path.conePins.push_back(p);
    for (const PinId f : nl.timingFanin(p)) {
      if (!visited[static_cast<std::size_t>(f)]) {
        visited[static_cast<std::size_t>(f)] = 1;
        stack.push_back(f);
      }
    }
  }
  std::sort(path.conePins.begin(), path.conePins.end());
  // Reset the visited scratch for the next endpoint.
  for (const PinId p : path.conePins) {
    visited[static_cast<std::size_t>(p)] = 0;
  }

  if (maps != nullptr) {
    path.maskBins = PathExtractor::maskBins(nl, *maps, path.conePins);
  }
  return path;
}

}  // namespace

std::vector<std::int32_t> PathExtractor::maskBins(
    const Netlist& nl, const place::LayoutMaps& maps,
    const std::vector<PinId>& conePins) {
  std::vector<std::int32_t> bins;
  bins.reserve(conePins.size());
  const std::int32_t res = maps.resolution();
  for (const PinId p : conePins) {
    const auto [gx, gy] = maps.binOf(nl.pinLocation(p));
    bins.push_back(gy * res + gx);
  }
  std::sort(bins.begin(), bins.end());
  bins.erase(std::unique(bins.begin(), bins.end()), bins.end());
  return bins;
}

std::vector<TimingPath> PathExtractor::extract(const Netlist& nl,
                                               const place::LayoutMaps* maps) {
  std::vector<TimingPath> paths;
  const auto endpoints = nl.endpoints();
  paths.reserve(endpoints.size());

  std::vector<std::uint8_t> visited(static_cast<std::size_t>(nl.numPins()), 0);
  std::vector<PinId> stack;
  for (const PinId endpoint : endpoints) {
    paths.push_back(extractCone(nl, maps, endpoint, visited, stack));
  }
  return paths;
}

TimingPath PathExtractor::extractOne(const Netlist& nl,
                                     const place::LayoutMaps* maps,
                                     const PinId endpoint) {
  std::vector<std::uint8_t> visited(static_cast<std::size_t>(nl.numPins()), 0);
  std::vector<PinId> stack;
  return extractCone(nl, maps, endpoint, visited, stack);
}

std::vector<float> PathExtractor::maskedImage(const place::LayoutMaps& maps,
                                              const TimingPath& path) {
  const std::int32_t res = maps.resolution();
  const std::size_t plane = static_cast<std::size_t>(res) *
                            static_cast<std::size_t>(res);
  // Dilated binary mask of the path footprint.
  std::vector<std::uint8_t> mask(plane, 0);
  for (const std::int32_t bin : path.maskBins) {
    const std::int32_t gx = bin % res;
    const std::int32_t gy = bin / res;
    for (std::int32_t dy = -1; dy <= 1; ++dy) {
      for (std::int32_t dx = -1; dx <= 1; ++dx) {
        const std::int32_t x = gx + dx;
        const std::int32_t y = gy + dy;
        if (x >= 0 && x < res && y >= 0 && y < res) {
          mask[static_cast<std::size_t>(y * res + x)] = 1;
        }
      }
    }
  }
  std::vector<float> out(
      static_cast<std::size_t>(place::LayoutMaps::kNumChannels) * plane, 0.0f);
  for (std::int32_t c = 0; c < place::LayoutMaps::kNumChannels; ++c) {
    const std::vector<float>& channel = maps.channel(c);
    DAGT_CHECK(channel.size() == plane);
    float* dst = out.data() + static_cast<std::size_t>(c) * plane;
    for (std::size_t i = 0; i < plane; ++i) {
      if (mask[i]) dst[i] = channel[i];
    }
  }
  return out;
}

}  // namespace dagt::features
