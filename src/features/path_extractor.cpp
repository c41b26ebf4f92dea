#include "features/path_extractor.hpp"

#include <bit>
#include <utility>

#include "common/check.hpp"

namespace dagt::features {

using netlist::Netlist;
using netlist::PinId;

namespace {

/// A set of ids below a fixed bound that reads back in ascending order
/// without a sort: one bit per id, plus a summary bit per 64-bit word that
/// holds any. Draining visits only the summary (one word per 4096 ids) and
/// the words it marks, and leaves the set empty for reuse.
class SortedMarks {
 public:
  explicit SortedMarks(std::size_t bound)
      : words_((bound + 63) / 64, 0), summary_((words_.size() + 63) / 64, 0) {}

  /// Marks `id`; true when it was not marked yet.
  bool insert(std::size_t id) {
    const std::size_t w = id / 64;
    const std::uint64_t bit = std::uint64_t{1} << (id % 64);
    if ((words_[w] & bit) != 0) return false;
    if (words_[w] == 0) summary_[w / 64] |= std::uint64_t{1} << (w % 64);
    words_[w] |= bit;
    return true;
  }

  /// Appends the marked ids to `out` in ascending order and unmarks them.
  template <typename Id>
  void drain(std::vector<Id>& out) {
    for (std::size_t s = 0; s < summary_.size(); ++s) {
      for (std::uint64_t held = std::exchange(summary_[s], 0); held != 0;
           held &= held - 1) {
        const std::size_t w = s * 64 + std::countr_zero(held);
        for (std::uint64_t bits = std::exchange(words_[w], 0); bits != 0;
             bits &= bits - 1) {
          out.push_back(static_cast<Id>(w * 64 + std::countr_zero(bits)));
        }
      }
    }
  }

 private:
  std::vector<std::uint64_t> words_;
  std::vector<std::uint64_t> summary_;
};

/// The mask footprint of pins whose bins `binOf` gives: their bins,
/// ascending and unique.
template <typename BinOf>
std::vector<std::int32_t> coneBins(const std::vector<PinId>& conePins,
                                   const BinOf& binOf, SortedMarks& binMarks) {
  for (const PinId p : conePins) {
    binMarks.insert(static_cast<std::size_t>(binOf(p)));
  }
  std::vector<std::int32_t> bins;
  binMarks.drain(bins);
  return bins;
}

/// Flattened grid bin of a pin's location.
std::int32_t pinBin(const Netlist& nl, const place::LayoutMaps& maps,
                    const PinId p) {
  const auto [gx, gy] = maps.binOf(nl.pinLocation(p));
  return gy * maps.resolution() + gx;
}

/// Extracts cones one endpoint at a time over a flat copy of the timing
/// fanin and of every pin's bin, made once per extraction (timingFanin's
/// checks and library lookup and binOf would otherwise run once per cone
/// pin), reusing its marks and stack.
class ConeWalker {
 public:
  ConeWalker(const Netlist& nl, const place::LayoutMaps* maps)
      : pinMarks_(static_cast<std::size_t>(nl.numPins())),
        binMarks_(maps == nullptr
                      ? 0
                      : static_cast<std::size_t>(maps->resolution()) *
                            static_cast<std::size_t>(maps->resolution())),
        withBins_(maps != nullptr) {
    const auto n = static_cast<std::size_t>(nl.numPins());
    faninOffsets_.reserve(n + 1);
    faninOffsets_.push_back(0);
    for (PinId p = 0; p < static_cast<PinId>(n); ++p) {
      const auto fanin = nl.timingFanin(p);
      faninPins_.insert(faninPins_.end(), fanin.begin(), fanin.end());
      faninOffsets_.push_back(static_cast<std::int32_t>(faninPins_.size()));
    }
    if (withBins_) {
      pinBins_.resize(n);
      for (PinId p = 0; p < static_cast<PinId>(n); ++p) {
        pinBins_[static_cast<std::size_t>(p)] = pinBin(nl, *maps, p);
      }
    }
  }

  TimingPath walk(const PinId endpoint) {
    TimingPath path;
    path.endpoint = endpoint;
    // Reverse DFS over timing fanin (the whole fanin cone); the marks
    // then read the cone back in pin order.
    stack_.clear();
    stack_.push_back(endpoint);
    pinMarks_.insert(static_cast<std::size_t>(endpoint));
    std::size_t size = 0;
    while (!stack_.empty()) {
      const auto p = static_cast<std::size_t>(stack_.back());
      stack_.pop_back();
      ++size;
      for (std::int32_t e = faninOffsets_[p]; e < faninOffsets_[p + 1]; ++e) {
        const PinId f = faninPins_[static_cast<std::size_t>(e)];
        if (pinMarks_.insert(static_cast<std::size_t>(f))) stack_.push_back(f);
      }
    }
    path.conePins.reserve(size);
    pinMarks_.drain(path.conePins);
    if (withBins_) {
      path.maskBins = coneBins(
          path.conePins,
          [&](PinId p) { return pinBins_[static_cast<std::size_t>(p)]; },
          binMarks_);
    }
    return path;
  }

 private:
  std::vector<std::int32_t> faninOffsets_;
  std::vector<PinId> faninPins_;
  std::vector<std::int32_t> pinBins_;
  SortedMarks pinMarks_;
  SortedMarks binMarks_;
  bool withBins_;
  std::vector<PinId> stack_;
};

}  // namespace

std::vector<std::int32_t> PathExtractor::maskBins(
    const Netlist& nl, const place::LayoutMaps& maps,
    const std::vector<PinId>& conePins) {
  SortedMarks binMarks(static_cast<std::size_t>(maps.resolution()) *
                       static_cast<std::size_t>(maps.resolution()));
  return coneBins(
      conePins, [&](PinId p) { return pinBin(nl, maps, p); }, binMarks);
}

std::vector<TimingPath> PathExtractor::extract(const Netlist& nl,
                                               const place::LayoutMaps* maps) {
  return extract(nl, maps, nl.endpoints());
}

std::vector<TimingPath> PathExtractor::extract(
    const Netlist& nl, const place::LayoutMaps* maps,
    std::span<const PinId> endpoints) {
  std::vector<TimingPath> paths;
  paths.reserve(endpoints.size());
  ConeWalker walker(nl, maps);
  for (const PinId endpoint : endpoints) {
    paths.push_back(walker.walk(endpoint));
  }
  return paths;
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
