#include "serve/feature_service.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>

#include "common/check.hpp"
#include "features/path_extractor.hpp"
#include "netlist/io.hpp"
#include "obs/trace.hpp"
#include "sta/sta_engine.hpp"

namespace dagt::serve {

namespace {

/// %.9g round-trips float exactly through text.
void writeRect(std::ostream& out, const char* tag, const Rect& r) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s %.9g %.9g %.9g %.9g", tag,
                static_cast<double>(r.lo.x), static_cast<double>(r.lo.y),
                static_cast<double>(r.hi.x), static_cast<double>(r.hi.y));
  out << buf << '\n';
}

Rect parseRect(std::istringstream& ls, const std::string& path) {
  Rect r;
  ls >> r.lo.x >> r.lo.y >> r.hi.x >> r.hi.y;
  DAGT_CHECK_MSG(!ls.fail(), path << ": malformed rect line");
  return r;
}

/// FNV-1a over a file's bytes — the cache fingerprint. Collisions are
/// astronomically unlikely at the "did the netlist change" granularity.
std::string fileFingerprint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  DAGT_CHECK_MSG(in.good(), "cannot open " << path);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  char buf[1 << 16];
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
    const std::streamsize n = in.gcount();
    for (std::streamsize i = 0; i < n; ++i) {
      h = (h ^ static_cast<unsigned char>(buf[i])) * 0x100000001b3ULL;
    }
    if (in.eof()) break;
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(h));
  return hex;
}

bool sameRect(const Rect& a, const Rect& b) {
  return a.lo.x == b.lo.x && a.lo.y == b.lo.y && a.hi.x == b.hi.x &&
         a.hi.y == b.hi.y;
}

/// Same die and macros: what the layout channels read of a placement.
bool sameFloorplan(const place::PlacementResult& a,
                   const place::PlacementResult& b) {
  return sameRect(a.dieArea, b.dieArea) && a.macros.size() == b.macros.size() &&
         std::equal(a.macros.begin(), a.macros.end(), b.macros.begin(),
                    sameRect);
}

/// A snapshot of `nl` with its identity and stats filled in and an empty
/// netlist: the caller builds every artifact from `nl`, which the snapshot
/// does not keep.
std::shared_ptr<ServableDesign> emptySnapshot(
    const netlist::Netlist& nl, netlist::TechNode node,
    const place::PlacementResult& placement) {
  auto servable = std::make_shared<ServableDesign>(features::DesignData(
      netlist::Netlist(&nl.library(), nl.name())));
  features::DesignData& data = servable->data;
  data.name = nl.name();
  data.node = node;
  data.role = designgen::DesignRole::kTest;
  data.placement = placement;
  data.stats = nl.stats();
  return servable;
}

}  // namespace

void writePlacementFile(const place::PlacementResult& placement,
                        const std::string& path) {
  std::ofstream out(path);
  DAGT_CHECK_MSG(out.good(), "cannot open " << path << " for writing");
  out << "dagtpl 1\n";
  writeRect(out, "die", placement.dieArea);
  for (const Rect& macro : placement.macros) {
    writeRect(out, "macro", macro);
  }
  DAGT_CHECK_MSG(out.good(), "write to " << path << " failed");
}

place::PlacementResult readPlacementFile(const std::string& path) {
  std::ifstream in(path);
  DAGT_CHECK_MSG(in.good(), "cannot open " << path);
  std::string line;
  DAGT_CHECK_MSG(std::getline(in, line) && line.rfind("dagtpl 1", 0) == 0,
                 path << " is not a dagtpl v1 placement file");
  place::PlacementResult placement;
  bool sawDie = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "die") {
      placement.dieArea = parseRect(ls, path);
      sawDie = true;
    } else if (tag == "macro") {
      placement.macros.push_back(parseRect(ls, path));
    } else {
      DAGT_CHECK_MSG(false, path << ": unknown line tag '" << tag << "'");
    }
  }
  DAGT_CHECK_MSG(sawDie, path << " lacks a die line");
  return placement;
}

FeatureService::FeatureService(const BundleManifest& manifest)
    : manifest_(manifest) {
  libraries_.resize(netlist::kNumTechNodes);
  std::vector<const netlist::CellLibrary*> libPtrs;
  for (const auto node : manifest_.vocabularyNodes) {
    auto& slot = libraries_[static_cast<std::size_t>(node)];
    DAGT_CHECK_MSG(slot == nullptr,
                   "duplicate node in manifest vocabulary list");
    slot = std::make_unique<netlist::CellLibrary>(
        netlist::CellLibrary::makeNode(node));
    libPtrs.push_back(slot.get());
  }
  vocab_ = std::make_unique<netlist::GateTypeVocabulary>(libPtrs);
  featureBuilder_ = std::make_unique<features::FeatureBuilder>(
      vocab_.get(), manifest_.features);
  DAGT_CHECK_MSG(featureBuilder_->featureDim() == manifest_.pinFeatureDim,
                 "manifest pin_feature_dim " << manifest_.pinFeatureDim
                     << " does not match the reconstructed pipeline's "
                     << featureBuilder_->featureDim()
                     << " (vocabulary nodes differ from training?)");
}

const netlist::CellLibrary& FeatureService::library(
    netlist::TechNode node) const {
  const auto& slot = libraries_[static_cast<std::size_t>(node)];
  DAGT_CHECK_MSG(slot != nullptr, netlist::techNodeName(node)
                                      << " is not in this bundle's "
                                         "vocabulary");
  return *slot;
}

std::int64_t FeatureService::featureDim() const {
  return featureBuilder_->featureDim();
}

std::shared_ptr<const ServableDesign> FeatureService::build(
    const netlist::Netlist& netlist, netlist::TechNode node,
    const place::PlacementResult& placement) const {
  auto servable = emptySnapshot(netlist, node, placement);
  features::DesignData& data = servable->data;

  // The same pre-routing snapshot sequence as DataPipeline::buildCustom,
  // minus the sign-off flow (labels are what the model predicts).
  data.maps = std::make_unique<place::LayoutMaps>(
      netlist, data.placement,
      static_cast<std::int32_t>(manifest_.model.imageResolution));
  data.graph = std::make_shared<const features::PinGraph>(netlist);
  const auto preTiming = sta::StaEngine::run(
      netlist, nullptr,
      sta::RouteConfig{sta::WireModel::kPreRouting, 0.0f, 0.0f});
  data.preRouteArrivals = preTiming.endpointArrivals(netlist);
  data.pinFeatures =
      features::PinFeatures(featureBuilder_->build(netlist, &preTiming));
  data.setPaths(features::PathExtractor::extract(netlist, data.maps.get()));
  data.labels.assign(data.paths().size(), 0.0f);  // unknown at serve time

  // Masked images are built on first use (the dataset's cache is
  // thread-safe), so a load pays only for the images its queries read.
  servable->dataset = std::make_unique<core::TimingDataset>(
      std::vector<const features::DesignData*>{&data});
  return servable;
}

std::shared_ptr<const ServableDesign> FeatureService::fromFiles(
    const std::string& key, const std::string& netlistPath,
    const std::string& libraryPath, const std::string& placementPath) {
  std::string fingerprint = fileFingerprint(netlistPath);
  if (!placementPath.empty()) {
    fingerprint += ':';
    fingerprint += fileFingerprint(placementPath);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = cache_.find(key);
    if (it != cache_.end() && it->second.fingerprint == fingerprint) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      DAGT_TRACE_INSTANT("serve/feature_cache_hit", "endpoints",
                         it->second.design->numEndpoints());
      return it->second.design;
    }
  }
  DAGT_TRACE_SCOPE("serve/feature_build");

  // The file library identifies the node; cells resolve against this
  // service's own deterministic library for that node so the gate-type
  // one-hot layout is guaranteed to match training.
  const auto fileLib = netlist::io::readLibraryFile(libraryPath);
  const netlist::CellLibrary& lib = library(fileLib.node());
  netlist::Netlist nl = netlist::io::readNetlistFile(netlistPath, lib);

  place::PlacementResult placement;
  if (!placementPath.empty()) {
    placement = readPlacementFile(placementPath);
  } else {
    Rect die{{0, 0}, {0, 0}};
    for (netlist::PinId p = 0; p < nl.numPins(); ++p) {
      die.expand(nl.pinLocation(p));
    }
    placement.dieArea = die;
  }

  auto servable = build(nl, fileLib.node(), placement);
  std::lock_guard<std::mutex> lock(mutex_);
  misses_.fetch_add(1, std::memory_order_relaxed);
  cache_[key] = {std::move(fingerprint), servable};
  return servable;
}

std::shared_ptr<const ServableDesign> FeatureService::fromNetlist(
    const std::string& key, const std::string& revision,
    const netlist::Netlist& netlist, netlist::TechNode node,
    const place::PlacementResult& placement) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = cache_.find(key);
    if (it != cache_.end() && it->second.fingerprint == revision) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      DAGT_TRACE_INSTANT("serve/feature_cache_hit", "endpoints",
                         it->second.design->numEndpoints());
      return it->second.design;
    }
  }
  DAGT_TRACE_SCOPE("serve/feature_build");
  auto servable = build(netlist, node, placement);
  std::lock_guard<std::mutex> lock(mutex_);
  misses_.fetch_add(1, std::memory_order_relaxed);
  cache_[key] = {revision, servable};
  return servable;
}

std::shared_ptr<const ServableDesign> FeatureService::cached(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = cache_.find(key);
  return it == cache_.end() ? nullptr : it->second.design;
}

FeatureService::ConeUpdateResult FeatureService::applyConeUpdate(
    const std::string& key, const std::string& revision,
    const ConeUpdate& update) {
  DAGT_TRACE_SCOPE("serve/cone_update");
  coneUpdates_.fetch_add(1, std::memory_order_relaxed);
  ConeUpdateResult result;
  const netlist::Netlist& nl = update.netlist;

  std::shared_ptr<const ServableDesign> prior = cached(key);
  if (prior == nullptr) {
    // Nothing to diff against: the key's first load is a cold build.
    auto servable = build(nl, update.node, update.placement);
    coneStructuralRebuilds_.fetch_add(1, std::memory_order_relaxed);
    coneEndpointsEvicted_.fetch_add(
        static_cast<std::uint64_t>(servable->numEndpoints()),
        std::memory_order_relaxed);
    result.design = servable;
    result.structuralRebuild = true;
    result.imagesRebuilt = servable->numEndpoints();
    result.dirtyEndpoints.resize(
        static_cast<std::size_t>(servable->numEndpoints()));
    std::iota(result.dirtyEndpoints.begin(), result.dirtyEndpoints.end(),
              std::int64_t{0});
    std::lock_guard<std::mutex> lock(mutex_);
    cache_[key] = {revision, servable};
    return result;
  }

  // Pin and net ids only grow (a buffer insertion appends its pins and its
  // net), so the prior snapshot's per-pin and per-endpoint artifacts can be
  // diffed against the new state by id.
  auto servable = emptySnapshot(nl, update.node, update.placement);
  features::DesignData& data = servable->data;
  const netlist::PinId priorPins =
      static_cast<netlist::PinId>(prior->data.graph->numPins());
  const bool rewired = !update.rewiredPins.empty();
  DAGT_CHECK_MSG(rewired ? nl.numPins() > priorPins
                         : nl.numPins() == priorPins,
                 "cone update of " << data.name << " went from " << priorPins
                                   << " to " << nl.numPins() << " pins with "
                                   << update.rewiredPins.size()
                                   << " rewired");
  DAGT_CHECK_MSG(sameFloorplan(update.placement, prior->data.placement),
                 "cone update moved the die or a macro of " << data.name);
  std::vector<netlist::PinId> newPins(
      static_cast<std::size_t>(nl.numPins() - priorPins));
  std::iota(newPins.begin(), newPins.end(), priorPins);

  // Per-pin and global artifacts. Anything whose inputs did not change is
  // shared with the prior snapshot (graph, paths, pin-feature blocks
  // without a dirty row, the layout channels a resize cannot change, clean
  // masked images) — reuse is bitwise, not approximate, because each
  // artifact is a deterministic per-element function of the netlist.
  {
    DAGT_TRACE_SCOPE("serve/cone_features");
    {
      // A resize changes at most cell density. A move or a buffer rebuilds
      // all three channels: RUDY is normalized by its global mean, so one
      // moved cell or rewired net perturbs nearly every nonzero bin.
      DAGT_TRACE_SCOPE("serve/cone_maps");
      data.maps = update.movedPins.empty() && !rewired
                      ? std::make_unique<place::LayoutMaps>(
                            *prior->data.maps, nl)
                      : std::make_unique<place::LayoutMaps>(
                            nl, data.placement,
                            static_cast<std::int32_t>(
                                manifest_.model.imageResolution));
    }
    // Unless a buffer rewired it, connectivity is untouched and the pin
    // graph carries over as-is.
    data.graph = rewired ? std::make_shared<const features::PinGraph>(nl)
                         : prior->data.graph;
    data.preRouteArrivals = update.preTiming.endpointArrivals(nl);
    {
      // A pin-feature row is a pure function of its own pin, so patching
      // the dirty rows and appending the new pins' rows equals a full
      // rebuild bit for bit (FeatureBuilder::rebuildRows shares build()'s
      // row code). The copy shares every block; the writes and the growth
      // clone only the blocks they touch.
      DAGT_TRACE_SCOPE("serve/cone_pinfeats");
      data.pinFeatures = prior->data.pinFeatures;
      data.pinFeatures.grow(nl.numPins());
      featureBuilder_->rebuildRows(nl, &update.preTiming, update.dirtyPins,
                                   data.pinFeatures);
      featureBuilder_->rebuildRows(nl, &update.preTiming, update.movedPins,
                                   data.pinFeatures);
      featureBuilder_->rebuildRows(nl, &update.preTiming, newPins,
                                   data.pinFeatures);
    }
  }

  const std::size_t numPins = static_cast<std::size_t>(nl.numPins());
  std::vector<std::uint8_t> dirtyPin(numPins, 0);
  std::vector<std::uint8_t> movedPin(numPins, 0);
  std::vector<std::uint8_t> rewiredPin(numPins, 0);
  for (const netlist::PinId p : update.dirtyPins) {
    dirtyPin[static_cast<std::size_t>(p)] = 1;
  }
  for (const netlist::PinId p : update.movedPins) {
    movedPin[static_cast<std::size_t>(p)] = 1;
    dirtyPin[static_cast<std::size_t>(p)] = 1;
  }
  for (const netlist::PinId p : update.rewiredPins) {
    rewiredPin[static_cast<std::size_t>(p)] = 1;
  }
  for (const netlist::PinId p : newPins) {
    dirtyPin[static_cast<std::size_t>(p)] = 1;
  }

  // Cones. An edit keeps the endpoints, and a cone changes membership only
  // if it holds a rewired pin (the walk from the endpoint follows the same
  // fanin otherwise): those cones are walked afresh. A cone holding a moved
  // pin keeps its pins and gets its mask bins recomputed with the
  // extractor's own mask code. When nothing moved or was rewired (resizes
  // only — the common ECO), the whole paths vector is shared.
  const auto& oldPaths = prior->data.paths();
  std::vector<std::uint8_t> maskStale(oldPaths.size(), 0);
  {
    DAGT_TRACE_SCOPE("serve/cone_paths");
    if (update.movedPins.empty() && !rewired) {
      data.pathsPtr = prior->data.pathsPtr;
    } else {
      std::vector<features::TimingPath> paths;
      paths.reserve(oldPaths.size());
      std::vector<netlist::PinId> walkEndpoints;
      std::vector<std::size_t> walkAt;
      for (std::size_t i = 0; i < oldPaths.size(); ++i) {
        const features::TimingPath& old = oldPaths[i];
        bool moved = false;
        bool rewalk = false;
        for (const netlist::PinId p : old.conePins) {
          moved = moved || movedPin[static_cast<std::size_t>(p)] != 0;
          rewalk = rewiredPin[static_cast<std::size_t>(p)] != 0;
          if (rewalk) break;
        }
        if (rewalk) {
          walkEndpoints.push_back(old.endpoint);
          walkAt.push_back(i);
          paths.emplace_back();
          continue;
        }
        paths.push_back(old);
        if (moved) {
          paths.back().maskBins = features::PathExtractor::maskBins(
              nl, *data.maps, old.conePins);
        }
      }
      std::vector<features::TimingPath> walked =
          features::PathExtractor::extract(nl, data.maps.get(),
                                           walkEndpoints);
      for (std::size_t k = 0; k < walked.size(); ++k) {
        paths[walkAt[k]] = std::move(walked[k]);
      }
      result.conesWalked = static_cast<std::int64_t>(walked.size());
      // An image reads only its mask bins and the channels near them.
      for (std::size_t i = 0; i < paths.size(); ++i) {
        maskStale[i] = paths[i].maskBins != oldPaths[i].maskBins ? 1 : 0;
      }
      data.setPaths(std::move(paths));
    }
    data.labels.assign(data.paths().size(), 0.0f);
  }

  // Masked-image invalidation by image diff: a cached masked image stays
  // bit-valid iff no changed bin falls inside its dilated footprint.
  // maskedImage dilates the footprint by one bin, and dilate(A)∩B != ∅
  // iff A∩dilate(B) != ∅, so we dilate the *changed* bins once and test
  // the raw maskBins against that. A shared channel is bitwise equal by
  // construction, so only the recomputed ones are compared.
  DAGT_TRACE_SCOPE("serve/cone_images");
  const place::LayoutMaps& oldMaps = *prior->data.maps;
  const place::LayoutMaps& newMaps = *data.maps;
  DAGT_CHECK(oldMaps.resolution() == newMaps.resolution());
  const std::int32_t res = newMaps.resolution();
  const std::size_t plane = static_cast<std::size_t>(res) *
                            static_cast<std::size_t>(res);
  std::vector<std::uint8_t> nearChanged(plane, 0);
  for (std::int32_t c = 0; c < place::LayoutMaps::kNumChannels; ++c) {
    const std::vector<float>& was = oldMaps.channel(c);
    const std::vector<float>& now = newMaps.channel(c);
    if (&was == &now) continue;
    for (std::size_t i = 0; i < plane; ++i) {
      if (std::memcmp(&was[i], &now[i], sizeof(float)) == 0) continue;
      const std::int32_t gx = static_cast<std::int32_t>(i) % res;
      const std::int32_t gy = static_cast<std::int32_t>(i) / res;
      for (std::int32_t dy = -1; dy <= 1; ++dy) {
        for (std::int32_t dx = -1; dx <= 1; ++dx) {
          const std::int32_t x = gx + dx;
          const std::int32_t y = gy + dy;
          if (x >= 0 && x < res && y >= 0 && y < res) {
            nearChanged[static_cast<std::size_t>(y * res + x)] = 1;
          }
        }
      }
    }
  }

  // Export is O(endpoints) shared-handle copies — the pixels themselves
  // are never duplicated. Evicted slots are reset and refill lazily on
  // first use (the image cache is thread-safe), so a sync pays for the
  // images a follow-up query actually touches, not for every stale one.
  std::vector<core::TimingDataset::ImageSlot> imported =
      prior->dataset->exportImages(prior->data);
  DAGT_CHECK(imported.size() == data.paths().size());
  std::vector<std::int64_t> imageDirty;
  for (std::size_t i = 0; i < data.paths().size(); ++i) {
    bool stale = maskStale[i] != 0;
    if (!stale) {
      for (const std::int32_t bin : data.paths()[i].maskBins) {
        if (nearChanged[static_cast<std::size_t>(bin)]) {
          stale = true;
          break;
        }
      }
    }
    if (stale) {
      imported[i].reset();
      imageDirty.push_back(static_cast<std::int64_t>(i));
    }
  }
  result.imagesRebuilt = static_cast<std::int64_t>(imageDirty.size());
  result.imagesReused =
      static_cast<std::int64_t>(data.paths().size()) - result.imagesRebuilt;
  coneEndpointsEvicted_.fetch_add(
      static_cast<std::uint64_t>(result.imagesRebuilt),
      std::memory_order_relaxed);
  coneEndpointsReused_.fetch_add(
      static_cast<std::uint64_t>(result.imagesReused),
      std::memory_order_relaxed);

  servable->dataset = std::make_unique<core::TimingDataset>(
      std::vector<const features::DesignData*>{&data});
  servable->dataset->importImages(data, std::move(imported));

  // An endpoint's prediction can move through its cone features (a dirty
  // pin inside the cone) or through its masked image; everything else is
  // bit-identical to the prior snapshot's prediction inputs.
  std::vector<std::uint8_t> endpointDirty(data.paths().size(), 0);
  for (const std::int64_t e : imageDirty) {
    endpointDirty[static_cast<std::size_t>(e)] = 1;
  }
  for (std::size_t i = 0; i < data.paths().size(); ++i) {
    if (endpointDirty[i]) continue;
    for (const netlist::PinId p : data.paths()[i].conePins) {
      if (dirtyPin[static_cast<std::size_t>(p)]) {
        endpointDirty[i] = 1;
        break;
      }
    }
  }
  for (std::size_t i = 0; i < endpointDirty.size(); ++i) {
    if (endpointDirty[i]) {
      result.dirtyEndpoints.push_back(static_cast<std::int64_t>(i));
    }
  }

  result.design = servable;
  std::lock_guard<std::mutex> lock(mutex_);
  cache_[key] = {revision, std::move(servable)};
  return result;
}

void FeatureService::installSnapshot(
    const std::string& key, const std::string& revision,
    std::shared_ptr<const ServableDesign> design) {
  DAGT_CHECK(design != nullptr);
  std::lock_guard<std::mutex> lock(mutex_);
  cache_[key] = {revision, std::move(design)};
}

}  // namespace dagt::serve
