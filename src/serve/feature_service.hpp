#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/dataset.hpp"
#include "features/design_data.hpp"
#include "serve/model_bundle.hpp"
#include "sta/sta_engine.hpp"

namespace dagt::serve {

// -- Placement sidecar (.dagtpl) ---------------------------------------------
//
// The netlist interchange file stores pin locations but not the die outline
// or macro blockages, both of which feed the layout image channels. The
// sidecar completes the pre-routing snapshot so a served design reproduces
// the training-time features exactly. Without it the die is derived from
// the pin bounding box and macros are assumed absent (a documented
// approximation).

void writePlacementFile(const place::PlacementResult& placement,
                        const std::string& path);
place::PlacementResult readPlacementFile(const std::string& path);

/// A design prepared for serving: the pre-routing snapshot (no sign-off
/// labels — predicting those is the whole point) plus a single-design
/// TimingDataset whose per-endpoint masked images are built on first use
/// (its cache is thread-safe, so engine worker threads share the
/// snapshot).
///
/// A served snapshot holds no netlist: nothing reads it after the build,
/// so `data.netlist` is an empty Netlist(&library, name), cold-built and
/// cone-updated snapshots alike. The pin graph, paths, pin features,
/// layout maps and stats carry what queries and later cone updates need.
struct ServableDesign {
  features::DesignData data;
  std::unique_ptr<core::TimingDataset> dataset;  // refers to `data`

  explicit ServableDesign(features::DesignData d) : data(std::move(d)) {}
  std::int64_t numEndpoints() const { return data.numEndpoints(); }
};

/// Rebuilds the training-time feature pipeline from a bundle manifest
/// (deterministic per-node libraries -> merged vocabulary -> FeatureBuilder)
/// and turns placed netlists into ServableDesigns, with a content-addressed
/// cache so repeated queries on an unchanged netlist skip pin-graph /
/// layout / STA re-extraction entirely.
class FeatureService {
 public:
  explicit FeatureService(const BundleManifest& manifest);

  const netlist::CellLibrary& library(netlist::TechNode node) const;
  const netlist::GateTypeVocabulary& vocabulary() const { return *vocab_; }
  std::int64_t featureDim() const;

  /// Load a design from interchange files under `key`. Returns the cached
  /// snapshot when the file contents are unchanged; rebuilds (and counts a
  /// miss) when the fingerprint moved. `placementPath` may be empty.
  std::shared_ptr<const ServableDesign> fromFiles(
      const std::string& key, const std::string& netlistPath,
      const std::string& libraryPath, const std::string& placementPath = "");

  /// In-memory variant: the caller supplies the revision tag that decides
  /// cache validity (e.g. a netlist edit counter).
  std::shared_ptr<const ServableDesign> fromNetlist(
      const std::string& key, const std::string& revision,
      const netlist::Netlist& netlist, netlist::TechNode node,
      const place::PlacementResult& placement);

  /// Cached snapshot for a key, or nullptr if never prepared.
  std::shared_ptr<const ServableDesign> cached(const std::string& key) const;

  /// One what-if edit batch against a cached design: the post-edit netlist
  /// plus everything the caller (a WhatIfSession) already knows about the
  /// edit's blast radius, so feature extraction can stay proportional to
  /// the dirty cone instead of the design. The references are the caller's
  /// own state and need to stay valid only for the applyConeUpdate call:
  /// the snapshot it builds keeps none of them.
  struct ConeUpdate {
    const netlist::Netlist& netlist;  // post-edit netlist (placed)
    netlist::TechNode node = netlist::TechNode::k7nm;
    /// The prior snapshot's placement (die and macros): edits move cells,
    /// never the die or a macro.
    const place::PlacementResult& placement;
    /// Pre-routing STA of `netlist` — an IncrementalSta view, which is
    /// bitwise equal to the cold StaEngine::run the full build would do.
    const sta::TimingResult& preTiming;
    /// Sorted superset of pins whose feature rows may have changed
    /// (edited cells' pins + pins the STA update actually changed + pins
    /// of re-estimated nets).
    std::vector<netlist::PinId> dirtyPins;
    /// Sorted pins whose location changed (cell moves) — their cones need
    /// fresh mask footprints.
    std::vector<netlist::PinId> movedPins;
    /// Sorted pins whose timing fanin changed: the sinks a buffer insertion
    /// moved onto its new net. Non-empty exactly when the netlist grew
    /// (pins and nets are only ever appended); the cones holding one are
    /// walked afresh and the pin graph is rebuilt.
    std::vector<netlist::PinId> rewiredPins;
  };

  struct ConeUpdateResult {
    std::shared_ptr<const ServableDesign> design;
    /// Endpoints (indices in endpoint order) whose predictions may have
    /// moved: their cone intersects dirtyPins or their masked image
    /// changed. Everything else is guaranteed bit-identical.
    std::vector<std::int64_t> dirtyEndpoints;
    std::int64_t imagesReused = 0;
    std::int64_t imagesRebuilt = 0;
    /// Endpoint cones walked afresh: those holding a rewired pin. Every
    /// other cone was carried from the prior snapshot.
    std::int64_t conesWalked = 0;
    /// True when `key` had no prior snapshot, so the update was a cold
    /// build.
    bool structuralRebuild = false;
  };

  /// Rebuild the snapshot under `key` incrementally from the previous one
  /// and store it under `revision`, for every edit kind. Shares with the
  /// previous snapshot every pin-feature block without a dirty row (a
  /// buffer insertion appends its pins' rows), the cones without a rewired
  /// pin, the pin graph and paths when nothing was rewired (and, for the
  /// paths, moved) and the RUDY and macro channels when nothing moved or
  /// was rewired, and reuses masked images whose inputs are untouched by
  /// the edit; the result is bitwise identical to a cold build() of the
  /// same netlist. Only a key without a prior snapshot takes the cold
  /// build.
  ConeUpdateResult applyConeUpdate(const std::string& key,
                                   const std::string& revision,
                                   const ConeUpdate& update);

  /// Re-install a previously built snapshot under `key`/`revision` without
  /// any rebuild — the revert path of a what-if session.
  void installSnapshot(const std::string& key, const std::string& revision,
                       std::shared_ptr<const ServableDesign> design);

  /// Incremental-update counters (relaxed, like the hit/miss pair):
  /// cone updates applied, of which cold builds (no prior snapshot), and
  /// how many per-endpoint cache entries the updates reused vs evicted.
  std::uint64_t coneUpdates() const {
    return coneUpdates_.load(std::memory_order_relaxed);
  }
  std::uint64_t coneStructuralRebuilds() const {
    return coneStructuralRebuilds_.load(std::memory_order_relaxed);
  }
  std::uint64_t coneEndpointsReused() const {
    return coneEndpointsReused_.load(std::memory_order_relaxed);
  }
  std::uint64_t coneEndpointsEvicted() const {
    return coneEndpointsEvicted_.load(std::memory_order_relaxed);
  }

  std::uint64_t cacheHits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t cacheMisses() const {
    return misses_.load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<const ServableDesign> build(
      const netlist::Netlist& netlist, netlist::TechNode node,
      const place::PlacementResult& placement) const;

  BundleManifest manifest_;
  std::vector<std::unique_ptr<netlist::CellLibrary>> libraries_;  // by node
  std::unique_ptr<netlist::GateTypeVocabulary> vocab_;
  std::unique_ptr<features::FeatureBuilder> featureBuilder_;

  struct CacheEntry {
    std::string fingerprint;
    std::shared_ptr<const ServableDesign> design;
  };
  mutable std::mutex mutex_;
  std::unordered_map<std::string, CacheEntry> cache_;  // GUARDED_BY(mutex_)
  // Relaxed atomics, not guarded fields: cacheHits()/cacheMisses() are read
  // from metrics snapshots concurrently with lookups on worker threads.
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> coneUpdates_{0};
  std::atomic<std::uint64_t> coneStructuralRebuilds_{0};
  std::atomic<std::uint64_t> coneEndpointsReused_{0};
  std::atomic<std::uint64_t> coneEndpointsEvicted_{0};
};

}  // namespace dagt::serve
