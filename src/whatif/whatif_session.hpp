#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "place/placer.hpp"
#include "serve/prediction_engine.hpp"
#include "sta/incremental_sta.hpp"
#include "sta/netlist_edits.hpp"

namespace dagt::whatif {

/// Interactive ECO ("engineering change order") session over one loaded
/// design: a mutable netlist overlay with incremental STA underneath and
/// the serving stack's prediction engine on top.
///
/// Edits (cell resize, cell move, fanout buffering) apply to the overlay
/// immediately and update timing through the dirty cone only. Feature
/// re-extraction is deferred until the next prediction (`sync()`), which
/// pushes one ConeUpdate covering the whole batch of edits — so a burst of
/// edits costs one incremental feature pass, not one per edit.
///
/// Determinism contract: after any edit sequence, predictions served
/// through this session are bitwise identical to loading the edited
/// netlist cold and predicting (same engine, same bundle). That is what
/// makes a what-if answer trustworthy: it is the *model's* answer, not an
/// approximation of it.
///
/// `commit()` makes the current state the new baseline; `revert()` drops
/// everything since the last commit and re-installs the baseline snapshot
/// without rebuilding features.
class WhatIfSession {
 public:
  /// The engine must already have a bundle registered for `node`. Loads
  /// the design into the engine under `key` (the initial full build) and
  /// takes that as the first baseline.
  WhatIfSession(serve::PredictionEngine& engine, std::string key,
                netlist::Netlist netlist, netlist::TechNode node,
                place::PlacementResult placement);

  WhatIfSession(const WhatIfSession&) = delete;
  WhatIfSession& operator=(const WhatIfSession&) = delete;

  // -- Edits -----------------------------------------------------------------

  /// Swap a cell to the next-larger (`up`) or next-smaller drive variant
  /// of the same function. Returns false (and leaves the design untouched)
  /// when no such variant exists.
  bool resizeCell(netlist::CellId cell, bool up);

  /// Move a cell; parasitics of every net touching it are re-estimated.
  /// A non-finite target, or one outside the die (its boundary counts as
  /// inside), is a CheckError and leaves the design untouched.
  void moveCell(netlist::CellId cell, Point to);

  /// Split a high-fanout net behind a new buffer (see
  /// sta::insertFanoutBuffer). The next sync appends the buffer's pins,
  /// rebuilds the pin graph and the layout maps, and re-walks only the
  /// cones that hold a moved sink.
  sta::BufferInsertion insertBuffer(netlist::NetId net);

  // -- Queries ---------------------------------------------------------------

  /// Predicted sign-off arrivals (ps) for the given endpoint indices,
  /// against the current edited state (syncs first).
  std::vector<float> predict(const std::vector<std::int64_t>& endpoints);
  /// All endpoints in endpoint order.
  std::vector<float> predictAll();

  /// Push pending edits into the serving stack (feature re-extraction for
  /// the dirty cone + snapshot swap). No-op when nothing changed since the
  /// last sync. predict() calls this implicitly.
  void sync();

  // -- Baseline --------------------------------------------------------------

  /// Make the current edited state the new baseline.
  void commit();
  /// Drop all edits since the last commit: restores the baseline netlist,
  /// rebuilds the incremental STA (a counted full refresh) and re-installs
  /// the baseline serving snapshot without rebuilding features.
  void revert();

  // -- Introspection ---------------------------------------------------------

  const std::string& key() const { return key_; }
  const netlist::Netlist& netlist() const { return netlist_; }
  const sta::TimingResult& timing() const { return sta_->timing(); }
  std::int64_t numEndpoints() const { return numEndpoints_; }
  std::uint64_t edits() const { return edits_; }

  /// Incremental-STA counters, accumulated across reverts (each revert
  /// retires one IncrementalSta instance).
  sta::IncrementalStaStats staStats() const;

  /// Result of the most recent sync (zero-value before the first).
  const serve::FeatureService::ConeUpdateResult& lastSync() const {
    return lastSync_;
  }

  /// Engine metrics augmented with this session's what-if counters,
  /// incremental-STA stats and (when tracing is on) the whatif/ and sta/
  /// span aggregates.
  serve::MetricsSnapshot metrics() const;

 private:
  std::string revision() const;
  sta::RouteEstimator estimator() const;
  void rebuildSta();
  /// Mark every pin electrically adjacent to `cell` dirty: its own pins
  /// plus the drivers and sinks of every net they touch (their loads,
  /// delays or parasitics changed with the edit).
  void markCellDirty(netlist::CellId cell);
  void markPinsDirty(const std::vector<netlist::PinId>& pins);
  void noteEdit();

  serve::PredictionEngine& engine_;
  std::string key_;
  netlist::TechNode node_;
  place::PlacementResult placement_;
  netlist::Netlist netlist_;
  std::unique_ptr<sta::IncrementalSta> sta_;
  std::int64_t numEndpoints_ = 0;

  // Pending-edit state, cleared by sync().
  std::vector<netlist::PinId> dirtyPins_;
  std::vector<netlist::PinId> movedPins_;
  std::vector<netlist::PinId> rewiredPins_;  // sinks a buffer moved
  bool pendingSync_ = false;

  // Baseline for revert().
  netlist::Netlist baselineNetlist_;
  std::shared_ptr<const serve::ServableDesign> baselineSnapshot_;
  std::string baselineRevision_;

  std::uint64_t editSerial_ = 0;
  std::uint64_t edits_ = 0;
  std::uint64_t repredicts_ = 0;
  sta::IncrementalStaStats retiredStats_;  // from pre-revert STA instances
  serve::FeatureService::ConeUpdateResult lastSync_;
};

}  // namespace dagt::whatif
