#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "netlist/netlist.hpp"
#include "sta/pin_eval.hpp"
#include "sta/route_estimator.hpp"
#include "sta/sta_engine.hpp"

namespace dagt::sta {

/// Incremental-STA counters: what the engine did since construction and in
/// its most recent update. Surfaced through serve metrics (see
/// docs/metrics-reference.md) and the what-if bench.
struct IncrementalStaStats {
  /// Pins re-evaluated by the most recent update.
  std::int64_t lastVisited = 0;
  /// Pins re-evaluated across every update so far (full refreshes count
  /// the whole design).
  std::int64_t totalVisited = 0;
  /// Updates answered by re-running the full sweep (construction included).
  std::uint64_t fullRefreshes = 0;
  /// Incremental updates answered by cone propagation.
  std::uint64_t incrementalUpdates = 0;
  /// Dirty-cone size histogram over incremental updates: bucket i counts
  /// updates that visited [2^i, 2^(i+1)) pins (bucket 0 is 0-1 pins; the
  /// last bucket absorbs everything larger).
  static constexpr std::size_t kConeHistBuckets = 16;
  std::array<std::uint64_t, kConeHistBuckets> coneHist{};
};

/// Incremental static timing: after a local netlist edit, re-evaluates only
/// the transitive fanout cone of the changed pins instead of sweeping the
/// whole design.
///
/// This is the engine primitive behind fast inner-loop optimization
/// (edit -> query -> accept/reject): on a typical design a single edit
/// touches a small fraction of the pins. Results are exactly equal to a
/// full StaEngine::run because both apply the same PinEvaluator in
/// topological order, and the cone is pruned only where recomputed values
/// are bit-identical.
///
/// Supported edits: cell resize (onCellResized), cell move with
/// re-estimated parasitics (onCellMoved), and structural growth such as
/// buffer insertion (onStructureChanged — new pins/nets appended to the
/// tracked netlist). Between notifications the tracked netlist must not
/// change.
class IncrementalSta {
 public:
  IncrementalSta(const netlist::Netlist& netlist,
                 std::vector<NetParasitics> parasitics);

  /// Current timing view (always consistent with the netlist state).
  const TimingResult& timing() const { return result_; }
  /// Parasitics the view is based on (kept in sync with move/structure
  /// edits) — lets a caller snapshot or re-derive per-net loads.
  const std::vector<NetParasitics>& parasitics() const { return parasitics_; }

  /// Notify that `cell` was resized (same function, different drive):
  /// updates the loads of its fanin nets and re-propagates the dirty cone.
  void onCellResized(netlist::CellId cell);

  /// Notify that `cell` was moved: re-estimates the parasitics of every
  /// net touching the cell with `estimator` (which must read the tracked
  /// netlist's current locations) and re-propagates.
  void onCellMoved(netlist::CellId cell, const RouteEstimator& estimator);

  /// Notify that the netlist grew (e.g. a buffer was inserted): new pins
  /// and nets were appended and `touchedNets` existing nets were rewired.
  /// Rebuilds the topological order and the evaluator (O(pins + edges)),
  /// re-estimates touched + new nets, and propagates from their pins.
  void onStructureChanged(const std::vector<netlist::NetId>& touchedNets,
                          const RouteEstimator& estimator);

  /// Pins re-evaluated by the most recent update (diagnostics / tests).
  std::int64_t lastUpdateVisited() const { return stats_.lastVisited; }
  /// Pins whose arrival or slew actually changed in the most recent
  /// update (ascending pin id); after onStructureChanged the new pins too.
  /// After fullRefresh this is every pin.
  const std::vector<netlist::PinId>& lastChangedPins() const {
    return lastChanged_;
  }
  const IncrementalStaStats& stats() const { return stats_; }

  /// Recompute everything from scratch (reference path; also used at
  /// construction).
  void fullRefresh();

 private:
  void rebuildTopology();
  void propagateFrom(std::vector<netlist::PinId> seeds);
  void refreshWorstArrival();
  void markAllChanged();

  const netlist::Netlist* netlist_;
  std::vector<NetParasitics> parasitics_;
  std::unique_ptr<detail::PinEvaluator> evaluator_;
  TimingResult result_;
  std::vector<std::int32_t> topoPosition_;           // pin -> order index
  std::vector<netlist::PinId> topoOrder_;            // order index -> pin
  netlist::TimingFanout fanout_;                     // timing-graph fanout
  std::vector<netlist::PinId> lastChanged_;
  IncrementalStaStats stats_;
};

}  // namespace dagt::sta
