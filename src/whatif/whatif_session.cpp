#include "whatif/whatif_session.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.hpp"
#include "obs/trace.hpp"

namespace dagt::whatif {

using netlist::CellId;
using netlist::NetId;
using netlist::PinId;

namespace {

void sortUnique(std::vector<PinId>& pins) {
  std::sort(pins.begin(), pins.end());
  pins.erase(std::unique(pins.begin(), pins.end()), pins.end());
}

}  // namespace

WhatIfSession::WhatIfSession(serve::PredictionEngine& engine, std::string key,
                             netlist::Netlist netlist, netlist::TechNode node,
                             place::PlacementResult placement)
    : engine_(engine),
      key_(std::move(key)),
      node_(node),
      placement_(std::move(placement)),
      netlist_(std::move(netlist)),
      baselineNetlist_(netlist_) {
  rebuildSta();
  numEndpoints_ =
      engine_.loadDesign(key_, netlist_, node_, placement_, revision());
  baselineSnapshot_ = engine_.currentSnapshot(key_);
  baselineRevision_ = revision();
}

std::string WhatIfSession::revision() const {
  return "e" + std::to_string(editSerial_);
}

sta::RouteEstimator WhatIfSession::estimator() const {
  // The serving feature pipeline is built on the pre-routing snapshot, so
  // the overlay's parasitics use the same wire model.
  return sta::RouteEstimator(
      netlist_, nullptr,
      sta::RouteConfig{sta::WireModel::kPreRouting, 0.0f, 0.0f});
}

void WhatIfSession::rebuildSta() {
  if (sta_ != nullptr) {
    const sta::IncrementalStaStats& s = sta_->stats();
    retiredStats_.totalVisited += s.totalVisited;
    retiredStats_.fullRefreshes += s.fullRefreshes;
    retiredStats_.incrementalUpdates += s.incrementalUpdates;
    for (std::size_t i = 0; i < s.coneHist.size(); ++i) {
      retiredStats_.coneHist[i] += s.coneHist[i];
    }
  }
  sta_ = std::make_unique<sta::IncrementalSta>(netlist_,
                                               estimator().estimateAll());
}

void WhatIfSession::noteEdit() {
  ++edits_;
  ++editSerial_;
  pendingSync_ = true;
}

void WhatIfSession::markCellDirty(const CellId cellId) {
  const netlist::Cell& cell = netlist_.cell(cellId);
  std::vector<PinId> pins = cell.inputPins;
  if (cell.outputPin != netlist::kInvalidId) pins.push_back(cell.outputPin);
  for (const PinId p : pins) {
    dirtyPins_.push_back(p);
    const NetId netId = netlist_.pin(p).net;
    if (netId == netlist::kInvalidId) continue;
    const netlist::Net& net = netlist_.net(netId);
    if (net.driver != netlist::kInvalidId) dirtyPins_.push_back(net.driver);
    dirtyPins_.insert(dirtyPins_.end(), net.sinks.begin(), net.sinks.end());
  }
}

void WhatIfSession::markPinsDirty(const std::vector<PinId>& pins) {
  dirtyPins_.insert(dirtyPins_.end(), pins.begin(), pins.end());
}

bool WhatIfSession::resizeCell(const CellId cell, const bool up) {
  DAGT_TRACE_SCOPE("whatif/edit");
  DAGT_CHECK_MSG(cell >= 0 && cell < netlist_.numCells(),
                 "resize: cell " << cell << " out of range");
  const netlist::CellTypeId variant =
      up ? sta::upsizedVariant(netlist_, cell)
         : sta::downsizedVariant(netlist_, cell);
  if (variant == netlist::kInvalidCellType) return false;
  netlist_.resizeCell(cell, variant);
  sta_->onCellResized(cell);
  markCellDirty(cell);
  markPinsDirty(sta_->lastChangedPins());
  noteEdit();
  return true;
}

void WhatIfSession::moveCell(const CellId cell, const Point to) {
  DAGT_TRACE_SCOPE("whatif/edit");
  DAGT_CHECK_MSG(cell >= 0 && cell < netlist_.numCells(),
                 "move: cell " << cell << " out of range");
  const Rect& die = placement_.dieArea;
  DAGT_CHECK_MSG(std::isfinite(to.x) && std::isfinite(to.y) &&
                     die.contains(to),
                 "move: target (" << to.x << ", " << to.y
                                  << ") is outside the die (" << die.lo.x
                                  << ", " << die.lo.y << ")-(" << die.hi.x
                                  << ", " << die.hi.y << ")");
  netlist_.setCellLocation(cell, to);
  const sta::RouteEstimator est = estimator();
  sta_->onCellMoved(cell, est);
  markCellDirty(cell);
  markPinsDirty(sta_->lastChangedPins());
  const netlist::Cell& c = netlist_.cell(cell);
  movedPins_.insert(movedPins_.end(), c.inputPins.begin(), c.inputPins.end());
  if (c.outputPin != netlist::kInvalidId) movedPins_.push_back(c.outputPin);
  noteEdit();
}

sta::BufferInsertion WhatIfSession::insertBuffer(const NetId net) {
  DAGT_TRACE_SCOPE("whatif/edit");
  DAGT_CHECK_MSG(net >= 0 && net < netlist_.numNets(),
                 "buffer: net " << net << " out of range");
  const sta::BufferInsertion result = sta::insertFanoutBuffer(netlist_, net);
  if (!result.inserted) return result;
  const sta::RouteEstimator est = estimator();
  sta_->onStructureChanged({net}, est);
  markCellDirty(result.buffer);
  markPinsDirty(sta_->lastChangedPins());
  const std::vector<PinId>& moved = netlist_.net(result.bufNet).sinks;
  rewiredPins_.insert(rewiredPins_.end(), moved.begin(), moved.end());
  noteEdit();
  return result;
}

void WhatIfSession::sync() {
  if (!pendingSync_) return;
  DAGT_TRACE_SCOPE("whatif/sync");
  sortUnique(dirtyPins_);
  sortUnique(movedPins_);
  sortUnique(rewiredPins_);
  // The update reads the session's own netlist, placement and timing in
  // place: the snapshot it builds keeps none of them.
  const serve::FeatureService::ConeUpdate update{netlist_,
                                                 node_,
                                                 placement_,
                                                 sta_->timing(),
                                                 std::move(dirtyPins_),
                                                 std::move(movedPins_),
                                                 std::move(rewiredPins_)};
  lastSync_ = engine_.applyConeUpdate(key_, revision(), update);
  numEndpoints_ = lastSync_.design->numEndpoints();
  dirtyPins_.clear();
  movedPins_.clear();
  rewiredPins_.clear();
  pendingSync_ = false;
}

std::vector<float> WhatIfSession::predict(
    const std::vector<std::int64_t>& endpoints) {
  sync();
  DAGT_TRACE_SCOPE("whatif/repredict");
  ++repredicts_;
  return engine_.predictEndpoints(key_, endpoints);
}

std::vector<float> WhatIfSession::predictAll() {
  sync();
  std::vector<std::int64_t> all(static_cast<std::size_t>(numEndpoints_));
  std::iota(all.begin(), all.end(), std::int64_t{0});
  DAGT_TRACE_SCOPE("whatif/repredict");
  ++repredicts_;
  return engine_.predictEndpoints(key_, all);
}

void WhatIfSession::commit() {
  sync();
  baselineNetlist_ = netlist_;
  baselineSnapshot_ = engine_.currentSnapshot(key_);
  baselineRevision_ = revision();
}

void WhatIfSession::revert() {
  netlist_ = baselineNetlist_;
  rebuildSta();
  dirtyPins_.clear();
  movedPins_.clear();
  rewiredPins_.clear();
  pendingSync_ = false;
  ++editSerial_;
  engine_.installSnapshot(key_, baselineRevision_, baselineSnapshot_);
  numEndpoints_ = baselineSnapshot_->numEndpoints();
  lastSync_ = serve::FeatureService::ConeUpdateResult{};
}

sta::IncrementalStaStats WhatIfSession::staStats() const {
  sta::IncrementalStaStats out = retiredStats_;
  const sta::IncrementalStaStats& s = sta_->stats();
  out.lastVisited = s.lastVisited;
  out.totalVisited += s.totalVisited;
  out.fullRefreshes += s.fullRefreshes;
  out.incrementalUpdates += s.incrementalUpdates;
  for (std::size_t i = 0; i < s.coneHist.size(); ++i) {
    out.coneHist[i] += s.coneHist[i];
  }
  return out;
}

serve::MetricsSnapshot WhatIfSession::metrics() const {
  serve::MetricsSnapshot snap = engine_.metrics();
  snap.whatifEdits = edits_;
  snap.whatifRepredicts = repredicts_;
  const sta::IncrementalStaStats s = staStats();
  snap.staFullRefreshes = s.fullRefreshes;
  snap.staIncrementalUpdates = s.incrementalUpdates;
  snap.staPinsVisitedLast = s.lastVisited;
  snap.staPinsVisitedTotal = s.totalVisited;
  snap.staConeHist.assign(s.coneHist.begin(), s.coneHist.end());
  if (obs::tracingEnabled()) {
    for (const char* prefix : {"whatif/", "sta/"}) {
      const auto spans = obs::TraceRegistry::global().aggregate(prefix);
      snap.traceSpans.insert(snap.traceSpans.end(), spans.begin(),
                             spans.end());
    }
  }
  return snap;
}

}  // namespace dagt::whatif
