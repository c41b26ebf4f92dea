#include "sta/incremental_sta.hpp"

#include <algorithm>
#include <queue>

#include "common/check.hpp"
#include "obs/trace.hpp"

namespace dagt::sta {

using netlist::CellId;
using netlist::NetId;
using netlist::Netlist;
using netlist::PinId;

IncrementalSta::IncrementalSta(const Netlist& nl,
                               std::vector<NetParasitics> parasitics)
    : netlist_(&nl), parasitics_(std::move(parasitics)) {
  evaluator_ = std::make_unique<detail::PinEvaluator>(nl, parasitics_);
  rebuildTopology();
  fullRefresh();
}

void IncrementalSta::rebuildTopology() {
  const Netlist& nl = *netlist_;
  fanout_ = nl.timingFanout();
  topoOrder_ = nl.topologicalPinOrder(fanout_);
  topoPosition_.assign(static_cast<std::size_t>(nl.numPins()), 0);
  for (std::size_t i = 0; i < topoOrder_.size(); ++i) {
    topoPosition_[static_cast<std::size_t>(topoOrder_[i])] =
        static_cast<std::int32_t>(i);
  }
}

void IncrementalSta::markAllChanged() {
  lastChanged_.resize(static_cast<std::size_t>(netlist_->numPins()));
  for (PinId p = 0; p < netlist_->numPins(); ++p) {
    lastChanged_[static_cast<std::size_t>(p)] = p;
  }
}

void IncrementalSta::fullRefresh() {
  result_ = StaEngine::run(*netlist_, parasitics_);
  stats_.lastVisited = netlist_->numPins();
  stats_.totalVisited += netlist_->numPins();
  ++stats_.fullRefreshes;
  markAllChanged();
}

void IncrementalSta::onCellResized(CellId cellId) {
  const Netlist& nl = *netlist_;
  const auto& cell = nl.cell(cellId);

  // A resize changes this cell's input pin capacitances, hence (a) the
  // load of every fanin net — their drivers' arrival/slew must be
  // re-evaluated, (b) the Elmore wire delay *into each input pin* (the
  // sink capacitance term changed even if the driver did not — e.g. a
  // primary-input driver is load-independent), and (c) the cell's own
  // arcs (drive resistance / intrinsic delay).
  std::vector<PinId> seeds;
  for (const PinId in : cell.inputPins) {
    const auto net = nl.pin(in).net;
    if (net == netlist::kInvalidId) continue;
    evaluator_->refreshLoad(net, result_);
    seeds.push_back(nl.net(net).driver);
    seeds.push_back(in);
  }
  seeds.push_back(cell.outputPin);
  propagateFrom(std::move(seeds));
}

void IncrementalSta::onCellMoved(CellId cellId,
                                 const RouteEstimator& estimator) {
  const Netlist& nl = *netlist_;
  const auto& cell = nl.cell(cellId);

  // Every net touching the moved cell gets new wire parasitics: segment
  // lengths into each of its sinks changed, so re-estimate the whole net,
  // refresh its load (totalWireCap moved) and re-evaluate its driver and
  // every sink (each sink's wire delay changed).
  std::vector<NetId> nets;
  for (const PinId in : cell.inputPins) {
    const auto net = nl.pin(in).net;
    if (net != netlist::kInvalidId) nets.push_back(net);
  }
  const auto outNet = nl.pin(cell.outputPin).net;
  if (outNet != netlist::kInvalidId) nets.push_back(outNet);
  std::sort(nets.begin(), nets.end());
  nets.erase(std::unique(nets.begin(), nets.end()), nets.end());

  std::vector<PinId> seeds;
  for (const NetId net : nets) {
    parasitics_[static_cast<std::size_t>(net)] = estimator.estimate(net);
    evaluator_->reindexNet(net);
    evaluator_->refreshLoad(net, result_);
    seeds.push_back(nl.net(net).driver);
    for (const PinId sink : nl.net(net).sinks) seeds.push_back(sink);
  }
  propagateFrom(std::move(seeds));
}

void IncrementalSta::onStructureChanged(const std::vector<NetId>& touchedNets,
                                        const RouteEstimator& estimator) {
  const Netlist& nl = *netlist_;
  const PinId oldPins = static_cast<PinId>(result_.arrival.size());
  const NetId oldNets = static_cast<NetId>(parasitics_.size());
  DAGT_CHECK_MSG(nl.numPins() >= oldPins && nl.numNets() >= oldNets,
                 "onStructureChanged: the tracked netlist shrank");

  // The graph changed shape: rebuild order/fanout and extend the result
  // arrays with the same defaults the full sweep starts from.
  rebuildTopology();
  result_.arrival.resize(static_cast<std::size_t>(nl.numPins()), 0.0f);
  result_.slew.resize(static_cast<std::size_t>(nl.numPins()),
                      nl.library().defaultInputSlew());
  result_.loadCap.resize(static_cast<std::size_t>(nl.numPins()), 0.0f);

  // Re-estimate rewired and brand-new nets, then rebuild the evaluator so
  // its sink-wire lookup covers the new pins.
  parasitics_.resize(static_cast<std::size_t>(nl.numNets()));
  std::vector<NetId> dirtyNets = touchedNets;
  for (NetId net = oldNets; net < nl.numNets(); ++net) {
    dirtyNets.push_back(net);
  }
  std::sort(dirtyNets.begin(), dirtyNets.end());
  dirtyNets.erase(std::unique(dirtyNets.begin(), dirtyNets.end()),
                  dirtyNets.end());
  for (const NetId net : dirtyNets) {
    parasitics_[static_cast<std::size_t>(net)] = estimator.estimate(net);
  }
  evaluator_ = std::make_unique<detail::PinEvaluator>(nl, parasitics_);

  std::vector<PinId> seeds;
  for (const NetId net : dirtyNets) {
    evaluator_->refreshLoad(net, result_);
    seeds.push_back(nl.net(net).driver);
    for (const PinId sink : nl.net(net).sinks) seeds.push_back(sink);
  }
  for (PinId p = oldPins; p < nl.numPins(); ++p) seeds.push_back(p);
  propagateFrom(std::move(seeds));
  // The new pins count as changed whatever values they settled on: they
  // are the highest ids, so they replace the tail of the sorted list.
  lastChanged_.erase(std::lower_bound(lastChanged_.begin(),
                                      lastChanged_.end(), oldPins),
                     lastChanged_.end());
  for (PinId p = oldPins; p < nl.numPins(); ++p) lastChanged_.push_back(p);
}

void IncrementalSta::propagateFrom(std::vector<PinId> seeds) {
  DAGT_TRACE_SCOPE("sta/propagate");
  // Min-heap over topological position so every pin is evaluated after all
  // of its dirty fanins — identical ordering discipline to the full sweep.
  using Entry = std::pair<std::int32_t, PinId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue;
  std::vector<std::uint8_t> enqueued(
      static_cast<std::size_t>(netlist_->numPins()), 0);
  for (const PinId s : seeds) {
    if (!enqueued[static_cast<std::size_t>(s)]) {
      enqueued[static_cast<std::size_t>(s)] = 1;
      queue.emplace(topoPosition_[static_cast<std::size_t>(s)], s);
    }
  }

  std::int64_t visited = 0;
  lastChanged_.clear();
  while (!queue.empty()) {
    const PinId pin = queue.top().second;
    queue.pop();
    const std::size_t pi = static_cast<std::size_t>(pin);
    enqueued[pi] = 0;
    ++visited;

    const float oldArrival = result_.arrival[pi];
    const float oldSlew = result_.slew[pi];
    evaluator_->evaluatePin(pin, result_);
    // Exact comparison: the cone is pruned only where the recomputed
    // values are bit-identical, so the final state equals a full sweep
    // (evaluatePin is a pure function of fanin values and loads).
    if (result_.arrival[pi] == oldArrival && result_.slew[pi] == oldSlew) {
      continue;
    }
    lastChanged_.push_back(pin);
    for (const PinId out : fanout_.of(pin)) {
      if (!enqueued[static_cast<std::size_t>(out)]) {
        enqueued[static_cast<std::size_t>(out)] = 1;
        queue.emplace(topoPosition_[static_cast<std::size_t>(out)], out);
      }
    }
  }
  std::sort(lastChanged_.begin(), lastChanged_.end());

  stats_.lastVisited = visited;
  stats_.totalVisited += visited;
  ++stats_.incrementalUpdates;
  std::size_t bucket = 0;
  while ((std::int64_t{2} << bucket) <= visited &&
         bucket + 1 < IncrementalStaStats::kConeHistBuckets) {
    ++bucket;
  }
  ++stats_.coneHist[bucket];
  refreshWorstArrival();
}

void IncrementalSta::refreshWorstArrival() {
  result_.worstArrival = 0.0f;
  for (const PinId e : netlist_->endpoints()) {
    result_.worstArrival = std::max(
        result_.worstArrival, result_.arrival[static_cast<std::size_t>(e)]);
  }
}

}  // namespace dagt::sta
