#include "netlist/netlist.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace dagt::netlist {

Netlist::Netlist(const CellLibrary* library, std::string name)
    : library_(library), name_(std::move(name)) {
  DAGT_CHECK(library_ != nullptr);
}

PinId Netlist::addPin(Pin pin) {
  const PinId id = static_cast<PinId>(pins_.size());
  pins_.push_back(pin);
  portLocations_.push_back({});
  return id;
}

PinId Netlist::addPrimaryInput() {
  const PinId id = addPin({PinKind::kPrimaryInput, kInvalidId, kInvalidId, -1});
  primaryInputs_.push_back(id);
  return id;
}

PinId Netlist::addPrimaryOutput() {
  const PinId id =
      addPin({PinKind::kPrimaryOutput, kInvalidId, kInvalidId, -1});
  primaryOutputs_.push_back(id);
  return id;
}

CellId Netlist::addCell(CellTypeId type) {
  const CellType& ct = library_->cell(type);
  const CellId id = static_cast<CellId>(cells_.size());
  Cell c;
  c.type = type;
  for (std::int32_t i = 0; i < ct.numInputs; ++i) {
    c.inputPins.push_back(addPin({PinKind::kCellInput, id, kInvalidId, i}));
  }
  c.outputPin = addPin({PinKind::kCellOutput, id, kInvalidId, -1});
  cells_.push_back(std::move(c));
  return id;
}

NetId Netlist::addNet(PinId driver) {
  const Pin& d = pin(driver);
  DAGT_CHECK_MSG(d.kind == PinKind::kPrimaryInput ||
                     d.kind == PinKind::kCellOutput,
                 "net driver must be a PI port or cell output");
  DAGT_CHECK_MSG(d.net == kInvalidId, "driver pin already drives a net");
  const NetId id = static_cast<NetId>(nets_.size());
  nets_.push_back({driver, {}});
  pins_[static_cast<std::size_t>(driver)].net = id;
  return id;
}

void Netlist::connectSink(NetId netId, PinId sink) {
  DAGT_CHECK(netId >= 0 && netId < numNets());
  const Pin& s = pin(sink);
  DAGT_CHECK_MSG(s.kind == PinKind::kPrimaryOutput ||
                     s.kind == PinKind::kCellInput,
                 "net sink must be a PO port or cell input");
  DAGT_CHECK_MSG(s.net == kInvalidId, "sink pin already connected");
  nets_[static_cast<std::size_t>(netId)].sinks.push_back(sink);
  pins_[static_cast<std::size_t>(sink)].net = netId;
}

void Netlist::moveSink(PinId sink, NetId toNet) {
  const Pin& s = pin(sink);
  DAGT_CHECK_MSG(s.net != kInvalidId, "moveSink: pin not connected");
  auto& oldSinks = nets_[static_cast<std::size_t>(s.net)].sinks;
  const auto it = std::find(oldSinks.begin(), oldSinks.end(), sink);
  DAGT_CHECK(it != oldSinks.end());
  oldSinks.erase(it);
  pins_[static_cast<std::size_t>(sink)].net = kInvalidId;
  connectSink(toNet, sink);
}

void Netlist::resizeCell(CellId cellId, CellTypeId newType) {
  DAGT_CHECK(cellId >= 0 && cellId < numCells());
  Cell& c = cells_[static_cast<std::size_t>(cellId)];
  const CellType& oldType = library_->cell(c.type);
  const CellType& nt = library_->cell(newType);
  DAGT_CHECK_MSG(nt.function == oldType.function,
                 "resizeCell must preserve the logic function");
  c.type = newType;
}

void Netlist::setCellLocation(CellId cellId, Point location) {
  DAGT_CHECK(cellId >= 0 && cellId < numCells());
  cells_[static_cast<std::size_t>(cellId)].location = location;
  cells_[static_cast<std::size_t>(cellId)].placed = true;
}

void Netlist::setPortLocation(PinId port, Point location) {
  const Pin& p = pin(port);
  DAGT_CHECK_MSG(p.kind == PinKind::kPrimaryInput ||
                     p.kind == PinKind::kPrimaryOutput,
                 "setPortLocation on a non-port pin");
  portLocations_[static_cast<std::size_t>(port)] = location;
}

Point Netlist::pinLocation(PinId pinId) const {
  const Pin& p = pin(pinId);
  if (p.cell != kInvalidId) {
    return cells_[static_cast<std::size_t>(p.cell)].location;
  }
  return portLocations_[static_cast<std::size_t>(pinId)];
}

const Pin& Netlist::pin(PinId id) const {
  DAGT_CHECK_MSG(id >= 0 && id < numPins(), "pin id " << id);
  return pins_[static_cast<std::size_t>(id)];
}

const Cell& Netlist::cell(CellId id) const {
  DAGT_CHECK_MSG(id >= 0 && id < numCells(), "cell id " << id);
  return cells_[static_cast<std::size_t>(id)];
}

const Net& Netlist::net(NetId id) const {
  DAGT_CHECK_MSG(id >= 0 && id < numNets(), "net id " << id);
  return nets_[static_cast<std::size_t>(id)];
}

const CellType& Netlist::cellTypeOf(CellId id) const {
  return library_->cell(cell(id).type);
}

std::vector<PinId> Netlist::endpoints() const {
  std::vector<PinId> result;
  for (const PinId po : primaryOutputs_) result.push_back(po);
  for (const auto& c : cells_) {
    if (library_->cell(c.type).isSequential) {
      for (const PinId in : c.inputPins) result.push_back(in);
    }
  }
  return result;
}

std::vector<PinId> Netlist::startpoints() const {
  std::vector<PinId> result;
  for (const PinId pi : primaryInputs_) result.push_back(pi);
  for (const auto& c : cells_) {
    if (library_->cell(c.type).isSequential) result.push_back(c.outputPin);
  }
  return result;
}

std::span<const PinId> Netlist::timingFanin(PinId pinId) const {
  const Pin& p = pin(pinId);
  switch (p.kind) {
    case PinKind::kPrimaryInput:
      return {};  // startpoint
    case PinKind::kPrimaryOutput:
    case PinKind::kCellInput:
      if (p.net == kInvalidId) return {};
      return {&nets_[static_cast<std::size_t>(p.net)].driver, 1};
    case PinKind::kCellOutput: {
      const Cell& c = cells_[static_cast<std::size_t>(p.cell)];
      if (library_->cell(c.type).isSequential) return {};
      return c.inputPins;  // combinational arcs only
    }
  }
  return {};
}

TimingFanout Netlist::timingFanout() const {
  const std::size_t n = pins_.size();
  TimingFanout fanout;
  fanout.offsets.assign(n + 1, 0);
  for (PinId p = 0; p < static_cast<PinId>(n); ++p) {
    for (const PinId f : timingFanin(p)) {
      ++fanout.offsets[static_cast<std::size_t>(f) + 1];
    }
  }
  for (std::size_t p = 0; p < n; ++p) {
    fanout.offsets[p + 1] += fanout.offsets[p];
  }
  // Filling in pin order keeps each pin's fanout ascending.
  fanout.pins.resize(static_cast<std::size_t>(fanout.offsets[n]));
  std::vector<std::int32_t> next(fanout.offsets.begin(),
                                 fanout.offsets.end() - 1);
  for (PinId p = 0; p < static_cast<PinId>(n); ++p) {
    for (const PinId f : timingFanin(p)) {
      fanout.pins[static_cast<std::size_t>(
          next[static_cast<std::size_t>(f)]++)] = p;
    }
  }
  return fanout;
}

std::vector<PinId> Netlist::topologicalPinOrder() const {
  return topologicalPinOrder(timingFanout());
}

std::vector<PinId> Netlist::topologicalPinOrder(
    const TimingFanout& fanout) const {
  const std::int64_t n = numPins();
  // Kahn's algorithm over the timing graph.
  std::vector<std::int32_t> pendingFanin(static_cast<std::size_t>(n), 0);
  for (const PinId out : fanout.pins) {
    ++pendingFanin[static_cast<std::size_t>(out)];
  }
  std::vector<PinId> order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<PinId> ready;
  for (PinId p = 0; p < n; ++p) {
    if (pendingFanin[static_cast<std::size_t>(p)] == 0) ready.push_back(p);
  }
  while (!ready.empty()) {
    const PinId p = ready.back();
    ready.pop_back();
    order.push_back(p);
    for (const PinId out : fanout.of(p)) {
      if (--pendingFanin[static_cast<std::size_t>(out)] == 0) {
        ready.push_back(out);
      }
    }
  }
  DAGT_CHECK_MSG(static_cast<std::int64_t>(order.size()) == n,
                 "timing graph has a combinational cycle ("
                     << order.size() << " of " << n << " pins ordered)");
  return order;
}

Netlist::Stats Netlist::stats() const {
  Stats s;
  s.numPins = numPins();
  s.numEndpoints = static_cast<std::int64_t>(endpoints().size());
  for (const auto& nt : nets_) {
    s.numNetEdges += static_cast<std::int64_t>(nt.sinks.size());
  }
  for (const auto& c : cells_) {
    if (!library_->cell(c.type).isSequential) {
      s.numCellEdges += static_cast<std::int64_t>(c.inputPins.size());
    }
  }
  return s;
}

void Netlist::validate() const {
  for (PinId p = 0; p < numPins(); ++p) {
    const Pin& pn = pin(p);
    DAGT_CHECK_MSG(pn.net != kInvalidId,
                   name_ << ": pin " << p << " is unconnected");
  }
  for (NetId n = 0; n < numNets(); ++n) {
    const Net& nt = net(n);
    DAGT_CHECK_MSG(nt.driver != kInvalidId, name_ << ": net " << n
                                                  << " has no driver");
    DAGT_CHECK_MSG(!nt.sinks.empty(), name_ << ": net " << n
                                            << " has no sinks");
  }
  // Topological order doubles as a cycle check.
  (void)topologicalPinOrder();
}

}  // namespace dagt::netlist
