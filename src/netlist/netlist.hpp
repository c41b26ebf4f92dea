#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/geometry.hpp"
#include "netlist/cell_library.hpp"

namespace dagt::netlist {

using CellId = std::int32_t;
using NetId = std::int32_t;
using PinId = std::int32_t;
constexpr std::int32_t kInvalidId = -1;

/// Role of a pin in the netlist / timing graph.
enum class PinKind : std::uint8_t {
  kPrimaryInput,   // design port, timing startpoint
  kPrimaryOutput,  // design port, timing endpoint
  kCellInput,
  kCellOutput,
};

struct Pin {
  PinKind kind = PinKind::kCellInput;
  CellId cell = kInvalidId;       // kInvalidId for ports
  NetId net = kInvalidId;         // net the pin connects to
  std::int32_t inputIndex = -1;   // slot among the cell's inputs
};

struct Cell {
  CellTypeId type = kInvalidCellType;
  std::vector<PinId> inputPins;
  PinId outputPin = kInvalidId;
  Point location;
  bool placed = false;
};

struct Net {
  PinId driver = kInvalidId;
  std::vector<PinId> sinks;
};

/// Timing-graph fanout in flat arrays: the fanout pins of pin p are
/// pins[offsets[p], offsets[p + 1]), ascending.
struct TimingFanout {
  std::vector<std::int32_t> offsets;  // numPins + 1 entries
  std::vector<PinId> pins;

  std::span<const PinId> of(PinId pin) const {
    const auto first = offsets[static_cast<std::size_t>(pin)];
    const auto last = offsets[static_cast<std::size_t>(pin) + 1];
    return {pins.data() + first, static_cast<std::size_t>(last - first)};
  }
};

/// Gate-level netlist bound to one technology node's CellLibrary.
///
/// The netlist is a pin-level timing graph:
///   * net edges: net driver -> each sink pin,
///   * cell edges: each combinational input pin -> the cell's output pin
///     (sequential cells have no D->Q arc; their Q output is a startpoint).
/// Construction is incremental (used by the technology mapper) and the
/// structure is mutable (used by the timing optimizer for resizing and
/// buffering — the "netlist restructuring" the predictor must tolerate).
class Netlist {
 public:
  Netlist(const CellLibrary* library, std::string name);

  // -- Construction ---------------------------------------------------------
  PinId addPrimaryInput();
  PinId addPrimaryOutput();
  /// New cell of the given library type with unconnected pins.
  CellId addCell(CellTypeId type);
  /// New net driven by `driver` (a PI port or a cell output pin).
  NetId addNet(PinId driver);
  /// Attach a sink (cell input or PO port) to a net.
  void connectSink(NetId net, PinId sink);
  /// Detach a sink from its current net and attach it to another.
  void moveSink(PinId sink, NetId toNet);
  /// Swap a cell to a different type realizing the same function arity.
  void resizeCell(CellId cell, CellTypeId newType);

  // -- Placement ------------------------------------------------------------
  void setCellLocation(CellId cell, Point location);
  void setPortLocation(PinId port, Point location);
  /// Location of any pin: its cell's location, or the port location.
  Point pinLocation(PinId pin) const;

  // -- Accessors ------------------------------------------------------------
  const CellLibrary& library() const { return *library_; }
  const std::string& name() const { return name_; }
  std::int64_t numPins() const { return static_cast<std::int64_t>(pins_.size()); }
  std::int64_t numCells() const { return static_cast<std::int64_t>(cells_.size()); }
  std::int64_t numNets() const { return static_cast<std::int64_t>(nets_.size()); }
  const Pin& pin(PinId id) const;
  const Cell& cell(CellId id) const;
  const Net& net(NetId id) const;
  const CellType& cellTypeOf(CellId id) const;
  const std::vector<PinId>& primaryInputs() const { return primaryInputs_; }
  const std::vector<PinId>& primaryOutputs() const { return primaryOutputs_; }

  /// Timing endpoints: DFF D-input pins and primary-output ports.
  std::vector<PinId> endpoints() const;
  /// Timing startpoints: primary-input ports and DFF Q-output pins.
  std::vector<PinId> startpoints() const;

  /// Pin ids in a topological order of the timing graph.
  /// Throws CheckError if the combinational graph has a cycle.
  std::vector<PinId> topologicalPinOrder() const;
  /// The same order from this netlist's timingFanout(), for a caller that
  /// keeps the fanout anyway.
  std::vector<PinId> topologicalPinOrder(const TimingFanout& fanout) const;

  /// Fanin pins of `pin` in the timing graph (net driver for inputs/POs,
  /// the cell's combinational inputs for cell outputs): a view of the
  /// net's driver field or the cell's inputPins, valid until the next edit.
  std::span<const PinId> timingFanin(PinId pin) const;

  /// Fanout of every pin in the timing graph (the reverse of timingFanin).
  TimingFanout timingFanout() const;

  /// Table-1 statistics.
  struct Stats {
    std::int64_t numPins = 0;
    std::int64_t numEndpoints = 0;
    std::int64_t numNetEdges = 0;   // driver->sink pairs
    std::int64_t numCellEdges = 0;  // combinational input->output arcs
  };
  Stats stats() const;

  /// Structural sanity check: every pin wired, every net driven, no
  /// dangling cell outputs. Throws CheckError on violation.
  void validate() const;

 private:
  PinId addPin(Pin pin);

  const CellLibrary* library_;
  std::string name_;
  std::vector<Pin> pins_;
  std::vector<Cell> cells_;
  std::vector<Net> nets_;
  std::vector<PinId> primaryInputs_;
  std::vector<PinId> primaryOutputs_;
  std::vector<Point> portLocations_;  // indexed by pin id (ports only)
};

}  // namespace dagt::netlist
