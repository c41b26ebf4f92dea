#include "netlist/io.hpp"

#include <fstream>
#include <sstream>

#include "common/check.hpp"

namespace dagt::netlist::io {

namespace {

TechNode parseNode(const std::string& token) {
  for (int i = 0; i < kNumTechNodes; ++i) {
    const TechNode node = static_cast<TechNode>(i);
    if (techNodeName(node) == token) return node;
  }
  DAGT_CHECK_MSG(false, "unknown tech node '" << token << "'");
}

CellFunction parseFunction(const std::string& token) {
  for (int i = 0; i < kNumCellFunctions; ++i) {
    const CellFunction fn = static_cast<CellFunction>(i);
    if (cellFunctionName(fn) == token) return fn;
  }
  DAGT_CHECK_MSG(false, "unknown cell function '" << token << "'");
}

/// Reads one non-empty, non-comment line; returns false at EOF.
bool nextLine(std::istream& in, std::string& line) {
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') return true;
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// Library
// ---------------------------------------------------------------------------

void writeLibrary(const CellLibrary& lib, std::ostream& out) {
  out.precision(9);  // float32 round-trip exact
  out << "dagtlib " << techNodeName(lib.node()) << '\n';
  out << "wire " << lib.unitWireRes() << ' ' << lib.unitWireCap() << ' '
      << lib.sitePitch() << ' ' << lib.defaultInputSlew() << '\n';
  for (CellTypeId id = 0; id < lib.numCells(); ++id) {
    const CellType& c = lib.cell(id);
    out << "cell " << c.name << ' ' << cellFunctionName(c.function) << ' '
        << c.numInputs << ' ' << c.driveStrength << ' ' << c.inputCap << ' '
        << c.driveRes << ' ' << c.intrinsicDelay << ' ' << c.slewSens << ' '
        << c.slewIntrinsic << ' ' << c.slewRes << ' ' << c.area << ' '
        << (c.isSequential ? 1 : 0) << ' ' << c.clkToQ << '\n';
  }
  out << "end\n";
}

void writeLibraryFile(const CellLibrary& lib, const std::string& path) {
  std::ofstream out(path);
  DAGT_CHECK_MSG(out.good(), "cannot open " << path << " for writing");
  writeLibrary(lib, out);
  DAGT_CHECK_MSG(out.good(), "write to " << path << " failed");
}

CellLibrary readLibrary(std::istream& in) {
  std::string line;
  DAGT_CHECK_MSG(nextLine(in, line), "empty library file");
  std::istringstream header(line);
  std::string magic, nodeName;
  header >> magic >> nodeName;
  DAGT_CHECK_MSG(magic == "dagtlib", "not a dagtlib file");
  const TechNode node = parseNode(nodeName);

  DAGT_CHECK_MSG(nextLine(in, line), "missing wire line");
  std::istringstream wire(line);
  std::string wireTag;
  float res = 0, cap = 0, pitch = 0, slew = 0;
  wire >> wireTag >> res >> cap >> pitch >> slew;
  DAGT_CHECK_MSG(wireTag == "wire", "malformed wire line");

  std::vector<CellType> cells;
  while (nextLine(in, line)) {
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "end") break;
    DAGT_CHECK_MSG(tag == "cell", "unexpected line '" << line << "'");
    CellType c;
    std::string fnName;
    int seq = 0;
    ls >> c.name >> fnName >> c.numInputs >> c.driveStrength >> c.inputCap >>
        c.driveRes >> c.intrinsicDelay >> c.slewSens >> c.slewIntrinsic >>
        c.slewRes >> c.area >> seq >> c.clkToQ;
    DAGT_CHECK_MSG(!ls.fail(), "malformed cell line '" << line << "'");
    c.function = parseFunction(fnName);
    // The arity sizes every instance's pin block, so a corrupt count must
    // not reach Netlist::addCell.
    DAGT_CHECK_MSG(c.numInputs == cellFunctionInputs(c.function),
                   "cell " << c.name << " declares " << c.numInputs
                           << " inputs, but " << fnName << " has "
                           << cellFunctionInputs(c.function));
    c.node = node;
    c.isSequential = seq != 0;
    cells.push_back(std::move(c));
  }
  return CellLibrary::assemble(node, std::move(cells), res, cap, pitch, slew);
}

CellLibrary readLibraryFile(const std::string& path) {
  std::ifstream in(path);
  DAGT_CHECK_MSG(in.good(), "cannot open " << path);
  return readLibrary(in);
}

// ---------------------------------------------------------------------------
// Netlist
// ---------------------------------------------------------------------------

void writeNetlist(const Netlist& nl, std::ostream& out) {
  out.precision(9);  // float32 round-trip exact
  out << "dagtnl " << nl.name() << ' '
      << techNodeName(nl.library().node()) << '\n';

  // Entity creation ops in pin-id order so the reader reproduces identical
  // pin ids. A cell's pin block is emitted when its first pin is seen.
  for (PinId p = 0; p < nl.numPins(); ++p) {
    const Pin& pin = nl.pin(p);
    switch (pin.kind) {
      case PinKind::kPrimaryInput: {
        const Point loc = nl.pinLocation(p);
        out << "pi " << loc.x << ' ' << loc.y << '\n';
        break;
      }
      case PinKind::kPrimaryOutput: {
        const Point loc = nl.pinLocation(p);
        out << "po " << loc.x << ' ' << loc.y << '\n';
        break;
      }
      case PinKind::kCellInput:
      case PinKind::kCellOutput: {
        const Cell& cell = nl.cell(pin.cell);
        if (cell.inputPins.front() == p) {  // first pin of the block
          out << "cell " << nl.cellTypeOf(pin.cell).name << ' '
              << cell.location.x << ' ' << cell.location.y << '\n';
        }
        break;
      }
    }
  }
  for (NetId n = 0; n < nl.numNets(); ++n) {
    const Net& net = nl.net(n);
    out << "net " << net.driver;
    for (const PinId sink : net.sinks) out << ' ' << sink;
    out << '\n';
  }
  out << "end\n";
}

void writeNetlistFile(const Netlist& nl, const std::string& path) {
  std::ofstream out(path);
  DAGT_CHECK_MSG(out.good(), "cannot open " << path << " for writing");
  writeNetlist(nl, out);
  DAGT_CHECK_MSG(out.good(), "write to " << path << " failed");
}

Netlist readNetlist(std::istream& in, const CellLibrary& library) {
  std::string line;
  DAGT_CHECK_MSG(nextLine(in, line), "empty netlist file");
  std::istringstream header(line);
  std::string magic, name, nodeName;
  header >> magic >> name >> nodeName;
  DAGT_CHECK_MSG(magic == "dagtnl", "not a dagtnl file");
  DAGT_CHECK_MSG(parseNode(nodeName) == library.node(),
                 "netlist node " << nodeName << " does not match library");

  Netlist nl(&library, name);
  while (nextLine(in, line)) {
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "end") break;
    if (tag == "pi" || tag == "po") {
      float x = 0, y = 0;
      ls >> x >> y;
      const PinId port =
          tag == "pi" ? nl.addPrimaryInput() : nl.addPrimaryOutput();
      nl.setPortLocation(port, {x, y});
    } else if (tag == "cell") {
      std::string typeName;
      float x = 0, y = 0;
      ls >> typeName >> x >> y;
      const CellTypeId type = library.findCellByName(typeName);
      DAGT_CHECK_MSG(type != kInvalidCellType,
                     "library lacks cell '" << typeName << "'");
      const CellId cell = nl.addCell(type);
      nl.setCellLocation(cell, {x, y});
    } else if (tag == "net") {
      PinId driver = kInvalidId;
      ls >> driver;
      const NetId net = nl.addNet(driver);
      PinId sink = kInvalidId;
      while (ls >> sink) nl.connectSink(net, sink);
    } else {
      DAGT_CHECK_MSG(false, "unexpected line '" << line << "'");
    }
    DAGT_CHECK_MSG(!ls.bad(), "malformed line '" << line << "'");
  }
  return nl;
}

Netlist readNetlistFile(const std::string& path, const CellLibrary& library) {
  std::ifstream in(path);
  DAGT_CHECK_MSG(in.good(), "cannot open " << path);
  return readNetlist(in, library);
}

}  // namespace dagt::netlist::io
