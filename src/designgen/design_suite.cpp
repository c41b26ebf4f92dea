#include "designgen/design_suite.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace dagt::designgen {

using netlist::TechNode;

namespace {

DesignSpec makeSpec(std::string name, std::uint64_t seed, DesignStyle style,
                    std::int32_t gates, std::int32_t stages,
                    float registerFraction, float localityBias,
                    std::int32_t numInputs, float scale) {
  DesignSpec spec;
  spec.name = std::move(name);
  spec.seed = seed;
  spec.style = style;
  spec.numGates =
      std::max<std::int32_t>(8, static_cast<std::int32_t>(
                                    std::lround(gates * scale)));
  spec.pipelineStages = stages;
  spec.registerFraction = registerFraction;
  spec.localityBias = localityBias;
  spec.numPrimaryInputs = std::max<std::int32_t>(
      4, static_cast<std::int32_t>(std::lround(numInputs * std::sqrt(scale))));
  spec.maxOutputs = std::max<std::int32_t>(
      4, static_cast<std::int32_t>(std::lround(48 * std::sqrt(scale))));
  return spec;
}

}  // namespace

DesignSuite::DesignSuite(float scale) {
  // An infinite scale would size every design by an out-of-range lround.
  DAGT_CHECK_MSG(std::isfinite(scale) && scale > 0.0f,
                 "design scale must be a finite number above 0, got "
                     << scale);
  // Gate budgets keep the paper's relative design sizes
  // (jpeg > hwacha > or1200 > sha3 > smallboom >> peripherals).
  // Register fractions shape #endpoints/#pins toward the Table-1 ratios
  // (or1200 register-rich, jpeg register-lean).
  entries_ = {
      // -- training: limited advanced-node data --------------------------
      {makeSpec("smallboom", 101, DesignStyle::kCpu, 1080, 5, 0.22f, 0.70f,
                48, scale),
       TechNode::k7nm, DesignRole::kTrainTarget},
      // -- training: abundant preceding-node data ------------------------
      {makeSpec("jpeg", 102, DesignStyle::kDatapath, 2400, 6, 0.10f, 0.80f,
                64, scale),
       TechNode::k130nm, DesignRole::kTrainSource},
      // Small designs are floored above strict Table-1 proportionality so
      // every design keeps enough endpoints for a stable R^2 (the paper's
      // smallest designs still have thousands of endpoints).
      {makeSpec("linkruncca", 103, DesignStyle::kControl, 420, 4, 0.24f,
                0.55f, 32, scale),
       TechNode::k130nm, DesignRole::kTrainSource},
      {makeSpec("spiMaster", 104, DesignStyle::kControl, 260, 3, 0.14f,
                0.50f, 24, scale),
       TechNode::k130nm, DesignRole::kTrainSource},
      {makeSpec("usbf_device", 105, DesignStyle::kControl, 180, 3, 0.26f,
                0.50f, 20, scale),
       TechNode::k130nm, DesignRole::kTrainSource},
      // -- test: held-out advanced-node designs --------------------------
      {makeSpec("arm9", 106, DesignStyle::kCpu, 170, 3, 0.20f, 0.65f, 20,
                scale),
       TechNode::k7nm, DesignRole::kTest},
      {makeSpec("chacha", 107, DesignStyle::kDatapath, 140, 3, 0.20f, 0.80f,
                16, scale),
       TechNode::k7nm, DesignRole::kTest},
      {makeSpec("hwacha", 108, DesignStyle::kCpu, 2100, 6, 0.12f, 0.72f, 64,
                scale),
       TechNode::k7nm, DesignRole::kTest},
      {makeSpec("or1200", 109, DesignStyle::kControl, 1820, 5, 0.42f, 0.60f,
                56, scale),
       TechNode::k7nm, DesignRole::kTest},
      {makeSpec("sha3", 110, DesignStyle::kDatapath, 1240, 4, 0.20f, 0.82f,
                40, scale),
       TechNode::k7nm, DesignRole::kTest},
  };
}

const DesignEntry& DesignSuite::entry(const std::string& name) const {
  for (const auto& e : entries_) {
    if (e.spec.name == name) return e;
  }
  DAGT_CHECK_MSG(false, "unknown design " << name);
}

std::vector<const DesignEntry*> DesignSuite::byRole(DesignRole role) const {
  std::vector<const DesignEntry*> result;
  for (const auto& e : entries_) {
    if (e.role == role) result.push_back(&e);
  }
  return result;
}

std::vector<std::string> DesignSuite::sourceDesignOrder() const {
  return {"jpeg", "linkruncca", "spiMaster", "usbf_device"};
}

netlist::Netlist DesignSuite::buildNetlist(
    const DesignEntry& entry, const netlist::CellLibrary& library) const {
  DAGT_CHECK_MSG(library.node() == entry.node,
                 entry.spec.name << " expects "
                                 << netlist::techNodeName(entry.node)
                                 << " library");
  const LogicNetwork logic = LogicNetwork::generate(entry.spec);
  logic.validate();
  return TechMapper::map(logic, library);
}

}  // namespace dagt::designgen
