#pragma once

#include "features/pin_features.hpp"
#include "netlist/netlist.hpp"
#include "sta/sta_engine.hpp"
#include "tensor/tensor.hpp"

namespace dagt::features {

/// Normalization constants for the numeric pin features. The constants are
/// global (shared by both technology nodes) on purpose: the residual scale
/// difference between nodes *is* the node-dependent signal the
/// disentangler's contrastive loss feeds on.
struct FeatureConfig {
  float distanceScale = 50.0f;  // um
  float capScale = 5.0f;        // fF
  float fanoutScale = 8.0f;
};

/// Builds the per-pin input feature matrix of the GNN (paper Section 3.1:
/// "net distance, cell driving strength, gate type, and pin capacitance
/// are used as the node features", with the gate-type one-hot over the
/// vocabulary merged across technology nodes).
///
/// In addition to the paper's listed features we feed the optimistic
/// pre-routing Elmore arrival/slew estimates per pin (the quantities the
/// classic linear-RC STA "look-ahead" of the paper's introduction already
/// provides at placement time). At the paper's scale (256-dim GNN, 200 GPU
/// epochs) the network learns delay accumulation from scratch; at CPU
/// scale the STA estimate supplies that accumulation explicitly and the
/// network learns the routing/optimization correction on top — standard
/// practice since Barboza et al. [2]. Documented in DESIGN.md.
class FeatureBuilder {
 public:
  FeatureBuilder(const netlist::GateTypeVocabulary* vocabulary,
                 FeatureConfig config = FeatureConfig{});

  /// Width of one pin's feature vector.
  std::int64_t featureDim() const;

  /// [numPins, featureDim] matrix, rows in pin-id order. Requires the
  /// netlist to be placed (net distances come from pin locations).
  /// preRouteTiming may be null; the three STA-estimate features are then
  /// zero.
  tensor::Tensor build(const netlist::Netlist& netlist,
                       const sta::TimingResult* preRouteTiming) const;

  /// Rewrites the rows of `pins` inside `features` (built from build()'s
  /// matrix for a netlist with the same pin-id space) through its row
  /// writer, which clones only the blocks it writes. A row is a pure
  /// function of its own pin, so patching the changed rows is bitwise
  /// identical to a full rebuild — this is the incremental what-if path's
  /// cheap alternative when only a few pins changed.
  void rebuildRows(const netlist::Netlist& netlist,
                   const sta::TimingResult* preRouteTiming,
                   const std::vector<netlist::PinId>& pins,
                   PinFeatures& features) const;

  static constexpr std::int64_t kNumericFeatures = 11;

 private:
  void fillRow(const netlist::Netlist& netlist,
               const sta::TimingResult* preRouteTiming, netlist::PinId pin,
               float* row) const;

  const netlist::GateTypeVocabulary* vocabulary_;
  FeatureConfig config_;
};

}  // namespace dagt::features
