#include "tensor/expr.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"
#include "tensor/ops_common.hpp"

namespace dagt::tensor::expr {

namespace {

// -- Fusion switch -----------------------------------------------------------

// -1 = unresolved (read DAGT_FUSION on first use), else 0/1.
std::atomic<int> gFusionEnabled{-1};

int resolveFusionEnv() {
  const char* env = std::getenv("DAGT_FUSION");
  if (env != nullptr && env[0] == '0' && env[1] == '\0') return 0;
  return 1;
}

// Parameter writes so far (noteParametersWritten); a ProgramCache whose
// generation lags it holds programs compiled before a write.
std::atomic<std::uint64_t> gParameterGeneration{0};

// -- Stats -------------------------------------------------------------------

struct AtomicStats {
  std::atomic<std::uint64_t> programsCompiled{0};
  std::atomic<std::uint64_t> cacheHits{0};
  std::atomic<std::uint64_t> cacheMisses{0};
  std::atomic<std::uint64_t> programReplays{0};
  std::atomic<std::uint64_t> fusedEwLaunches{0};
  std::atomic<std::uint64_t> fusedGemmLaunches{0};
  std::atomic<std::uint64_t> rowDotLaunches{0};
};

AtomicStats& gStats() {
  static AtomicStats s;
  return s;
}

void bump(std::atomic<std::uint64_t>& c) {
  c.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

bool fusionEnabled() {
  int v = gFusionEnabled.load(std::memory_order_relaxed);
  if (v < 0) {
    v = resolveFusionEnv();
    gFusionEnabled.store(v, std::memory_order_relaxed);
  }
  return v != 0;
}

void setFusionEnabled(bool enabled) {
  gFusionEnabled.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

bool shouldFuse() {
  return !Recorder::active() && !NoGradGuard::gradEnabled() && fusionEnabled();
}

void noteParametersWritten() { gParameterGeneration.fetch_add(1); }

FusionStats stats() {
  AtomicStats& s = gStats();
  FusionStats out;
  out.programsCompiled = s.programsCompiled.load(std::memory_order_relaxed);
  out.cacheHits = s.cacheHits.load(std::memory_order_relaxed);
  out.cacheMisses = s.cacheMisses.load(std::memory_order_relaxed);
  out.programReplays = s.programReplays.load(std::memory_order_relaxed);
  out.fusedEwLaunches = s.fusedEwLaunches.load(std::memory_order_relaxed);
  out.fusedGemmLaunches = s.fusedGemmLaunches.load(std::memory_order_relaxed);
  out.rowDotLaunches = s.rowDotLaunches.load(std::memory_order_relaxed);
  return out;
}

void resetStats() {
  AtomicStats& s = gStats();
  s.programsCompiled.store(0, std::memory_order_relaxed);
  s.cacheHits.store(0, std::memory_order_relaxed);
  s.cacheMisses.store(0, std::memory_order_relaxed);
  s.programReplays.store(0, std::memory_order_relaxed);
  s.fusedEwLaunches.store(0, std::memory_order_relaxed);
  s.fusedGemmLaunches.store(0, std::memory_order_relaxed);
  s.rowDotLaunches.store(0, std::memory_order_relaxed);
}

void ProgramCache::noteMiss() { bump(gStats().cacheMisses); }

void ProgramCache::dropIfStaleLocked() {
  const std::uint64_t now = gParameterGeneration.load();
  if (generation_ == now) return;
  generation_ = now;
  index_.clear();
  recency_.clear();
}

std::shared_ptr<const FusedProgram> ProgramCache::findLocked(
    std::uint64_t key) {
  const auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  bump(gStats().cacheHits);
  recency_.splice(recency_.begin(), recency_, it->second);
  return it->second->second;
}

void ProgramCache::insertLocked(std::uint64_t key,
                                std::shared_ptr<const FusedProgram> program) {
  if (index_.size() >= kMaxEntries) {
    index_.erase(recency_.back().first);
    recency_.pop_back();
  }
  recency_.emplace_front(key, std::move(program));
  index_[key] = recency_.begin();
}

// -- Recorder ----------------------------------------------------------------

namespace {

// Lazy impls (and interned consts) must outlive the capture: temporaries
// die mid-capture, and a recycled heap address would corrupt the
// impl -> node map. The recorder pins every impl it has interned.
struct LazyTensorFactory {
  static Tensor make(Shape shape) {
    auto impl = std::make_shared<TensorImpl>();
    impl->shape = std::move(shape);
    return Tensor(std::move(impl));
  }
};

}  // namespace

Recorder::Recorder() {
  previous_ = tlCurrent;
  tlCurrent = this;
}

Recorder::~Recorder() { tlCurrent = previous_; }

std::int32_t Recorder::intern(const Tensor& t) {
  DAGT_DCHECK_MSG(t.defined(), "undefined tensor reached expr capture");
  const TensorImpl* key = t.impl().get();
  auto it = known_.find(key);
  if (it != known_.end()) return it->second;
  const auto id = static_cast<std::int32_t>(nodes_.size());
  ExprNode node;
  node.kind = OpKind::kConst;
  node.shape = t.shape();
  node.constant = t;  // refcounted alias: pins the impl too
  nodes_.push_back(std::move(node));
  known_.emplace(key, id);
  return id;
}

Tensor Recorder::input(const Tensor& like) {
  const auto id = static_cast<std::int32_t>(nodes_.size());
  ExprNode node;
  node.kind = OpKind::kInput;
  node.shape = like.shape();
  node.i0 = static_cast<std::int64_t>(inputIds_.size());  // argument position
  nodes_.push_back(std::move(node));
  inputIds_.push_back(id);
  Tensor lazy = LazyTensorFactory::make(like.shape());
  nodes_[id].constant = lazy;  // pin the lazy impl for the capture's lifetime
  known_.emplace(lazy.impl().get(), id);
  return lazy;
}

Tensor Recorder::record(OpKind kind, Shape shape,
                        std::initializer_list<const Tensor*> inputs,
                        float scalar, std::int32_t ipow, std::int64_t i0,
                        std::int64_t i1) {
  ExprNode node;
  node.kind = kind;
  node.shape = shape;
  node.scalar = scalar;
  node.ipow = ipow;
  node.i0 = i0;
  node.i1 = i1;
  node.inputs.reserve(inputs.size());
  for (const Tensor* t : inputs) node.inputs.push_back(intern(*t));
  const auto id = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back(std::move(node));
  Tensor lazy = LazyTensorFactory::make(std::move(shape));
  nodes_[id].constant = lazy;  // pin (replaced by real consts only for kConst)
  known_.emplace(lazy.impl().get(), id);
  return lazy;
}

// -- Fusion passes -----------------------------------------------------------

namespace {

void computeRefCounts(std::vector<ExprNode>& nodes) {
  for (ExprNode& n : nodes) n.refCount = 0;
  for (const ExprNode& n : nodes) {
    for (std::int32_t in : n.inputs) ++nodes[in].refCount;
  }
}

bool isActivationKind(OpKind k) {
  return k == OpKind::kRelu || k == OpKind::kTanh || k == OpKind::kSigmoid ||
         k == OpKind::kLeakyRelu;
}

std::int32_t activationCode(OpKind k) {
  switch (k) {
    case OpKind::kRelu: return 1;
    case OpKind::kTanh: return 2;
    case OpKind::kSigmoid: return 3;
    case OpKind::kLeakyRelu: return 4;
    default: return 0;
  }
}

// Every pass below folds a node into its consumer only when the consumer is
// its one reader and it is not a program output: compile() marks the
// outputs first, because refCount counts node inputs only, and a folded
// output would replay from an input list the pass cleared.

// Pass 1: lower every 2-D matmul to kFusedGemm (empty epilogue is bitwise
// gemmRows), then greedily fold addBias / activation / residual-add into the
// epilogue wherever the eager op order matches the fixed epilogue order
// bias -> activation -> residual and the producer has no other consumer.
void fuseGemmEpilogues(std::vector<ExprNode>& nodes) {
  for (ExprNode& n : nodes) {
    if (n.kind == OpKind::kMatmul) n.kind = OpKind::kFusedGemm;
  }
  computeRefCounts(nodes);
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    ExprNode& n = nodes[id];
    const auto takeOver = [&](std::int32_t fgId) {
      ExprNode& fg = nodes[fgId];
      n.kind = OpKind::kFusedGemm;
      std::vector<std::int32_t> merged = fg.inputs;
      n.inputs.swap(merged);
      n.activation = fg.activation;
      n.slope = fg.slope;
      n.biasArg = fg.biasArg;
      n.residualArg = fg.residualArg;
      // fg is dead now; drop its edges so later passes see true use counts.
      fg.inputs.clear();
      fg.refCount = 0;
    };
    if (n.kind == OpKind::kAddBias && n.inputs.size() == 2) {
      const std::int32_t fgId = n.inputs[0];
      const std::int32_t biasId = n.inputs[1];
      ExprNode& fg = nodes[fgId];
      if (fg.kind == OpKind::kFusedGemm && fg.refCount == 1 &&
          !fg.isOutput && fg.biasArg < 0 && fg.activation == 0 &&
          fg.residualArg < 0) {
        takeOver(fgId);
        n.biasArg = static_cast<std::int32_t>(n.inputs.size());
        n.inputs.push_back(biasId);
      }
    } else if (isActivationKind(n.kind) && n.inputs.size() == 1) {
      const std::int32_t fgId = n.inputs[0];
      ExprNode& fg = nodes[fgId];
      if (fg.kind == OpKind::kFusedGemm && fg.refCount == 1 &&
          !fg.isOutput && fg.activation == 0 && fg.residualArg < 0) {
        const std::int32_t act = activationCode(n.kind);
        const float slope = n.scalar;
        takeOver(fgId);
        n.activation = act;
        n.slope = slope;
      }
    } else if (n.kind == OpKind::kAdd && n.inputs.size() == 2) {
      // Residual: either side may be the gemm (IEEE float addition is
      // commutative bitwise).
      for (int side = 0; side < 2; ++side) {
        const std::int32_t fgId = n.inputs[side];
        const std::int32_t resId = n.inputs[1 - side];
        ExprNode& fg = nodes[fgId];
        if (fg.kind == OpKind::kFusedGemm && fg.refCount == 1 &&
            !fg.isOutput && fg.residualArg < 0 &&
            nodes[resId].shape == n.shape && resId != fgId) {
          takeOver(fgId);
          n.residualArg = static_cast<std::int32_t>(n.inputs.size());
          n.inputs.push_back(resId);
          break;
        }
      }
    }
  }
  computeRefCounts(nodes);
}

// Pass 2: sumDim1(mul(a, b)) and sumDim1(square(a)) -> kRowDot. The eager
// pair rounds each product to float (mulVec) then lane-block sums it
// (sumVec); dotVec rounds products to float before widening with the same
// lane scheme, so this rewrite is bitwise in every tier.
void fuseRowDots(std::vector<ExprNode>& nodes) {
  for (ExprNode& n : nodes) {
    if (n.kind != OpKind::kSumDim1 || n.inputs.size() != 1) continue;
    ExprNode& m = nodes[n.inputs[0]];
    if (m.refCount != 1 || m.isOutput || m.shape.size() != 2) continue;
    if (m.kind == OpKind::kMul) {
      const std::int32_t a = m.inputs[0];
      const std::int32_t b = m.inputs[1];
      n.kind = OpKind::kRowDot;
      n.inputs = {a, b};
      m.inputs.clear();
      m.refCount = 0;
    } else if (m.kind == OpKind::kSquare) {
      const std::int32_t a = m.inputs[0];
      n.kind = OpKind::kRowDot;
      n.inputs = {a, a};
      m.inputs.clear();
      m.refCount = 0;
    }
  }
  computeRefCounts(nodes);
}

// Pass 3: conv2d -> relu (-> conv2d -> relu)* -> globalAvgPool ->
// kConvReluPool, one convReluPoolRows kernel that keeps every intermediate
// in per-thread scratch. The pool node is rewritten in place (its id keeps
// the value); each conv and relu of the stack must have the next op of the
// chain as its one reader. The kernel repeats the eager chain's roundings
// in every tier, so the rewrite is bitwise.
void fuseConvStacks(std::vector<ExprNode>& nodes) {
  for (ExprNode& pool : nodes) {
    if (pool.kind != OpKind::kGlobalAvgPool || pool.inputs.size() != 1) {
      continue;
    }
    std::vector<std::int32_t> convs;  // last stage first
    std::vector<std::int32_t> relus;
    std::int32_t cur = pool.inputs[0];
    while (static_cast<int>(convs.size()) < kernels::kConvMaxStages) {
      const ExprNode& relu = nodes[cur];
      if (relu.kind != OpKind::kRelu || relu.refCount != 1 ||
          relu.isOutput) {
        break;
      }
      const std::int32_t convId = relu.inputs[0];
      const ExprNode& conv = nodes[convId];
      if (conv.kind != OpKind::kConv2d || conv.refCount != 1 ||
          conv.isOutput) {
        break;
      }
      relus.push_back(cur);
      convs.push_back(convId);
      cur = conv.inputs[0];
    }
    if (convs.empty()) continue;
    std::vector<std::int32_t> inputs{cur};
    std::vector<ConvStageArgs> stages;
    for (auto it = convs.rbegin(); it != convs.rend(); ++it) {
      const ExprNode& conv = nodes[*it];
      ConvStageArgs stage;
      stage.weightArg = static_cast<std::int32_t>(inputs.size());
      inputs.push_back(conv.inputs[1]);
      if (conv.inputs.size() > 2) {
        stage.biasArg = static_cast<std::int32_t>(inputs.size());
        inputs.push_back(conv.inputs[2]);
      }
      stage.stride = conv.i0;
      stage.pad = conv.i1;
      stage.inShape = nodes[conv.inputs[0]].shape;
      stage.outShape = conv.shape;
      stages.push_back(std::move(stage));
    }
    for (std::size_t i = 0; i < convs.size(); ++i) {
      nodes[convs[i]].inputs.clear();  // dead intermediates
      nodes[relus[i]].inputs.clear();
    }
    pool.kind = OpKind::kConvReluPool;
    pool.inputs = std::move(inputs);
    pool.convStages = std::move(stages);
  }
  computeRefCounts(nodes);
}

// One candidate link of an elementwise chain: how node `n` transforms the
// chain value arriving from node `chainIn`.
struct EwLink {
  bool ok = false;
  kernels::EwStep step;
  std::int32_t operand = -1;  // node id of the non-chain operand, -1 if none
  kernels::EwOperandKind kind = kernels::EwOperandKind::kFull;
  bool simplifiedBroadcast = false;
};

EwLink makeLink(std::vector<ExprNode>& nodes, std::int32_t id,
                std::int32_t chainIn) {
  ExprNode& n = nodes[id];
  EwLink link;
  const auto unary = [&](kernels::EwOp op, float scalar = 0.0f,
                         std::int32_t ipow = 0) {
    link.ok = true;
    link.step = kernels::EwStep{op, -1, scalar, ipow};
  };
  const auto binary = [&](kernels::EwOp op, std::int32_t operand,
                          kernels::EwOperandKind kind) {
    // Binary with both sides the chain value is handled by the callers.
    link.ok = true;
    link.step = kernels::EwStep{op, 0, 0.0f, 0};  // operand slot set later
    link.operand = operand;
    link.kind = kind;
    // Look through a single-use repeatRows: the broadcast row participates
    // directly as a rowvec operand and the materialized repeat dies.
    if (operand >= 0) {
      ExprNode& o = nodes[operand];
      if (o.kind == OpKind::kRepeatRows && o.refCount == 1 &&
          !o.isOutput && kind == kernels::EwOperandKind::kFull) {
        link.operand = o.inputs[0];
        link.kind = kernels::EwOperandKind::kRowVec;
        link.simplifiedBroadcast = true;
      }
    }
  };
  switch (n.kind) {
    case OpKind::kAdd:
    case OpKind::kMul: {
      const bool chainLeft = n.inputs[0] == chainIn;
      const bool chainRight = n.inputs[1] == chainIn;
      if (chainLeft && chainRight) {
        // x + x == 2 * x and x * x == x^2, both exact.
        if (n.kind == OpKind::kAdd) {
          unary(kernels::EwOp::kMulS, 2.0f);
        } else {
          unary(kernels::EwOp::kSquare);
        }
      } else {
        const std::int32_t other = chainLeft ? n.inputs[1] : n.inputs[0];
        binary(n.kind == OpKind::kAdd ? kernels::EwOp::kAddV
                                      : kernels::EwOp::kMulV,
               other, kernels::EwOperandKind::kFull);
      }
      break;
    }
    case OpKind::kSub:
      if (n.inputs[0] == chainIn && n.inputs[1] == chainIn) break;
      if (n.inputs[0] == chainIn) {
        binary(kernels::EwOp::kSubV, n.inputs[1],
               kernels::EwOperandKind::kFull);
      } else {
        binary(kernels::EwOp::kRsubV, n.inputs[0],
               kernels::EwOperandKind::kFull);
      }
      break;
    case OpKind::kDiv:
      if (n.inputs[0] == chainIn && n.inputs[1] == chainIn) break;
      if (n.inputs[0] == chainIn) {
        binary(kernels::EwOp::kDivV, n.inputs[1],
               kernels::EwOperandKind::kFull);
      } else {
        binary(kernels::EwOp::kRdivV, n.inputs[0],
               kernels::EwOperandKind::kFull);
      }
      break;
    case OpKind::kAddBias:
      binary(kernels::EwOp::kAddV, n.inputs[1],
             kernels::EwOperandKind::kRowVec);
      break;
    case OpKind::kAddColVec:
      binary(kernels::EwOp::kAddV, n.inputs[1],
             kernels::EwOperandKind::kColVec);
      break;
    case OpKind::kMulColVec:
      binary(kernels::EwOp::kMulV, n.inputs[1],
             kernels::EwOperandKind::kColVec);
      break;
    case OpKind::kAddScalar: unary(kernels::EwOp::kAddS, n.scalar); break;
    case OpKind::kMulScalar: unary(kernels::EwOp::kMulS, n.scalar); break;
    case OpKind::kRelu: unary(kernels::EwOp::kRelu); break;
    case OpKind::kLeakyRelu: unary(kernels::EwOp::kLeakyRelu, n.scalar); break;
    case OpKind::kTanh: unary(kernels::EwOp::kTanh); break;
    case OpKind::kSigmoid: unary(kernels::EwOp::kSigmoid); break;
    case OpKind::kExp: unary(kernels::EwOp::kExp); break;
    case OpKind::kLog: unary(kernels::EwOp::kLog, n.scalar); break;
    case OpKind::kSqrt: unary(kernels::EwOp::kSqrt, n.scalar); break;
    case OpKind::kSquare: unary(kernels::EwOp::kSquare); break;
    case OpKind::kSoftplus: unary(kernels::EwOp::kSoftplus); break;
    case OpKind::kPowInt: unary(kernels::EwOp::kPowInt, 0.0f, n.ipow); break;
    default: break;
  }
  return link;
}

// Which input of an ew-capable node is the chain value? For unary ops it is
// input 0; for binaries it is whichever side we extend from. A node can
// continue a chain from `prev` iff some input == prev.
bool continuesFrom(const ExprNode& n, std::int32_t prev) {
  for (std::int32_t in : n.inputs) {
    if (in == prev) return true;
  }
  return false;
}

bool ewCapable(const ExprNode& n) {
  switch (n.kind) {
    case OpKind::kAdd:
    case OpKind::kSub:
    case OpKind::kMul:
    case OpKind::kDiv:
    case OpKind::kAddScalar:
    case OpKind::kMulScalar:
    case OpKind::kRelu:
    case OpKind::kLeakyRelu:
    case OpKind::kTanh:
    case OpKind::kSigmoid:
    case OpKind::kExp:
    case OpKind::kLog:
    case OpKind::kSqrt:
    case OpKind::kSquare:
    case OpKind::kSoftplus:
    case OpKind::kPowInt:
    case OpKind::kAddBias:
    case OpKind::kAddColVec:
    case OpKind::kMulColVec:
      return true;
    default:
      return false;
  }
}

// The fused interpreter views the chain shape as [rows, cols]. Broadcast
// operand kinds (rowvec/colvec) need a real 2-D shape; a chain whose
// operands are all full can run over any rank flattened to one row.
bool chainShapeOk(const ExprNode& n, bool hasBroadcast) {
  if (n.shape.size() == 2) return true;
  return !hasBroadcast;
}

// Pass 4: greedy single-consumer elementwise chains -> kFusedEw. The LAST
// node of a committed chain is rewritten in place (its id keeps the value),
// intermediates drop dead. Commit when >= 2 ops merge or a repeatRows
// broadcast got eliminated.
void fuseEwChains(std::vector<ExprNode>& nodes) {
  // consumers[i] = ids of nodes reading i (built once; chains only merge
  // single-consumer links so stale entries after a rewrite are harmless —
  // rewritten intermediates are marked consumed and never revisited).
  std::vector<std::vector<std::int32_t>> consumers(nodes.size());
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    for (std::int32_t in : nodes[id].inputs) {
      consumers[in].push_back(static_cast<std::int32_t>(id));
    }
  }
  std::vector<char> consumed(nodes.size(), 0);
  for (std::size_t start = 0; start < nodes.size(); ++start) {
    // An earlier pass clears the inputs of the nodes it folds away (a row
    // dot's product, a conv stack's relus): those start no chain.
    if (consumed[start] || nodes[start].inputs.empty() ||
        !ewCapable(nodes[start])) {
      continue;
    }
    // The chain seed is the input the first link transforms. Prefer input 0
    // (the conventional data operand for every ew-capable kind).
    const std::int32_t seed = nodes[start].inputs[0];
    EwLink first = makeLink(nodes, static_cast<std::int32_t>(start), seed);
    if (!first.ok) continue;

    std::vector<std::int32_t> chain{static_cast<std::int32_t>(start)};
    std::vector<EwLink> links{first};
    std::int32_t last = static_cast<std::int32_t>(start);
    while (true) {
      if (nodes[last].refCount != 1 || nodes[last].isOutput) break;
      const auto& cons = consumers[last];
      std::int32_t next = -1;
      for (std::int32_t c : cons) {
        if (consumed[c]) continue;
        if (continuesFrom(nodes[c], last)) { next = c; break; }
      }
      if (next < 0 || !ewCapable(nodes[next])) break;
      if (nodes[next].shape != nodes[last].shape) break;
      EwLink link = makeLink(nodes, next, last);
      if (!link.ok) break;
      chain.push_back(next);
      links.push_back(link);
      last = next;
    }

    // Assemble operands (dedup, capped) and decide whether to commit.
    std::vector<std::int32_t> operands{seed};
    std::vector<std::uint8_t> kinds{
        static_cast<std::uint8_t>(kernels::EwOperandKind::kFull)};
    bool fits = true;
    bool hasBroadcast = false;
    bool broadcastKilled = false;
    std::vector<kernels::EwStep> steps;
    steps.reserve(links.size());
    for (EwLink& link : links) {
      kernels::EwStep step = link.step;
      if (link.operand >= 0) {
        std::int32_t slot = -1;
        for (std::size_t i = 0; i < operands.size(); ++i) {
          if (operands[i] == link.operand &&
              kinds[i] == static_cast<std::uint8_t>(link.kind)) {
            slot = static_cast<std::int32_t>(i);
            break;
          }
        }
        if (slot < 0) {
          if (static_cast<int>(operands.size()) >= kernels::kEwMaxOperands) {
            fits = false;
            break;
          }
          slot = static_cast<std::int32_t>(operands.size());
          operands.push_back(link.operand);
          kinds.push_back(static_cast<std::uint8_t>(link.kind));
        }
        step.operand = slot;
        if (link.kind != kernels::EwOperandKind::kFull) hasBroadcast = true;
        if (link.simplifiedBroadcast) broadcastKilled = true;
      } else {
        step.operand = -1;
      }
      steps.push_back(step);
    }
    if (!fits) continue;
    if (!(steps.size() >= 2 || broadcastKilled)) continue;
    if (!chainShapeOk(nodes[last], hasBroadcast)) continue;
    // Every ew-capable op preserves the chain shape, so the seed is always
    // full-shaped relative to the chain; no further shape checks needed.

    ExprNode& out = nodes[last];
    out.kind = OpKind::kFusedEw;
    out.inputs = operands;
    out.steps = std::move(steps);
    out.operandKinds = std::move(kinds);
    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
      nodes[chain[i]].inputs.clear();  // dead intermediate
      consumed[chain[i]] = 1;
    }
    consumed[last] = 1;
    computeRefCounts(nodes);
  }
  computeRefCounts(nodes);
}

// Pass 5: liveness from the outputs + last-use positions for
// release-at-last-use during replay.
void computeLiveness(std::vector<ExprNode>& nodes,
                     const std::vector<std::int32_t>& outputs) {
  std::vector<char> live(nodes.size(), 0);
  std::vector<std::int32_t> stack(outputs.begin(), outputs.end());
  while (!stack.empty()) {
    const std::int32_t id = stack.back();
    stack.pop_back();
    if (live[id]) continue;
    live[id] = 1;
    for (std::int32_t in : nodes[id].inputs) stack.push_back(in);
  }
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    nodes[id].refCount = 0;
    nodes[id].lastUse = -1;
  }
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    if (!live[id]) continue;
    for (std::int32_t in : nodes[id].inputs) {
      ++nodes[in].refCount;
      nodes[in].lastUse =
          std::max(nodes[in].lastUse, static_cast<std::int32_t>(id));
    }
  }
  // Dead nodes keep refCount 0 and are skipped by the replayer; live leaf
  // outputs are protected from release by isOutput.
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    if (live[id] && nodes[id].refCount == 0) nodes[id].refCount = 1;
    if (!live[id]) nodes[id].refCount = 0;
    if (!live[id] && nodes[id].kind != OpKind::kConst &&
        nodes[id].kind != OpKind::kInput) {
      // Free captured payloads of dead nodes early.
      nodes[id].constant = Tensor();
    }
  }
}

// Pass 6: row polymorphism (see FusedProgram). Marks rowScaled on every
// live node whose leading dim is the inputs' shared row count and returns
// whether the whole program is row-local; on false the marks are cleared
// and the program keeps its capture shapes.
bool markRowScaled(std::vector<ExprNode>& nodes,
                   const std::vector<std::int32_t>& inputIds) {
  if (inputIds.empty()) return false;
  const std::int64_t rows =
      nodes[inputIds[0]].shape.empty() ? -1 : nodes[inputIds[0]].shape[0];
  for (const std::int32_t id : inputIds) {
    const Shape& shape = nodes[id].shape;
    if (shape.empty() || shape[0] != rows) return false;
  }
  const auto scaled = [&](std::int32_t id) { return nodes[id].rowScaled; };
  const auto fail = [&] {
    for (ExprNode& n : nodes) n.rowScaled = false;
    return false;
  };
  for (ExprNode& n : nodes) {
    if (n.refCount == 0 || n.kind == OpKind::kConst) continue;
    if (n.kind == OpKind::kInput) {
      n.rowScaled = true;
      continue;
    }
    bool any = false;
    bool all = true;
    for (const std::int32_t in : n.inputs) {
      any = any || scaled(in);
      all = all && scaled(in);
    }
    // Computed from constants alone: fixed shape at any row count.
    if (!any) continue;
    bool local = false;
    switch (n.kind) {
      case OpKind::kAdd:
      case OpKind::kSub:
      case OpKind::kMul:
      case OpKind::kDiv:
      case OpKind::kAddScalar:
      case OpKind::kMulScalar:
      case OpKind::kRelu:
      case OpKind::kLeakyRelu:
      case OpKind::kTanh:
      case OpKind::kSigmoid:
      case OpKind::kExp:
      case OpKind::kLog:
      case OpKind::kSqrt:
      case OpKind::kSquare:
      case OpKind::kSoftplus:
      case OpKind::kPowInt:
      case OpKind::kAddColVec:
      case OpKind::kMulColVec:
      case OpKind::kSumDim1:
      case OpKind::kRowDot:
        local = all;
        break;
      case OpKind::kAddBias:
        local = scaled(n.inputs[0]) && !scaled(n.inputs[1]);
        break;
      case OpKind::kLayerNorm:
        local = scaled(n.inputs[0]) && !scaled(n.inputs[1]) &&
                !scaled(n.inputs[2]);
        break;
      case OpKind::kFusedGemm:
        local = scaled(n.inputs[0]) && !scaled(n.inputs[1]) &&
                (n.biasArg < 0 || !scaled(n.inputs[n.biasArg])) &&
                (n.residualArg < 0 || scaled(n.inputs[n.residualArg]));
        break;
      case OpKind::kConvReluPool:
        // The images are the rows; weights and biases enter whole.
        local = scaled(n.inputs[0]);
        for (std::size_t i = 1; i < n.inputs.size(); ++i) {
          local = local && !scaled(n.inputs[i]);
        }
        break;
      case OpKind::kFusedEw: {
        // Full and column-vector operands index rows; a row vector is
        // broadcast down them and must not scale.
        local = true;
        for (std::size_t i = 0; i < n.inputs.size(); ++i) {
          const bool rowVec =
              n.operandKinds[i] ==
              static_cast<std::uint8_t>(kernels::EwOperandKind::kRowVec);
          local = local && scaled(n.inputs[i]) != rowVec;
        }
        break;
      }
      default:
        // repeatRows, reshape, transpose, slices, column and full
        // reductions, convolution: the row count is baked in.
        break;
    }
    if (!local) return fail();
    n.rowScaled = true;
  }
  return true;
}

}  // namespace

std::shared_ptr<const FusedProgram> Recorder::compile(
    std::initializer_list<const Tensor*> outputs) {
  return compile(std::vector<const Tensor*>(outputs.begin(), outputs.end()));
}

std::shared_ptr<const FusedProgram> Recorder::compile(
    const std::vector<const Tensor*>& outputs) {
  DAGT_TRACE_SCOPE("expr/compile");
  auto program = std::make_shared<FusedProgram>();
  program->nodes_ = std::move(nodes_);
  program->inputIds_ = std::move(inputIds_);
  for (const Tensor* t : outputs) {
    auto it = known_.find(t->impl().get());
    DAGT_CHECK_MSG(it != known_.end(),
                   "program output was not produced under this capture");
    program->outputIds_.push_back(it->second);
  }
  auto& nodes = program->nodes_;

  for (std::int32_t out : program->outputIds_) nodes[out].isOutput = true;
  fuseGemmEpilogues(nodes);
  fuseRowDots(nodes);
  fuseConvStacks(nodes);
  fuseEwChains(nodes);
  computeLiveness(nodes, program->outputIds_);
  program->rowPolymorphic_ = markRowScaled(nodes, program->inputIds_);
  // Capture-pinning lazy handles are no longer needed once compiled; drop
  // them so replays do not keep an extra impl per node alive.
  for (ExprNode& n : nodes) {
    if (n.kind != OpKind::kConst) n.constant = Tensor();
  }

  // Compile-time packed B panels for constant GEMM operands: packed once,
  // read by every replay.
  const kernels::Tier tier = kernels::activeTier();
  const kernels::KernelTable& kt = kernels::table(tier);
  program->packedTier_ = tier;
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    ExprNode& n = nodes[id];
    if (n.kind != OpKind::kFusedGemm || n.refCount == 0) continue;
    const ExprNode& b = nodes[n.inputs[1]];
    if (b.kind != OpKind::kConst) continue;
    const std::int64_t k = b.shape[0];
    const std::int64_t m = b.shape[1];
    const std::int64_t panelSize = kt.gemmPackBSize(k, m);
    if (panelSize <= 0) continue;
    std::vector<float> panel(static_cast<std::size_t>(panelSize));
    kt.gemmPackB(b.constant.data(), k, m, panel.data());
    program->packedPanels_.emplace(static_cast<std::int32_t>(id),
                                   std::move(panel));
  }

  bump(gStats().programsCompiled);
  known_.clear();
  return program;
}

// -- Replay ------------------------------------------------------------------

std::int32_t FusedProgram::liveNodeCount() const {
  std::int32_t count = 0;
  for (const ExprNode& n : nodes_) {
    if (n.refCount > 0 && n.kind != OpKind::kConst &&
        n.kind != OpKind::kInput) {
      ++count;
    }
  }
  return count;
}

std::int32_t FusedProgram::countKind(OpKind kind) const {
  std::int32_t count = 0;
  for (const ExprNode& n : nodes_) {
    if (n.refCount > 0 && n.kind == kind) ++count;
  }
  return count;
}

namespace {

// rows/cols view of a fused-ew chain shape: 2-D as-is, anything else is one
// flat row (only legal when every operand is full-shaped).
void ewDims(const Shape& shape, std::int64_t* rows, std::int64_t* cols) {
  if (shape.size() == 2) {
    *rows = shape[0];
    *cols = shape[1];
  } else {
    *rows = 1;
    *cols = numelOf(shape);
  }
}

// Per-thread value slots of a replay, reused across replays so a steady-state
// replay allocates only the tensors it produces. A replay nested inside
// another on the same thread (none does today) falls back to its own slots.
struct ReplaySlots {
  std::vector<Tensor> values;
  bool busy = false;
};

thread_local ReplaySlots tlSlots;

/// Borrows the thread's slots (or a local vector when they are busy) and
/// drops every value on exit, so no tensor outlives its replay.
class SlotLease {
 public:
  explicit SlotLease(std::size_t n)
      : values_(tlSlots.busy ? local_ : tlSlots.values),
        owner_(!tlSlots.busy),
        used_(n) {
    if (owner_) tlSlots.busy = true;
    if (values_.size() < n) values_.resize(n);
  }
  ~SlotLease() {
    for (std::size_t i = 0; i < used_; ++i) values_[i] = Tensor();
    if (owner_) tlSlots.busy = false;
  }
  SlotLease(const SlotLease&) = delete;
  SlotLease& operator=(const SlotLease&) = delete;
  std::vector<Tensor>& values() { return values_; }

 private:
  std::vector<Tensor> local_;
  std::vector<Tensor>& values_;
  bool owner_;
  std::size_t used_;
};

}  // namespace

Tensor FusedProgram::runOne(std::initializer_list<Tensor> inputs) const {
  DAGT_DCHECK_MSG(outputIds_.size() == 1, "runOne on multi-output program");
  Tensor out;
  replay(inputs.begin(), inputs.size(), &out);
  return out;
}

std::vector<Tensor> FusedProgram::run(const std::vector<Tensor>& inputs) const {
  std::vector<Tensor> out(outputIds_.size());
  replay(inputs.data(), inputs.size(), out.data());
  return out;
}

void FusedProgram::replay(const Tensor* inputs, std::size_t numInputs,
                          Tensor* outputs) const {
  DAGT_CHECK_MSG(numInputs == inputIds_.size(),
                 "program expects " << inputIds_.size() << " inputs, got "
                                    << numInputs);
  NoGradGuard noGrad;
  bump(gStats().programReplays);
  const kernels::KernelTable& kt = kernels::active();
  const bool packedOk = kernels::activeTier() == packedTier_;
  // A row-polymorphic program runs at its first input's row count; every
  // other program at its capture shapes.
  const std::int64_t rows = rowPolymorphic_ ? inputs[0].dim(0) : 0;
  const auto shapeOf = [rows](const ExprNode& n) {
    Shape shape = n.shape;
    if (n.rowScaled) shape[0] = rows;
    return shape;
  };
  const auto inputFits = [rows](const Tensor& in, const ExprNode& n) {
    const Shape& actual = in.shape();
    if (actual.size() != n.shape.size()) return false;
    for (std::size_t d = 0; d < actual.size(); ++d) {
      const std::int64_t want = d == 0 && n.rowScaled ? rows : n.shape[d];
      if (actual[d] != want) return false;
    }
    return true;
  };
  SlotLease lease(nodes_.size());
  std::vector<Tensor>& values = lease.values();

  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    const ExprNode& n = nodes_[id];
    if (n.refCount == 0) continue;
    Tensor& v = values[id];
    switch (n.kind) {
      case OpKind::kInput: {
        const Tensor& in = inputs[static_cast<std::size_t>(n.i0)];
        DAGT_CHECK_MSG(inputFits(in, n),
                       "program input shape changed since capture");
        v = in;
        break;
      }
      case OpKind::kConst: v = n.constant; break;
      case OpKind::kAdd: v = add(values[n.inputs[0]], values[n.inputs[1]]); break;
      case OpKind::kSub: v = sub(values[n.inputs[0]], values[n.inputs[1]]); break;
      case OpKind::kMul: v = mul(values[n.inputs[0]], values[n.inputs[1]]); break;
      case OpKind::kDiv: v = div(values[n.inputs[0]], values[n.inputs[1]]); break;
      case OpKind::kAddScalar: v = addScalar(values[n.inputs[0]], n.scalar); break;
      case OpKind::kMulScalar: v = mulScalar(values[n.inputs[0]], n.scalar); break;
      case OpKind::kRelu: v = relu(values[n.inputs[0]]); break;
      case OpKind::kLeakyRelu: v = leakyRelu(values[n.inputs[0]], n.scalar); break;
      case OpKind::kTanh: v = tanhOp(values[n.inputs[0]]); break;
      case OpKind::kSigmoid: v = sigmoid(values[n.inputs[0]]); break;
      case OpKind::kExp: v = expOp(values[n.inputs[0]]); break;
      case OpKind::kLog: v = logOp(values[n.inputs[0]], n.scalar); break;
      case OpKind::kSqrt: v = sqrtOp(values[n.inputs[0]], n.scalar); break;
      case OpKind::kSquare: v = square(values[n.inputs[0]]); break;
      case OpKind::kSoftplus: v = softplus(values[n.inputs[0]]); break;
      case OpKind::kPowInt:
        v = powInt(values[n.inputs[0]], static_cast<int>(n.ipow));
        break;
      case OpKind::kAddBias:
        v = addBias(values[n.inputs[0]], values[n.inputs[1]]);
        break;
      case OpKind::kAddColVec:
        v = addColVec(values[n.inputs[0]], values[n.inputs[1]]);
        break;
      case OpKind::kMulColVec:
        v = mulColVec(values[n.inputs[0]], values[n.inputs[1]]);
        break;
      case OpKind::kRepeatRows:
        v = repeatRows(values[n.inputs[0]], n.shape[0]);
        break;
      case OpKind::kSumAll: v = sumAll(values[n.inputs[0]]); break;
      case OpKind::kSumDim0: v = sumDim0(values[n.inputs[0]]); break;
      case OpKind::kSumDim1: v = sumDim1(values[n.inputs[0]]); break;
      case OpKind::kMatmul:
        v = matmul(values[n.inputs[0]], values[n.inputs[1]]);
        break;
      case OpKind::kTranspose2d: v = transpose2d(values[n.inputs[0]]); break;
      case OpKind::kReshape: v = reshape(values[n.inputs[0]], n.shape); break;
      case OpKind::kSliceRows:
        v = sliceRows(values[n.inputs[0]], n.i0, n.i1);
        break;
      case OpKind::kConv2d:
        v = conv2d(values[n.inputs[0]], values[n.inputs[1]],
                   n.inputs.size() > 2 ? values[n.inputs[2]] : Tensor(), n.i0,
                   n.i1);
        break;
      case OpKind::kMaxPool2d: v = maxPool2d(values[n.inputs[0]]); break;
      case OpKind::kGlobalAvgPool:
        v = globalAvgPool(values[n.inputs[0]]);
        break;
      case OpKind::kLayerNorm:
        v = layerNorm(values[n.inputs[0]], values[n.inputs[1]],
                      values[n.inputs[2]], n.scalar, n.ipow != 0);
        break;
      case OpKind::kFusedEw: {
        DAGT_TRACE_SCOPE("kernel/fused_ew");
        bump(gStats().fusedEwLaunches);
        Shape shape = shapeOf(n);
        std::int64_t ewRows = 0, cols = 0;
        ewDims(shape, &ewRows, &cols);
        // When no operand is a row/col broadcast, every lane is independent
        // of the row index, so the whole tensor legally runs as ONE flat row.
        // The interpreter then pays its per-row setup (seed copy, per-step
        // dispatch, tails) once per kEwBlock instead of once per (usually
        // short) matrix row; per-element op order is untouched, so results
        // are bit-identical.
        bool allFull = true;
        for (const std::uint8_t kind : n.operandKinds) {
          allFull = allFull &&
                    kind == static_cast<std::uint8_t>(
                                kernels::EwOperandKind::kFull);
        }
        if (allFull) {
          cols *= ewRows;
          ewRows = 1;
        }
        const float* operandPtrs[kernels::kEwMaxOperands];
        for (std::size_t i = 0; i < n.inputs.size(); ++i) {
          operandPtrs[i] = values[n.inputs[i]].data();
        }
        v = Tensor(detail::makeOut(std::move(shape)));
        kt.fusedEwRows(operandPtrs, n.operandKinds.data(),
                       static_cast<int>(n.inputs.size()), n.steps.data(),
                       static_cast<int>(n.steps.size()), v.data(), ewRows,
                       cols);
        break;
      }
      case OpKind::kRowDot: {
        DAGT_TRACE_SCOPE("kernel/fused_dot");
        bump(gStats().rowDotLaunches);
        const Tensor& a = values[n.inputs[0]];
        const Tensor& b = values[n.inputs[1]];
        const std::int64_t dotRows = a.dim(0);
        const std::int64_t cols = a.dim(1);
        v = Tensor(detail::makeOut(shapeOf(n)));
        const float* pa = a.data();
        const float* pb = b.data();
        float* po = v.data();
        for (std::int64_t r = 0; r < dotRows; ++r) {
          po[r] = static_cast<float>(kt.dotVec(
              pa + r * cols, pb + r * cols, static_cast<std::size_t>(cols)));
        }
        break;
      }
      case OpKind::kConvReluPool: {
        DAGT_TRACE_SCOPE("kernel/conv_stack");
        const Tensor& images = values[n.inputs[0]];
        kernels::ConvStage stages[kernels::kConvMaxStages];
        const int numStages = static_cast<int>(n.convStages.size());
        for (int i = 0; i < numStages; ++i) {
          const ConvStageArgs& a = n.convStages[static_cast<std::size_t>(i)];
          const Tensor& w = values[n.inputs[a.weightArg]];
          kernels::ConvStage& st = stages[i];
          st.weight = w.data();
          st.bias =
              a.biasArg >= 0 ? values[n.inputs[a.biasArg]].data() : nullptr;
          st.inChannels = a.inShape[1];
          st.inH = a.inShape[2];
          st.inW = a.inShape[3];
          st.outChannels = a.outShape[1];
          st.kh = w.dim(2);
          st.kw = w.dim(3);
          st.stride = a.stride;
          st.pad = a.pad;
          st.outH = a.outShape[2];
          st.outW = a.outShape[3];
        }
        v = Tensor(detail::makeOut(shapeOf(n)));
        kt.convReluPoolRows(images.data(), stages, numStages, v.data(), 0,
                            images.dim(0));
        break;
      }
      case OpKind::kFusedGemm: {
        DAGT_TRACE_SCOPE("kernel/fused_gemm");
        bump(gStats().fusedGemmLaunches);
        const Tensor& a = values[n.inputs[0]];
        const Tensor& b = values[n.inputs[1]];
        const std::int64_t gemmRows = a.dim(0);
        const std::int64_t k = a.dim(1);
        const std::int64_t m = b.dim(1);
        v = Tensor(detail::makeOut(shapeOf(n)));
        kernels::GemmEpilogue ep;
        ep.bias = n.biasArg >= 0 ? values[n.inputs[n.biasArg]].data() : nullptr;
        ep.residual =
            n.residualArg >= 0 ? values[n.inputs[n.residualArg]].data() : nullptr;
        ep.activation = n.activation;
        ep.slope = n.slope;
        const float* panel = nullptr;
        if (packedOk) {
          auto it = packedPanels_.find(static_cast<std::int32_t>(id));
          if (it != packedPanels_.end()) panel = it->second.data();
        }
        kt.fusedGemmEpilogueRows(a.data(), b.data(), panel, v.data(), 0,
                                 gemmRows, k, m, &ep);
        break;
      }
    }
    // Release intermediates at their last use so steady-state replays churn
    // a handful of pooled buffers instead of one per node.
    for (std::int32_t in : n.inputs) {
      const ExprNode& src = nodes_[in];
      if (src.lastUse == static_cast<std::int32_t>(id) && !src.isOutput &&
          src.kind != OpKind::kConst && src.kind != OpKind::kInput) {
        values[in] = Tensor();
      }
    }
  }

  for (std::size_t i = 0; i < outputIds_.size(); ++i) {
    outputs[i] = values[outputIds_[i]];
  }
}

}  // namespace dagt::tensor::expr
