#pragma once

#include <cstdint>
#include <initializer_list>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "tensor/kernels/kernels.hpp"
#include "tensor/tensor.hpp"

// Expression compiler: capture a forward's op sequence as a tape of
// ExprNodes, fuse elementwise chains / GEMM epilogues / row-dot reductions
// / conv -> relu -> pool stacks into composite nodes, and replay the
// compiled FusedProgram with zero graph overhead.
//
// Capture is LAZY: while a Recorder is active (one per thread, via the RAII
// Capture helper), the ops in tensor/ops.hpp append nodes to the recorder's
// graph and return shape-only "lazy" tensors instead of computing anything.
// Real tensors touched during capture (weights, constants) become kConst
// nodes that alias their storage. compile() then runs the fusion passes and
// freezes an immutable FusedProgram whose run() is const and thread-safe.
//
// Parity contract: replay of a non-fused node calls the exact eager op it
// recorded, and every fused composite lowers to a KernelTable entry whose
// per-element roundings match the op chain it replaced — so at the scalar
// and avx2 tiers a fused forward is BITWISE identical to the unfused one,
// and at avx2fma it differs only where the GEMM rounding contract already
// allows (fused multiply-add steps). Training never captures: fusion is
// inference-only (NoGradGuard), the autograd tape path is untouched.
namespace dagt::tensor::expr {

/// Node opcodes. Everything before kFusedEw replays by calling the eager op
/// it recorded; the fused kinds dispatch to KernelTable composites.
enum class OpKind : std::int32_t {
  kInput = 0,  ///< program argument (shape fixed at capture)
  kConst,      ///< captured real tensor (aliases its storage)
  // Elementwise binary (same-shape).
  kAdd,
  kSub,
  kMul,
  kDiv,
  // Scalar / unary elementwise.
  kAddScalar,
  kMulScalar,
  kRelu,
  kLeakyRelu,
  kTanh,
  kSigmoid,
  kExp,
  kLog,
  kSqrt,
  kSquare,
  kSoftplus,
  kPowInt,
  // Row/column broadcasts.
  kAddBias,    ///< matrix + row vector
  kAddColVec,  ///< matrix + column vector
  kMulColVec,  ///< matrix * column vector
  kRepeatRows,
  // Reductions.
  kSumAll,
  kSumDim0,
  kSumDim1,
  // Linear algebra / shape.
  kMatmul,
  kTranspose2d,
  kReshape,
  kSliceRows,
  // Convolution stack (replayed eagerly inside programs unless the conv
  // stack pass lowers it).
  kConv2d,
  kMaxPool2d,
  kGlobalAvgPool,
  // Fused composites (fusion-pass products, never recorded directly).
  kFusedEw,    ///< elementwise chain -> kernels fusedEwRows
  kFusedGemm,  ///< matmul + bias/activation -> fusedGemmEpilogueRows
  kRowDot,     ///< sumDim1(mul(a,b)) -> per-row dotVec
  kConvReluPool,  ///< conv2d -> relu (-> conv2d -> relu)* -> globalAvgPool
                  ///< -> convReluPoolRows
};

/// One conv -> relu stage of a kConvReluPool node: where its weight and
/// bias sit in the node's inputs (biasArg -1 without one), and its
/// geometry, fixed at capture.
struct ConvStageArgs {
  std::int32_t weightArg = -1;
  std::int32_t biasArg = -1;
  std::int64_t stride = 1;
  std::int64_t pad = 0;
  Shape inShape;   ///< [rows, C, H, W] at capture
  Shape outShape;  ///< [rows, F, OH, OW] at capture
};

/// One captured op. POD-ish: attrs are a union-by-convention (see each
/// OpKind). Fusion rewrites nodes in place and dead nodes get kind kConst
/// with no uses (skipped by the replayer via refCount == 0).
struct ExprNode {
  OpKind kind = OpKind::kConst;
  Shape shape;
  std::vector<std::int32_t> inputs;

  // Scalar attrs: addScalar/mulScalar immediate, leakyRelu slope,
  // log/sqrt eps.
  float scalar = 0.0f;
  std::int32_t ipow = 0;          // powInt exponent
  std::int64_t i0 = 0, i1 = 0;    // sliceRows begin/end; conv2d stride/pad
  Tensor constant;                // kConst payload

  // kFusedEw program: inputs[] are the operands (operand 0 seeds).
  std::vector<kernels::EwStep> steps;
  std::vector<std::uint8_t> operandKinds;

  // kFusedGemm epilogue: inputs = [a, b] (+bias at biasArg, an index into
  // inputs).
  std::int32_t activation = 0;
  float slope = 0.0f;
  std::int32_t biasArg = -1;

  // kConvReluPool: inputs[0] is the image batch, then each stage's weight
  // (and bias), as convStages says.
  std::vector<ConvStageArgs> convStages;

  // Filled by compile(): number of consumers, last node id that reads this
  // node's value (for release-at-last-use during replay), liveness.
  std::int32_t refCount = 0;
  std::int32_t lastUse = -1;
  bool isOutput = false;
  // Filled by compile() for row-polymorphic programs: the leading dim of
  // this node's value is the replay's row count, not shape[0].
  bool rowScaled = false;
};

/// Counters for the fusion layer (relaxed atomics; exported by serve
/// metrics and asserted by tests/bench).
struct FusionStats {
  std::uint64_t programsCompiled = 0;
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheMisses = 0;
  std::uint64_t programReplays = 0;
  std::uint64_t fusedEwLaunches = 0;
  std::uint64_t fusedGemmLaunches = 0;
  std::uint64_t rowDotLaunches = 0;
};

/// Snapshot of the process-wide fusion counters.
FusionStats stats();
/// Reset the process-wide fusion counters (tests/bench).
void resetStats();

/// Immutable compiled program. run() is const and safe to call from many
/// threads at once (each replay keeps its values in a per-thread scratch
/// vector and releases intermediates at their last use, so steady-state
/// replays reuse a handful of pooled buffers and allocate nothing else).
///
/// A program is row-polymorphic when every input shares one leading dim
/// (the row count) and every live node is row-local: its row i reads only
/// row i of its row-scaled operands, and weights and other constants enter
/// whole (GEMMs against constant B, bias and column-vector broadcasts,
/// elementwise chains, row reductions, a lowered conv stack, whose row is
/// a sample). Such a program replays
/// at any row count with the same per-row arithmetic, so it is compiled
/// once for all of them. A program that bakes in its row count (repeatRows,
/// a reshape, a column reduction, a constant with the batch as a dim) is
/// not, and replays only at its capture shape.
class FusedProgram {
 public:
  /// Replay with one real tensor per kInput node, in capture order.
  /// Returns the capture's outputs, in order.
  std::vector<Tensor> run(const std::vector<Tensor>& inputs) const;

  /// Single-output replay; allocates nothing beyond the tensors it makes.
  Tensor runOne(std::initializer_list<Tensor> inputs) const;

  /// True when the program replays at any row count (see above).
  bool rowPolymorphic() const { return rowPolymorphic_; }

  std::int32_t numInputs() const { return static_cast<std::int32_t>(inputIds_.size()); }
  std::int32_t numOutputs() const { return static_cast<std::int32_t>(outputIds_.size()); }
  /// Executable (live) node count after fusion — tests assert fusion shrank
  /// the graph.
  std::int32_t liveNodeCount() const;
  /// Number of live nodes of one kind (test/bench introspection).
  std::int32_t countKind(OpKind kind) const;

 private:
  friend class Recorder;
  std::vector<ExprNode> nodes_;
  std::vector<std::int32_t> inputIds_;
  std::vector<std::int32_t> outputIds_;
  // Per-(kConst) compile-time packed B panels for kFusedGemm nodes whose B
  // operand is constant: node id -> panel (empty when the active tier at
  // compile time declined packing).
  std::unordered_map<std::int32_t, std::vector<float>> packedPanels_;
  // Compile-time packed conv stack weights, for a kConvReluPool node whose
  // weights and biases are constants: node id -> one buffer per stage
  // (none when the tier reads the weights as they lie).
  std::unordered_map<std::int32_t, std::vector<std::vector<float>>>
      packedConvs_;
  kernels::Tier packedTier_ = kernels::Tier::kScalar;
  bool rowPolymorphic_ = false;

  /// Replay into outputs[0 .. numOutputs()).
  void replay(const Tensor* inputs, std::size_t numInputs,
              Tensor* outputs) const;
};

/// Thread-local capture context. Ops check Recorder::active() first thing;
/// when a recorder is active they append a node and return a lazy tensor.
/// Use the RAII Capture helper instead of driving this directly.
class Recorder {
 public:
  Recorder();
  ~Recorder();
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  static Recorder* current() { return tlCurrent; }
  static bool active() { return tlCurrent != nullptr; }

  /// Register a program input with the shape of `like`; returns the lazy
  /// tensor the capture body threads through the forward code.
  Tensor input(const Tensor& like);

  /// Append a node (called by the ops' capture branches). Real (non-lazy)
  /// input tensors are interned as kConst nodes.
  Tensor record(OpKind kind, Shape shape,
                std::initializer_list<const Tensor*> inputs, float scalar = 0.0f,
                std::int32_t ipow = 0, std::int64_t i0 = 0, std::int64_t i1 = 0);

  /// Run the fusion passes and freeze the program. `outputs` are the lazy
  /// tensors the capture body produced.
  std::shared_ptr<const FusedProgram> compile(
      std::initializer_list<const Tensor*> outputs);
  /// Same, for a variable-length output list (e.g. per-sample MC outputs).
  std::shared_ptr<const FusedProgram> compile(
      const std::vector<const Tensor*>& outputs);

 private:
  std::int32_t intern(const Tensor& t);

  inline static thread_local Recorder* tlCurrent = nullptr;
  Recorder* previous_ = nullptr;
  std::vector<ExprNode> nodes_;
  std::vector<std::int32_t> inputIds_;
  std::unordered_map<const TensorImpl*, std::int32_t> known_;
};

/// RAII capture scope: activates a Recorder for the current thread.
class Capture {
 public:
  Capture() = default;
  Tensor input(const Tensor& like) { return recorder_.input(like); }
  std::shared_ptr<const FusedProgram> compile(
      std::initializer_list<const Tensor*> outputs) {
    return recorder_.compile(outputs);
  }
  std::shared_ptr<const FusedProgram> compile(
      const std::vector<const Tensor*>& outputs) {
    return recorder_.compile(outputs);
  }

 private:
  Recorder recorder_;
};

/// Global fusion switch: DAGT_FUSION env (unset/1 = on, 0 = off), overridable
/// at runtime for tests/bench.
bool fusionEnabled();
void setFusionEnabled(bool enabled);

/// True when a caller should take its compiled-program path: fusion enabled,
/// gradients globally off (inference), and no capture already active (a
/// module called inside another module's capture body must record eagerly
/// into the outer graph instead of nesting).
bool shouldFuse();

/// Record that parameter values were written in place (an optimizer step, a
/// weight load). A compiled program may hold copies of the weights it
/// captured (compile-time packed GEMM panels), so every ProgramCache drops
/// its programs at its next lookup after a write.
void noteParametersWritten();

/// FNV-1a shape/pointer signature builder for program-cache keys. Mix the
/// input dims, the data pointers of every captured weight (a compiled
/// program reads its weights by address) and any behavioral attrs.
struct SigHash {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void mixShape(const Shape& s) {
    mix(static_cast<std::uint64_t>(s.size()));
    for (std::int64_t d : s) mix(static_cast<std::uint64_t>(d));
  }
  /// Every dim of s but the leading (row) one: the input part of a key
  /// passed to ProgramCache::getOrCompile(sig, rows, build).
  void mixTrailingDims(const Shape& s) {
    mix(static_cast<std::uint64_t>(s.size()));
    for (std::size_t i = 1; i < s.size(); ++i) {
      mix(static_cast<std::uint64_t>(s[i]));
    }
  }
  void mixPtr(const void* p) { mix(reinterpret_cast<std::uint64_t>(p)); }
  void mixTensor(const Tensor& t) {
    mixShape(t.shape());
    mixPtr(t.defined() ? t.data() : nullptr);
  }
};

/// Mutex-protected signature -> program cache (one per module that compiles
/// programs; keyed like the feature cache, by content signature). Holds at
/// most kMaxEntries programs and evicts the least recently used one. A
/// lookup after noteParametersWritten() first drops every program, so none
/// compiled before a weight write is replayed after it.
class ProgramCache {
 public:
  static constexpr std::size_t kMaxEntries = 64;

  /// Look up the program for `sig` at `rows` rows; on miss run `build()`
  /// (which must capture + compile) and memoize the result. `sig` covers
  /// everything the program depends on but its first input's row count
  /// `rows` (mix the inputs with SigHash::mixTrailingDims). A
  /// row-polymorphic program is memoized under `sig` alone and serves every
  /// row count; any other under `sig` and `rows`. Thread-safe; build runs
  /// under the cache mutex so concurrent misses compile exactly once.
  template <typename BuildFn>
  std::shared_ptr<const FusedProgram> getOrCompile(std::uint64_t sig,
                                                   std::int64_t rows,
                                                   BuildFn&& build) {
    std::lock_guard<std::mutex> lock(mutex_);
    dropIfStaleLocked();
    if (auto hit = findLocked(sig)) return hit;
    SigHash exact{sig};
    exact.mix(static_cast<std::uint64_t>(rows));
    if (auto hit = findLocked(exact.h)) return hit;
    noteMiss();
    auto program = build();
    insertLocked(program->rowPolymorphic() ? sig : exact.h, program);
    return program;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return index_.size();
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    index_.clear();
    recency_.clear();
  }

 private:
  using Entry = std::pair<std::uint64_t, std::shared_ptr<const FusedProgram>>;

  static void noteMiss();
  /// Drop every program if parameters were written since the last lookup.
  void dropIfStaleLocked();
  /// The entry under `key`, marked most recently used and counted as a
  /// hit; null when absent.
  std::shared_ptr<const FusedProgram> findLocked(std::uint64_t key);
  /// Memoize a freshly built program, evicting the least recently used
  /// entry when full.
  void insertLocked(std::uint64_t key,
                    std::shared_ptr<const FusedProgram> program);

  mutable std::mutex mutex_;
  std::uint64_t generation_ = 0;  // GUARDED_BY(mutex_)
  // Most recently used first.
  std::list<Entry> recency_;  // GUARDED_BY(mutex_)
  // GUARDED_BY(mutex_)
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
};

}  // namespace dagt::tensor::expr
