#pragma once

// Shared pieces of the timing-service benchmark: options, result records,
// latency statistics, the trace schedule of a traced run, the benchmark's
// own span recorder, the cached scaffolding (trained bundle + interchange
// files) and the per-layer split read from obs::TraceRegistry.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace dagt::serve {
struct EngineConfig;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

double microsBetween(Clock::time_point start, Clock::time_point end);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the scaffolding cache, the result documents and the span files
  /// go (inside the checkout).
  std::string outDir = ".bench_build/perfbench";
};

/// Set-up repetitions before and again after the timed phase; setup_s is
/// the median of all of them.
constexpr int kSetupReps = 15;

/// One named number with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Operations attempted / failed, and every number a workload measured.
struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// The result line's metrics: end to end (untraced run) ...
  std::vector<Metric> endToEnd;
  /// ... and per layer (traced run).
  std::vector<Metric> perLayer;
  /// Every other number the workload measured (per-layer times in their
  /// natural units, span self times, check details). Printed and written
  /// to the result document, not to the result line.
  std::vector<Metric> detail;
  /// Failures of the negative self-test: a check that accepted a corrupted
  /// reply. Must stay 0.
  std::int64_t selfTestMisses = 0;
  std::int64_t selfTestCases = 0;
};

struct LayerInputs;

/// One timed operation.
struct OpSample {
  double us = 0.0;
  bool traced = false;
  /// Work units it completed: endpoints answered, edits or optimizer steps.
  double work = 1.0;
  /// False for busy time that counts toward throughput but is not an
  /// operation's latency (whatif_eco's full-design reports).
  bool latency = true;
};

/// Nearest-rank percentile of an unsorted sample (q in [0, 1]).
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// A fixed single-thread compute kernel of the benchmark's own (a small
/// float matrix product), timed between operations and after each set-up.
/// Its time follows how fast the shared host runs this process, which
/// drifts by tens of percent over minutes (perfbench/README.md).
class HostProbe {
 public:
  /// The kernel's time on the host the end-to-end figures are scaled to.
  static constexpr double kReferenceUs = 350.0;

  HostProbe();
  /// Run the kernel `times` times and record each time.
  void sample(int times = 1);
  double medianUs() const { return median(us_); }
  /// The square root of kReferenceUs over medianUs(): a time measured next
  /// to the samples, multiplied by this, is the time on the reference host.
  /// The root because the kernel's time moves about twice as much as the
  /// workloads' when the host speeds up or slows down.
  double scale() const;

 private:
  std::vector<float> a_, b_, c_;
  std::vector<double> us_;
};

/// The end-to-end metrics every workload reports: set-up time, operation
/// latency p50, work units per second, and resident memory at the end of
/// the timed phase.
///
/// Times are scaled to the reference host by the probe samples taken next
/// to them: the median set-up by `setupProbe` (sampled after each set-up),
/// the median latency and the work over busy time by `probe` (sampled
/// between operations). The unscaled figures with the tail percentiles and
/// the answers' R² against sign-off labels go to the detail.
void addEndToEnd(Result& result, const std::vector<double>& setupSeconds,
                 const HostProbe& setupProbe, const std::vector<OpSample>& ops,
                 const HostProbe& probe, double rssMiB, double r2);

/// Latency split of a traced run into its traced and untraced operations.
void splitTraced(const std::vector<OpSample>& ops, LayerInputs& in);


/// Resident set size of this process, MiB.
double residentMiB();

/// `v` with its lowest mantissa bit flipped: the smallest corruption a
/// bitwise check must catch.
float flipLowBit(float v);

/// Every serve workload's engine: the default EngineConfig with the
/// retrieval layer pinned off (its default reads the environment).
dagt::serve::EngineConfig servingConfig(bool batching = true);

/// Coefficient of determination of `predicted` against `truth`.
double rSquared(const std::vector<double>& predicted,
                const std::vector<double>& truth);

/// The tracing schedule of one run. Untraced runs never trace. A traced run
/// alternates untraced and traced segments of equal length (six in all,
/// starting untraced), so the tracing overhead is the difference between
/// the two halves of one run and drift over the run cancels.
class TraceSchedule {
 public:
  TraceSchedule(bool traced, double seconds);
  void start();
  /// Whether an operation starting now runs traced; also flips the
  /// registry gate when a segment boundary has passed. Thread-safe.
  bool tracedNow();
  bool expired() const;
  /// Turn tracing off for good (end of the timed phase).
  void stop();

 private:
  /// Seconds since start().
  double elapsed() const;

  const bool traced_;
  const double seconds_;
  Clock::time_point start_;
  std::mutex mutex_;  // serializes gate flips
  std::atomic<int> applied_{-1};
};

/// The benchmark's own spans around each public call it makes, kept in
/// memory and written out as Chrome trace_event JSON at exit. Spans of one
/// operation share a request id. Enabled only in traced runs.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);
  bool enabled() const { return enabled_; }
  std::uint64_t newRequest() { return nextRequest_.fetch_add(1) + 1; }

  /// Times one call; records nothing when the recorder or `active` is off.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name, std::uint64_t request,
          bool active = true);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    const char* name_;
    std::uint64_t request_;
    Clock::time_point start_;
  };

  void writeChromeTrace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t request;
    Clock::time_point start;
    double durUs;
    std::uint32_t thread;
  };
  void record(const char* name, std::uint64_t request, Clock::time_point start,
              Clock::time_point end);

  const bool enabled_;
  const Clock::time_point epoch_;
  std::atomic<std::uint64_t> nextRequest_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // GUARDED_BY(mutex_)
};

/// A serving design emitted as interchange files, with its sign-off labels.
struct ServeDesign {
  std::string name;
  std::string netlistPath;
  std::string libraryPath;
  std::string placementPath;
  std::vector<float> labels;  // ps, endpoint order
};

/// Untimed scaffolding shared by the serve workloads: one small kOurs
/// bundle trained on the paper's split at scale 0.3 with a fixed seed, and
/// the test designs as interchange files. Built once per binary and cached
/// under <outDir>/cache (it depends on the code only, not on the seed).
class Scaffold {
 public:
  explicit Scaffold(const std::string& outDir);
  const std::string& bundleDir() const { return bundleDir_; }
  const ServeDesign& design(const std::string& name) const;

  static constexpr float kScale = 0.3f;
  /// The what-if design: or1200 at scale 0.35.
  static constexpr const char* kEcoDesign = "or1200_eco";
  static constexpr float kEcoScale = 0.35f;

 private:
  std::string bundleDir_;
  std::map<std::string, ServeDesign> designs_;
};

/// Per-span (count, total µs) from the wrap-proof registry aggregates.
struct SpanTotals {
  std::map<std::string, std::pair<std::uint64_t, double>> byName;
  std::uint64_t dropped = 0;

  static SpanTotals read();
  double us(const std::string& name) const;
  std::uint64_t count(const std::string& name) const;
};

/// Process-wide counters read before and after the timed phase.
struct CounterMark {
  std::uint64_t programsCompiled = 0;
  std::uint64_t fusionHits = 0;
  std::uint64_t fusionMisses = 0;
  std::uint64_t heapAllocs = 0;
  static CounterMark read();
};

/// What a workload knows about its traced segments, for the layer split.
/// Fields a workload does not exercise stay 0.
struct LayerInputs {
  std::int64_t tracedOps = 0;  // operations started while traced
  double tracedOpUs = 0.0;     // their summed latency
  double untracedP50Us = 0.0;
  double tracedP50Us = 0.0;
  std::int64_t allOps = 0;  // every timed operation (counters' base)
  double allOpUs = 0.0;     // their summed latency
  CounterMark before;
  CounterMark after;
  bool training = false;  // model/forward runs under the trainer
  // serve (engine metrics over the timed phase)
  double serveBatchSize = 0.0;
  double serveForwardsPerRequest = 0.0;
  double featureCacheHitRate = 0.0;  // %
  // set-up: median rep, and the loadDesign part of it
  double setupUs = 0.0;
  double buildUs = 0.0;
  // what-if: means per edit, and the session calls' summed time
  double imagesRebuilt = 0.0;
  double dirtyEndpoints = 0.0;
  double pinsVisited = 0.0;
  double whatifEditUs = 0.0;
  double whatifSyncUs = 0.0;
  double whatifQueryUs = 0.0;
};

/// Fill result.perLayer / result.detail with the layer split shared by
/// every workload (model, tensor, features assembly, serve, sta, whatif,
/// train stages, trace bookkeeping). Workload-specific numbers measured by
/// the workload's own timers are added by the workload.
void addLayerSplit(const LayerInputs& in, Result& result);

/// Workloads. Each runs its timed phase for options.seconds and checks
/// every reply against an independent reference.
Result runPointQuery(const Options& options, const Scaffold& scaffold,
                     SpanRecorder& spans);
Result runBatchMix(const Options& options, const Scaffold& scaffold,
                   SpanRecorder& spans);
Result runWhatIfEco(const Options& options, const Scaffold& scaffold,
                    SpanRecorder& spans);
Result runTrainStep(const Options& options, SpanRecorder& spans);

}  // namespace perfbench
