// Serve workloads: point_query (one caller, single-endpoint requests on
// or1200) and batch_mix (one caller, 1-64 endpoint requests over a skewed
// design mix). Each replays a fixed cycle of requests drawn from the seed.
// Both drive serve::PredictionEngine through its public API only, from
// interchange files, with the default EngineConfig except retrieval pinned
// off.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "obs/trace.hpp"
#include "serve/prediction_engine.hpp"

namespace perfbench {

dagt::serve::EngineConfig servingConfig(bool batching) {
  dagt::serve::EngineConfig config;
  config.retrieval.enabled = false;
  config.batching = batching;
  return config;
}

float flipLowBit(float v) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  bits ^= 1u;
  std::memcpy(&v, &bits, sizeof(bits));
  return v;
}

namespace {

using namespace dagt;

/// A loaded engine plus what its set-up cost.
struct ServeSetup {
  std::unique_ptr<serve::PredictionEngine> engine;
  std::vector<double> seconds;  // per repetition
  std::vector<double> buildUs;  // loadDesign part, per repetition
  HostProbe probe;              // sampled after each repetition
};

/// Engine construction + addBundleFromDir + every loadDesign, repeated
/// `reps` times on fresh engines (a reload into the same engine would be a
/// feature-cache hit) and appended to `setup`. The last engine is kept: it
/// serves the workload, or after the timed phase replaces the one that did.
void setUp(ServeSetup& setup, const Scaffold& scaffold,
           const std::vector<std::string>& designs, int reps,
           serve::EngineConfig config) {
  for (int rep = 0; rep < reps; ++rep) {
    setup.engine.reset();
    const auto start = Clock::now();
    auto engine = std::make_unique<serve::PredictionEngine>(config);
    engine->addBundleFromDir(scaffold.bundleDir());
    const auto loadStart = Clock::now();
    for (const auto& name : designs) {
      const ServeDesign& d = scaffold.design(name);
      engine->loadDesign(name, d.netlistPath, d.libraryPath,
                         d.placementPath);
    }
    const auto end = Clock::now();
    setup.seconds.push_back(microsBetween(start, end) / 1e6);
    setup.buildUs.push_back(microsBetween(loadStart, end));
    setup.probe.sample(3);
    setup.engine = std::move(engine);
  }
}

/// Engine counters over the timed phase.
struct EngineDelta {
  double batchSize = 0.0;
  double forwardsPerRequest = 0.0;
  double cacheHitRate = 0.0;
};

EngineDelta engineDelta(const serve::MetricsSnapshot& before,
                        const serve::MetricsSnapshot& after,
                        std::uint64_t requests) {
  EngineDelta d;
  const double batches = static_cast<double>(after.batches - before.batches);
  const double coalesced =
      after.meanBatchSize * static_cast<double>(after.batches) -
      before.meanBatchSize * static_cast<double>(before.batches);
  d.batchSize = batches > 0.0 ? coalesced / batches : 0.0;
  d.forwardsPerRequest =
      requests > 0 ? batches / static_cast<double>(requests) : 0.0;
  d.cacheHitRate = 100.0 * after.cacheHitRate;
  return d;
}

bool bitwiseEqual(float a, float b) {
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

}  // namespace

// -- point_query ---------------------------------------------------------------

namespace {
/// Distinct requests; the workload replays them in order.
constexpr std::size_t kPointCycle = 128;
}  // namespace

Result runPointQuery(const Options& options, const Scaffold& scaffold,
                     SpanRecorder& spans) {
  const std::string key = "or1200";
  ServeSetup setup;
  setUp(setup, scaffold, {key}, kSetupReps, servingConfig());
  serve::PredictionEngine& engine = *setup.engine;
  const std::int64_t numEndpoints =
      static_cast<std::int64_t>(scaffold.design(key).labels.size());

  // The request cycle, drawn from the seed; one pass warms the pools and
  // fused programs.
  Rng rng(options.seed);
  std::vector<std::int64_t> cycle(kPointCycle);
  for (auto& e : cycle) {
    e = static_cast<std::int64_t>(
        rng.uniformInt(static_cast<std::uint64_t>(numEndpoints)));
  }
  for (const std::int64_t e : cycle) engine.predictEndpoint(key, e);

  struct Reply {
    std::int64_t endpoint;
    float value;
    bool ok;
  };
  std::vector<Reply> replies;
  std::vector<OpSample> ops;
  HostProbe probe;
  LayerInputs layers;
  TraceSchedule schedule(options.trace, options.seconds);
  obs::TraceRegistry::global().reset();
  layers.before = CounterMark::read();
  const serve::MetricsSnapshot metricsBefore = engine.metrics();
  schedule.start();
  for (std::int64_t i = 0; !schedule.expired(); ++i) {
    const std::int64_t endpoint = cycle[static_cast<std::size_t>(
        i % static_cast<std::int64_t>(cycle.size()))];
    const bool traced = schedule.tracedNow();
    const std::uint64_t request = spans.newRequest();
    const auto start = Clock::now();
    Reply reply{endpoint, 0.0f, true};
    try {
      SpanRecorder::Scope span(spans, "perfbench/predict_endpoint", request,
                               traced);
      reply.value = engine.predictEndpoint(key, endpoint);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "point_query: request failed: %s\n", e.what());
      reply.ok = false;
    }
    ops.push_back({microsBetween(start, Clock::now()), traced});
    replies.push_back(reply);
    if (i % 8 == 7) probe.sample();
  }
  schedule.stop();
  layers.after = CounterMark::read();
  const double rss = residentMiB();
  const EngineDelta delta =
      engineDelta(metricsBefore, engine.metrics(), replies.size());
  setUp(setup, scaffold, {key}, kSetupReps, servingConfig());
  layers.serveBatchSize = delta.batchSize;
  layers.serveForwardsPerRequest = delta.forwardsPerRequest;
  layers.featureCacheHitRate = delta.cacheHitRate;
  layers.setupUs = median(setup.seconds) * 1e6;
  layers.buildUs = median(setup.buildUs);

  // Check (untimed; tracing is off again, so it adds no spans): with one
  // caller every batch is exactly {e}, so each reply must be bitwise equal
  // to a batching=false engine's answer.
  ServeSetup reference;
  setUp(reference, scaffold, {key}, 1, servingConfig(false));
  std::vector<float> expected(static_cast<std::size_t>(numEndpoints),
                              std::nanf(""));
  const auto expectedFor = [&](std::int64_t e) {
    float& slot = expected[static_cast<std::size_t>(e)];
    if (std::isnan(slot)) slot = reference.engine->predictEndpoint(key, e);
    return slot;
  };
  const auto check = [&](const Reply& r) {
    return r.ok && bitwiseEqual(r.value, expectedFor(r.endpoint));
  };

  Result result;
  std::vector<double> predicted;
  std::vector<double> truth;
  for (const Reply& r : replies) {
    ++result.attempted;
    if (!check(r)) {
      ++result.failed;
      continue;
    }
    predicted.push_back(r.value);
    truth.push_back(scaffold.design(key).labels[static_cast<std::size_t>(
        r.endpoint)]);
  }

  // Negative self-test: a flipped low bit and a swapped endpoint must fail.
  if (!replies.empty()) {
    Reply flipped = replies.front();
    flipped.value = flipLowBit(expectedFor(flipped.endpoint));
    Reply swapped = replies.front();
    swapped.value = expectedFor((swapped.endpoint + 1) % numEndpoints);
    for (const Reply& corrupt : {flipped, swapped}) {
      ++result.selfTestCases;
      if (check(corrupt)) ++result.selfTestMisses;
    }
  }

  addEndToEnd(result, setup.seconds, setup.probe, ops, probe, rss,
              rSquared(predicted, truth));
  result.detail.push_back(
      {"features.build_ms", median(setup.buildUs) / 1e3, "ms"});
  if (options.trace) {
    splitTraced(ops, layers);
    addLayerSplit(layers, result);
  }
  return result;
}

// -- batch_mix -----------------------------------------------------------------

namespace {

/// A served answer is the mean of K Monte-Carlo readouts whose noise is
/// seeded by its whole batch, and so is the full-design reference (with
/// its own seed). Per endpoint the two differ by a zero-mean error of
/// standard deviation sigma * sqrt(2 / K), sigma being the endpoint's
/// predictive spread. The check admits kMixSigmas of that.
constexpr double kMixSigmas = 6.0;

/// Traffic skew: requests per cycle to each design, about 80% to or1200
/// and the rest split evenly.
const std::vector<std::pair<std::string, std::size_t>>& mixDesigns() {
  static const std::vector<std::pair<std::string, std::size_t>> designs = {
      {"or1200", 52}, {"hwacha", 6}, {"sha3", 6}};
  return designs;
}

struct MixRequest {
  std::size_t design = 0;
  std::vector<std::int64_t> endpoints;
  std::vector<float> reply;
  bool ok = true;
};

/// The request cycle the workload replays: mixDesigns()' count of requests
/// per design, and every request size from 1 to 64 (EngineConfig::maxBatch)
/// once. The seed pairs sizes with designs, orders the requests and draws
/// their endpoints, so every seed's cycle asks for the same amount of work.
std::vector<MixRequest> drawCycle(Rng& rng,
                                  const std::vector<std::int64_t>& sizes) {
  std::vector<std::size_t> designs;
  for (std::size_t d = 0; d < mixDesigns().size(); ++d) {
    designs.insert(designs.end(), mixDesigns()[d].second, d);
  }
  std::vector<std::size_t> counts(designs.size());
  for (std::size_t i = 0; i < counts.size(); ++i) counts[i] = i + 1;
  rng.shuffle(designs);
  rng.shuffle(counts);
  std::vector<MixRequest> cycle(designs.size());
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    cycle[i].design = designs[i];
    const auto n = static_cast<std::size_t>(sizes[designs[i]]);
    for (const std::size_t e : rng.sampleIndices(n, std::min(counts[i], n))) {
      cycle[i].endpoints.push_back(static_cast<std::int64_t>(e));
    }
  }
  return cycle;
}

}  // namespace

Result runBatchMix(const Options& options, const Scaffold& scaffold,
                   SpanRecorder& spans) {
  std::vector<std::string> names;
  std::vector<std::int64_t> sizes;
  for (const auto& [name, requests] : mixDesigns()) {
    names.push_back(name);
    sizes.push_back(
        static_cast<std::int64_t>(scaffold.design(name).labels.size()));
  }
  ServeSetup setup;
  setUp(setup, scaffold, names, kSetupReps, servingConfig());
  serve::PredictionEngine& engine = *setup.engine;

  // The request cycle, drawn from the seed; one pass fills the shape-keyed
  // fused programs and the buffer pools.
  Rng rng(options.seed);
  const std::vector<MixRequest> cycle = drawCycle(rng, sizes);
  for (const MixRequest& r : cycle) {
    (void)engine.predictEndpoints(mixDesigns()[r.design].first, r.endpoints);
  }

  std::vector<MixRequest> requests;
  std::vector<OpSample> ops;
  HostProbe probe;
  LayerInputs layers;
  TraceSchedule schedule(options.trace, options.seconds);
  obs::TraceRegistry::global().reset();
  layers.before = CounterMark::read();
  const serve::MetricsSnapshot metricsBefore = engine.metrics();
  schedule.start();
  for (std::int64_t i = 0; !schedule.expired(); ++i) {
    MixRequest request = cycle[static_cast<std::size_t>(
        i % static_cast<std::int64_t>(cycle.size()))];
    const bool traced = schedule.tracedNow();
    const std::uint64_t id = spans.newRequest();
    const auto start = Clock::now();
    try {
      SpanRecorder::Scope span(spans, "perfbench/predict_endpoints", id,
                               traced);
      request.reply = engine.predictEndpoints(
          mixDesigns()[request.design].first, request.endpoints);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "batch_mix: request failed: %s\n", e.what());
      request.ok = false;
    }
    ops.push_back({microsBetween(start, Clock::now()), traced,
                   request.ok ? static_cast<double>(request.endpoints.size())
                              : 0.0});
    requests.push_back(std::move(request));
    if (i % 4 == 3) probe.sample();
  }
  schedule.stop();
  layers.after = CounterMark::read();
  const double rss = residentMiB();

  const EngineDelta delta =
      engineDelta(metricsBefore, engine.metrics(), requests.size());
  setUp(setup, scaffold, names, kSetupReps, servingConfig());
  layers.serveBatchSize = delta.batchSize;
  layers.serveForwardsPerRequest = delta.forwardsPerRequest;
  layers.featureCacheHitRate = delta.cacheHitRate;
  layers.setupUs = median(setup.seconds) * 1e6;
  layers.buildUs = median(setup.buildUs);

  // Check (untimed): every answer finite and within kMixSigmas of the
  // trainer-side full-design answer, computed by a separately loaded copy
  // of the bundle on a separate engine's snapshot.
  ServeSetup reference;
  setUp(reference, scaffold, names, 1, servingConfig(false));
  serve::ModelBundle bundle = serve::ModelBundle::load(scaffold.bundleDir());
  auto* ours = dynamic_cast<core::OursModel*>(&bundle.model());
  DAGT_CHECK_MSG(ours != nullptr, "batch_mix needs an ours bundle");
  std::vector<std::vector<float>> expected;
  std::vector<std::vector<float>> tolerance;
  const double sampleNoise =
      std::sqrt(2.0 / static_cast<double>(servingConfig().mcSamples));
  for (const auto& name : names) {
    const auto snapshot = reference.engine->currentSnapshot(name);
    expected.push_back(ours->predictDesign(*snapshot->dataset, snapshot->data));
    std::vector<float> band =
        ours->predictDesignWithUncertainty(*snapshot->dataset, snapshot->data)
            .stddev;
    for (float& b : band) b = static_cast<float>(kMixSigmas * sampleNoise * b);
    tolerance.push_back(std::move(band));
  }
  double maxZ = 0.0;  // largest |answer - reference| / (sigma * sqrt(2/K))
  const auto check = [&](const MixRequest& r, bool record) {
    if (!r.ok || r.reply.size() != r.endpoints.size()) return false;
    bool pass = true;
    for (std::size_t i = 0; i < r.reply.size(); ++i) {
      const auto e = static_cast<std::size_t>(r.endpoints[i]);
      const double dev = std::fabs(r.reply[i] - expected[r.design][e]);
      const double band = tolerance[r.design][e];
      if (record && band > 0.0) {
        maxZ = std::max(maxZ, kMixSigmas * dev / band);
      }
      pass = pass && std::isfinite(r.reply[i]) && dev <= band;
    }
    return pass;
  };

  Result result;
  std::vector<double> predicted;
  std::vector<double> truth;
  for (const MixRequest& r : requests) {
    ++result.attempted;
    if (!check(r, true)) {
      ++result.failed;
      continue;
    }
    const auto& labels = scaffold.design(names[r.design]).labels;
    for (std::size_t i = 0; i < r.reply.size(); ++i) {
      predicted.push_back(r.reply[i]);
      truth.push_back(labels[static_cast<std::size_t>(r.endpoints[i])]);
    }
  }

  // Negative self-test: answer a request's first endpoint with the
  // reference of the endpoint farthest from it (a swapped endpoint), and
  // with a non-finite value; both must fail.
  if (!requests.empty() && requests.front().ok) {
    const MixRequest& sample = requests.front();
    const auto& ref = expected[sample.design];
    const float want = ref[static_cast<std::size_t>(sample.endpoints[0])];
    float farthest = want;
    for (const float v : ref) {
      if (std::fabs(v - want) > std::fabs(farthest - want)) farthest = v;
    }
    MixRequest swapped = sample;
    swapped.reply[0] = farthest;
    MixRequest nonFinite = sample;
    nonFinite.reply[0] = std::nanf("");
    for (const MixRequest& corrupt : {swapped, nonFinite}) {
      ++result.selfTestCases;
      if (check(corrupt, false)) ++result.selfTestMisses;
    }
  }

  addEndToEnd(result, setup.seconds, setup.probe, ops, probe, rss,
              rSquared(predicted, truth));
  result.detail.push_back({"check.max_sigmas", maxZ, "sigma"});
  result.detail.push_back({"check.band_sigmas", kMixSigmas, "sigma"});
  result.detail.push_back(
      {"features.build_ms", median(setup.buildUs) / 1e3, "ms"});
  result.detail.push_back({"serve.batch_size", delta.batchSize, "count"});
  if (options.trace) {
    splitTraced(ops, layers);
    addLayerSplit(layers, result);
  }
  return result;
}

}  // namespace perfbench
