// train_step: core::Trainer::train(kOurs) on smallboom plus the four 130nm
// sources at scale 0.3, default endpointCap, one gradient shard, prefetch
// on. One operation is one train() call of a few epochs; its latency is
// reported per optimizer step (wall time / (epochs x sources)).

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/trainer.hpp"
#include "features/design_data.hpp"
#include "obs/trace.hpp"

namespace perfbench {
namespace {

using namespace dagt;

constexpr int kEpochsPerCall = 3;

/// The loss-curve check: finite everywhere, and the last epoch below the
/// first.
bool lossCurveOk(const std::vector<float>& epochLoss) {
  if (epochLoss.size() < 2) return false;
  for (const float v : epochLoss) {
    if (!std::isfinite(v)) return false;
  }
  return epochLoss.back() < epochLoss.front();
}

}  // namespace

Result runTrainStep(const Options& options, SpanRecorder& spans) {
  // Scaffolding (untimed): the paper's training designs.
  features::DataConfig dataConfig;
  dataConfig.designScale = Scaffold::kScale;
  const features::DataPipeline pipeline(dataConfig);
  std::vector<features::DesignData> designs;
  for (const char* name :
       {"smallboom", "jpeg", "linkruncca", "spiMaster", "usbf_device"}) {
    designs.push_back(pipeline.build(name));
  }
  std::vector<const features::DesignData*> pointers;
  for (const auto& d : designs) pointers.push_back(&d);
  const features::DesignData& target = designs.front();
  const auto steps = static_cast<double>(kEpochsPerCall) *
                     static_cast<double>(designs.size() - 1);

  core::TrainConfig config;
  config.epochs = kEpochsPerCall;
  config.learningRate = 5e-3f;

  // Set-up: the training set with its masked-image caches filled (the
  // trainer's sampled batches then only gather), kSetupReps times before
  // the timed phase (the last one trains) and kSetupReps times after it.
  std::vector<double> setupSeconds;
  HostProbe setupProbe;
  const auto setUp = [&] {
    std::unique_ptr<core::TimingDataset> dataset;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      dataset.reset();
      const auto start = Clock::now();
      dataset = std::make_unique<core::TimingDataset>(pointers);
      dataset->restrictEndpoints(target, 48, 99);
      for (const auto* d : pointers) (void)dataset->fullBatch(*d);
      setupSeconds.push_back(microsBetween(start, Clock::now()) / 1e6);
      setupProbe.sample(3);
    }
    return dataset;
  };
  const std::unique_ptr<core::TimingDataset> dataset = setUp();

  Result result;
  std::vector<OpSample> ops;
  HostProbe probe;
  std::vector<double> r2s;
  std::vector<float> lastCurve;
  LayerInputs layers;
  layers.training = true;
  TraceSchedule schedule(options.trace, options.seconds);
  obs::TraceRegistry::global().reset();
  layers.before = CounterMark::read();
  schedule.start();
  std::uint64_t call = 0;
  while (!schedule.expired()) {
    // Each call trains from a fresh seed drawn from the workload seed.
    config.seed = options.seed * 1000003ULL + call++;
    const core::Trainer seeded(*dataset, config);
    const bool traced = schedule.tracedNow();
    const std::uint64_t request = spans.newRequest();
    core::TrainStats stats;
    std::unique_ptr<core::TimingModel> model;
    const auto start = Clock::now();
    try {
      SpanRecorder::Scope span(spans, "perfbench/train", request, traced);
      model = seeded.train(core::Strategy::kOurs, &stats);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "train_step: train failed: %s\n", e.what());
    }
    const double us = microsBetween(start, Clock::now());
    for (std::int64_t s = 0; s < static_cast<std::int64_t>(steps); ++s) {
      ops.push_back({us / steps, traced});
    }
    probe.sample(4);
    ++result.attempted;
    if (model == nullptr || !lossCurveOk(stats.epochLoss)) {
      ++result.failed;
      continue;
    }
    lastCurve = stats.epochLoss;
    const bool wasTraced = obs::TraceRegistry::global().enabled();
    obs::TraceRegistry::global().setEnabled(false);
    const std::vector<float> predicted = model->predictDesign(*dataset, target);
    obs::TraceRegistry::global().setEnabled(wasTraced);
    r2s.push_back(rSquared(std::vector<double>(predicted.begin(),
                                               predicted.end()),
                           std::vector<double>(target.labels.begin(),
                                               target.labels.end())));
  }
  schedule.stop();
  layers.after = CounterMark::read();
  const double rss = residentMiB();
  (void)setUp();  // the second half of the set-up repetitions

  // Negative self-test: a flat curve and a NaN epoch must both fail.
  if (!lastCurve.empty()) {
    std::vector<float> flat = lastCurve;
    flat.back() = flat.front();
    std::vector<float> nan = lastCurve;
    nan[nan.size() / 2] = std::nanf("");
    for (const auto* corrupt : {&flat, &nan}) {
      ++result.selfTestCases;
      if (lossCurveOk(*corrupt)) ++result.selfTestMisses;
    }
  }

  addEndToEnd(result, setupSeconds, setupProbe, ops, probe, rss,
              median(r2s));
  result.detail.push_back(
      {"train.calls", static_cast<double>(result.attempted), "count"});
  if (options.trace) {
    splitTraced(ops, layers);
    addLayerSplit(layers, result);
  }
  return result;
}

}  // namespace perfbench
