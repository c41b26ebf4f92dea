// whatif_eco: one WhatIfSession on or1200 at scale 0.35 replays a seeded
// ECO edit stream in blocks of ten (7 resizes, 2 moves, 1 buffer insertion
// in a seeded order). Each edit is followed by an 8-endpoint answer; each
// block ends with a full-design report
// through PredictionEngine::predictDesign, checked bitwise against a cold
// load of the edited netlist.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "netlist/io.hpp"
#include "obs/trace.hpp"
#include "serve/feature_service.hpp"
#include "serve/prediction_engine.hpp"
#include "whatif/whatif_session.hpp"

namespace perfbench {
namespace {

using namespace dagt;

constexpr std::size_t kQueryEndpoints = 8;
constexpr int kReportEvery = 10;

enum class EditKind { kResize, kMove, kBuffer };

/// One block of kReportEvery edits: ~70% resize, ~20% move, ~10% buffer,
/// in an order drawn from the seed, so that every seed asks for the same
/// mix of work.
std::vector<EditKind> drawBlock(Rng& rng) {
  std::vector<EditKind> block(7, EditKind::kResize);
  block.insert(block.end(), 2, EditKind::kMove);
  block.push_back(EditKind::kBuffer);
  rng.shuffle(block);
  return block;
}

/// Apply one seeded edit of `kind`; returns false when the drawn edit is
/// impossible (no drive variant, no bufferable net) and nothing changed.
bool applyEdit(whatif::WhatIfSession& session, EditKind kind, Rng& rng,
               const Rect& die) {
  const auto cells =
      static_cast<std::uint64_t>(session.netlist().numCells());
  if (kind == EditKind::kResize) {
    const auto cell = static_cast<netlist::CellId>(rng.uniformInt(cells));
    return session.resizeCell(cell, rng.uniform() < 0.5);
  }
  if (kind == EditKind::kMove) {
    const auto cell = static_cast<netlist::CellId>(rng.uniformInt(cells));
    const Point to{static_cast<float>(rng.uniform(die.lo.x, die.hi.x)),
                   static_cast<float>(rng.uniform(die.lo.y, die.hi.y))};
    session.moveCell(cell, to);
    return true;
  }
  // First net with enough fanout, scanning from a random start.
  const std::int64_t nets = session.netlist().numNets();
  const auto first = static_cast<std::int64_t>(
      rng.uniformInt(static_cast<std::uint64_t>(nets)));
  for (std::int64_t i = 0; i < nets; ++i) {
    if (session.insertBuffer(static_cast<netlist::NetId>((first + i) % nets))
            .inserted) {
      return true;
    }
  }
  return false;
}

bool bitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

}  // namespace

Result runWhatIfEco(const Options& options, const Scaffold& scaffold,
                    SpanRecorder& spans) {
  const ServeDesign& design = scaffold.design(Scaffold::kEcoDesign);
  const netlist::CellLibrary library =
      netlist::io::readLibraryFile(design.libraryPath);
  const netlist::Netlist baseline =
      netlist::io::readNetlistFile(design.netlistPath, library);
  const place::PlacementResult placement =
      serve::readPlacementFile(design.placementPath);
  const netlist::TechNode node = library.node();

  // Set-up: engine + bundle + the session's initial full load, on fresh
  // engines, kSetupReps times before the timed phase (the last pair runs
  // the workload) and kSetupReps times after it.
  std::vector<double> setupSeconds;
  std::vector<double> buildUs;
  HostProbe setupProbe;
  struct Pair {
    std::unique_ptr<serve::PredictionEngine> engine;
    std::unique_ptr<whatif::WhatIfSession> session;
  };
  const auto setUp = [&] {
    Pair pair;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      pair.session.reset();  // before the engine it refers to
      pair.engine.reset();
      const auto start = Clock::now();
      pair.engine = std::make_unique<serve::PredictionEngine>(servingConfig());
      pair.engine->addBundleFromDir(scaffold.bundleDir());
      const auto loadStart = Clock::now();
      pair.session = std::make_unique<whatif::WhatIfSession>(
          *pair.engine, "eco", baseline, node, placement);
      const auto end = Clock::now();
      setupSeconds.push_back(microsBetween(start, end) / 1e6);
      buildUs.push_back(microsBetween(loadStart, end));
      setupProbe.sample(3);
    }
    return pair;
  };
  Pair timed = setUp();
  serve::PredictionEngine* engine = timed.engine.get();
  whatif::WhatIfSession* session = timed.session.get();

  Rng rng(options.seed);
  const auto drawQuery = [&] {
    std::vector<std::int64_t> query(kQueryEndpoints);
    for (auto& e : query) {
      e = static_cast<std::int64_t>(rng.uniformInt(
          static_cast<std::uint64_t>(session->numEndpoints())));
    }
    return query;
  };
  for (int i = 0; i < 8; ++i) (void)session->predict(drawQuery());  // warm-up

  // Cold reference engine: each report's edited netlist is loaded from
  // scratch under one key with a fresh revision (so memory stays bounded).
  serve::PredictionEngine reference(servingConfig());
  reference.addBundleFromDir(scaffold.bundleDir());

  Result result;
  std::vector<OpSample> ops;
  HostProbe probe;
  std::vector<double> reportUs;
  std::vector<double> r2s;
  std::vector<float> lastReport;
  std::vector<float> lastCold;
  LayerInputs layers;
  double imagesRebuilt = 0.0;
  double dirtyEndpoints = 0.0;
  double pinsVisited = 0.0;
  std::int64_t edits = 0;
  std::vector<EditKind> block;
  TraceSchedule schedule(options.trace, options.seconds);
  obs::TraceRegistry::global().reset();
  layers.before = CounterMark::read();
  schedule.start();
  while (!schedule.expired()) {
    const bool traced = schedule.tracedNow();
    const std::uint64_t request = spans.newRequest();
    if (block.empty()) block = drawBlock(rng);
    const auto start = Clock::now();
    bool ok = true;
    bool edited = false;
    std::vector<float> answer;
    double editUs = 0.0;
    double syncUs = 0.0;
    double queryUs = 0.0;
    try {
      SpanRecorder::Scope op(spans, "perfbench/eco_op", request, traced);
      {
        SpanRecorder::Scope span(spans, "perfbench/edit", request, traced);
        edited = applyEdit(*session, block.back(), rng, placement.dieArea);
      }
      const auto editEnd = Clock::now();
      editUs = microsBetween(start, editEnd);
      if (edited) {
        {
          SpanRecorder::Scope span(spans, "perfbench/sync", request, traced);
          session->sync();
        }
        const auto syncEnd = Clock::now();
        syncUs = microsBetween(editEnd, syncEnd);
        const std::vector<std::int64_t> query = drawQuery();
        {
          SpanRecorder::Scope span(spans, "perfbench/query", request, traced);
          answer = session->predict(query);
        }
        queryUs = microsBetween(syncEnd, Clock::now());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "whatif_eco: edit failed: %s\n", e.what());
      ok = false;
      edited = true;
    }
    if (!edited) continue;  // impossible edit drawn: draw another
    block.pop_back();
    ops.push_back({microsBetween(start, Clock::now()), traced});
    if (edits % 2 == 1) probe.sample();
    ++edits;
    layers.whatifEditUs += editUs;
    layers.whatifSyncUs += syncUs;
    layers.whatifQueryUs += queryUs;
    for (const float v : answer) ok = ok && std::isfinite(v);
    ok = ok && answer.size() == kQueryEndpoints;
    ++result.attempted;
    if (!ok) {
      ++result.failed;
      continue;
    }
    imagesRebuilt += static_cast<double>(session->lastSync().imagesRebuilt);
    dirtyEndpoints +=
        static_cast<double>(session->lastSync().dirtyEndpoints.size());
    pinsVisited += static_cast<double>(session->staStats().lastVisited);

    if (edits % kReportEvery != 0) continue;
    // Full-design report (timed), then its cold reference (untimed).
    ++result.attempted;
    std::vector<float> report;
    std::vector<float> cold;
    try {
      const auto reportStart = Clock::now();
      {
        SpanRecorder::Scope span(spans, "perfbench/report", request, traced);
        report = engine->predictDesign(session->key());
      }
      const double rus = microsBetween(reportStart, Clock::now());
      reportUs.push_back(rus);
      // Report time counts toward throughput, not toward edit latency.
      ops.push_back({rus, traced, 0.0, false});
      const bool wasTraced = obs::TraceRegistry::global().enabled();
      obs::TraceRegistry::global().setEnabled(false);
      reference.loadDesign("cold", session->netlist(), node, placement,
                           "r" + std::to_string(reportUs.size()));
      cold = reference.predictDesign("cold");
      obs::TraceRegistry::global().setEnabled(wasTraced);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "whatif_eco: report failed: %s\n", e.what());
    }
    if (report.empty() || !bitwiseEqual(report, cold)) {
      ++result.failed;
      continue;
    }
    std::vector<double> predicted(report.begin(), report.end());
    std::vector<double> truth(design.labels.begin(), design.labels.end());
    r2s.push_back(rSquared(predicted, truth));
    lastReport = std::move(report);
    lastCold = std::move(cold);
  }
  schedule.stop();
  layers.after = CounterMark::read();
  const double rss = residentMiB();
  (void)setUp();  // the second half of the set-up repetitions

  // Negative self-test: a report with one flipped low bit, and one with two
  // endpoints swapped, must fail the bitwise check.
  if (!lastReport.empty()) {
    std::vector<float> flipped = lastReport;
    flipped[0] = flipLowBit(flipped[0]);
    std::vector<float> swapped = lastReport;
    std::size_t other = 1;
    while (other < swapped.size() && swapped[other] == swapped[0]) ++other;
    if (other < swapped.size()) std::swap(swapped[0], swapped[other]);
    for (const auto* corrupt : {&flipped, &swapped}) {
      ++result.selfTestCases;
      if (bitwiseEqual(*corrupt, lastCold)) ++result.selfTestMisses;
    }
  }

  addEndToEnd(result, setupSeconds, setupProbe, ops, probe, rss,
              median(r2s));
  const auto numEdits = static_cast<double>(edits);
  result.detail.push_back({"report_p50_ms", median(reportUs) / 1e3, "ms"});
  result.detail.push_back(
      {"reports", static_cast<double>(reportUs.size()), "count"});
  result.detail.push_back({"features.build_ms", median(buildUs) / 1e3, "ms"});
  result.detail.push_back(
      {"whatif.edit_us", layers.whatifEditUs / numEdits, "us"});
  result.detail.push_back(
      {"whatif.sync_us", layers.whatifSyncUs / numEdits, "us"});
  result.detail.push_back(
      {"whatif.query_us", layers.whatifQueryUs / numEdits, "us"});
  if (options.trace) {
    const serve::MetricsSnapshot metrics = engine->metrics();
    layers.featureCacheHitRate = 100.0 * metrics.cacheHitRate;
    layers.setupUs = median(setupSeconds) * 1e6;
    layers.buildUs = median(buildUs);
    layers.imagesRebuilt = imagesRebuilt / numEdits;
    layers.dirtyEndpoints = dirtyEndpoints / numEdits;
    layers.pinsVisited = pinsVisited / numEdits;
    splitTraced(ops, layers);
    addLayerSplit(layers, result);
  }
  return result;
}

}  // namespace perfbench
