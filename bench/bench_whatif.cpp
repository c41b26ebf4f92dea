// What-if service bench: replay a randomized ECO edit stream against one
// design and compare the incremental refresh path (WhatIfSession::sync ->
// cone update) with a cold full refresh (reload the edited netlist from
// scratch and re-extract everything). The stream is drawn in blocks of ten
// edits with perfbench whatif_eco's fixed mix (7 resizes, 2 moves, 1 buffer
// insertion) in a seeded order; with the bench's seed the first block's
// buffer insertion is among its first eight edits, so the smoke stream
// covers every edit kind (the bench fails a stream of eight or more edits
// without one of each). Writes BENCH_whatif.json.
//
// Per edit the bench times two things on each path:
//   * refresh — incremental: sync() (cone update against the prior
//     snapshot); cold: loadDesign() (full STA + extraction; masked images
//     are built when a query first reads them). Their ratio is the
//     incremental-vs-full-refresh speedup.
//   * query — an 8-endpoint prediction against the fresh snapshot, same
//     engine and bundle on both paths. The cold load's warm-up sweeps the
//     whole design; the incremental query fills its GNN memo from the
//     previous snapshot's, re-running only the changed fanout cone. It is
//     reported (e2e fields) but not gated.
//
// Medians are reported over the whole stream and per edit kind (stdout
// and the JSON's "per_kind" object).
//
// Two gates (nonzero exit on failure):
//   * parity — after every edit the incremental predictions must be
//     bitwise identical to the cold rebuild's (the what-if answer IS the
//     model's answer, not an approximation);
//   * refresh speedup — the median incremental-vs-full-refresh speedup
//     must reach $DAGT_WHATIF_MIN_SPEEDUP (default 10; the verify.sh
//     smoke stage runs a short stream and gates at 5).
//
// Knobs: DAGT_WHATIF_EDITS (edit count, default 30), DAGT_WHATIF_SCALE
// (design-size multiplier, default 0.35), DAGT_WHATIF_MIN_SPEEDUP,
// DAGT_WHATIF_TRACE (print span aggregates). Prediction quality is
// irrelevant here, so the bundle wraps an untrained deterministic dac23
// model (cheap to build and to forward).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "obs/trace.hpp"
#include "designgen/design_suite.hpp"
#include "features/design_data.hpp"
#include "harness.hpp"
#include "netlist/cell_library.hpp"
#include "place/placer.hpp"
#include "serve/model_bundle.hpp"
#include "serve/prediction_engine.hpp"
#include "whatif/whatif_session.hpp"

namespace dagt {
namespace {

double envOr(const char* name, double fallback) {
  const char* value = std::getenv(name);
  return value == nullptr ? fallback : std::atof(value);
}

double microsSince(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Untrained deterministic bundle, saved to a per-process temp dir (the
/// engine loads bundles from disk).
std::string makeBundleDir() {
  features::DataConfig config;
  const features::DataPipeline pipeline(config);
  serve::BundleManifest manifest;
  manifest.modelKind = "dac23";
  manifest.variant = "shared";
  manifest.strategy = "bench_whatif";
  manifest.targetNode = netlist::TechNode::k7nm;
  manifest.vocabularyNodes = config.nodes;
  manifest.pinFeatureDim = pipeline.featureDim();
  manifest.model.gnnHidden = 16;
  manifest.model.cnnBaseChannels = 4;
  manifest.model.cnnDim = 8;
  manifest.model.headHidden = 16;
  manifest.model.imageResolution = config.imageResolution;
  manifest.features = config.features;
  const auto model = serve::ModelBundle::instantiate(manifest);
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("dagt_bench_whatif_" + std::to_string(::getpid())))
          .string();
  serve::ModelBundle::save(*model, manifest, dir);
  return dir;
}

enum class EditKind { kResize, kMove, kBuffer };
constexpr const char* kKindNames[] = {"resize", "move", "buffer"};

/// One block of ten edits in perfbench whatif_eco's mix, in a seeded
/// order; the stream takes its edits from the back.
std::vector<EditKind> drawBlock(Rng& rng) {
  std::vector<EditKind> block(7, EditKind::kResize);
  block.insert(block.end(), 2, EditKind::kMove);
  block.push_back(EditKind::kBuffer);
  rng.shuffle(block);
  return block;
}

struct EditRecord {
  EditKind kind = EditKind::kResize;
  double incrementalUs = 0.0;  // sync() — the incremental refresh
  double coldUs = 0.0;         // loadDesign() — the full refresh
  double speedup = 0.0;        // coldUs / incrementalUs
  double incrementalQueryUs = 0.0;  // 8-endpoint predict, incremental side
  double coldQueryUs = 0.0;         // same query, cold side
  double e2eSpeedup = 0.0;          // refresh + query, both sides
  std::int64_t dirtyEndpoints = 0;
  std::int64_t imagesRebuilt = 0;
  std::int64_t conesWalked = 0;
  std::int64_t staVisited = 0;
  bool parity = false;
};

}  // namespace

int run() {
  const int edits = static_cast<int>(envOr("DAGT_WHATIF_EDITS", 30.0));
  const float scale = static_cast<float>(envOr("DAGT_WHATIF_SCALE", 0.35));
  const double minSpeedup = envOr("DAGT_WHATIF_MIN_SPEEDUP", 10.0);
  // DAGT_WHATIF_TRACE=1 turns on span aggregation (printed at the end) to
  // show where the incremental path spends its time. Tracing itself is
  // cheap, but leave it off for gating runs to keep the numbers honest.
  const bool trace = envOr("DAGT_WHATIF_TRACE", 0.0) != 0.0;
  if (trace) obs::TraceRegistry::global().setEnabled(true);

  const designgen::DesignSuite suite(scale);
  const auto& entry = suite.entry("or1200");
  const auto lib = netlist::CellLibrary::makeNode(entry.node);
  auto nl = suite.buildNetlist(entry, lib);
  place::PlacerConfig placerConfig;
  placerConfig.seed ^= entry.spec.seed;
  const auto placement = place::Placer::place(nl, placerConfig);
  const Rect die = placement.dieArea;

  serve::EngineConfig config;
  config.batching = false;  // caller-thread forwards: no coalescing jitter
  serve::PredictionEngine engine(config);
  const std::string bundleDir = makeBundleDir();
  engine.addBundleFromDir(bundleDir);

  whatif::WhatIfSession session(engine, "whatif", nl, entry.node, placement);
  const std::int64_t numEndpoints = session.numEndpoints();
  std::fprintf(stderr, "whatif bench: or1200 @ scale %.2f, %lld endpoints, "
                       "%d edits\n",
               scale, static_cast<long long>(numEndpoints), edits);
  std::vector<std::int64_t> allEndpoints(
      static_cast<std::size_t>(numEndpoints));
  std::iota(allEndpoints.begin(), allEndpoints.end(), std::int64_t{0});

  Rng rng(0xec0ec0ULL);
  std::vector<EditRecord> records;
  bool parityOk = true;
  int coldSerial = 0;
  std::vector<EditKind> block;
  while (static_cast<int>(records.size()) < edits) {
    if (block.empty()) block = drawBlock(rng);
    EditRecord record;
    // An impossible edit (no drive variant, no bufferable net) changes
    // nothing and keeps its kind at the back of the block for a redraw.
    record.kind = block.back();
    if (record.kind == EditKind::kResize) {
      const auto cell = static_cast<netlist::CellId>(
          rng.uniformInt(static_cast<std::uint64_t>(session.netlist().numCells())));
      if (!session.resizeCell(cell, rng.uniform() < 0.5)) continue;
    } else if (record.kind == EditKind::kMove) {
      const auto cell = static_cast<netlist::CellId>(
          rng.uniformInt(static_cast<std::uint64_t>(session.netlist().numCells())));
      const Point to{
          static_cast<float>(rng.uniform(die.lo.x, die.hi.x)),
          static_cast<float>(rng.uniform(die.lo.y, die.hi.y))};
      session.moveCell(cell, to);
    } else {
      // First net with enough fanout, scanning from a random start.
      const std::int64_t numNets = session.netlist().numNets();
      const std::int64_t start = static_cast<std::int64_t>(
          rng.uniformInt(static_cast<std::uint64_t>(numNets)));
      bool inserted = false;
      for (std::int64_t i = 0; i < numNets && !inserted; ++i) {
        const auto net =
            static_cast<netlist::NetId>((start + i) % numNets);
        inserted = session.insertBuffer(net).inserted;
      }
      if (!inserted) continue;
    }
    block.pop_back();

    // A post-edit query: a handful of endpoints the ECO author cares
    // about.
    std::vector<std::int64_t> query(
        std::min<std::size_t>(8, allEndpoints.size()));
    for (auto& e : query) {
      e = static_cast<std::int64_t>(
          rng.uniformInt(static_cast<std::uint64_t>(numEndpoints)));
    }

    // Incremental refresh (the cone update), then the query against it.
    const auto incrementalStart = std::chrono::steady_clock::now();
    session.sync();
    record.incrementalUs = microsSince(incrementalStart);
    const auto incrementalQueryStart = std::chrono::steady_clock::now();
    const std::vector<float> incremental = session.predict(query);
    record.incrementalQueryUs = microsSince(incrementalQueryStart);
    record.dirtyEndpoints =
        static_cast<std::int64_t>(session.lastSync().dirtyEndpoints.size());
    record.imagesRebuilt = session.lastSync().imagesRebuilt;
    record.conesWalked = session.lastSync().conesWalked;
    record.staVisited = session.staStats().lastVisited;

    // Cold reference: full rebuild of the *edited* netlist under another
    // key (fresh revision forces the cache miss), same engine and bundle,
    // answering the same query.
    const auto coldStart = std::chrono::steady_clock::now();
    engine.loadDesign("cold", session.netlist(), entry.node, placement,
                      "c" + std::to_string(coldSerial++));
    record.coldUs = microsSince(coldStart);
    const auto coldQueryStart = std::chrono::steady_clock::now();
    const std::vector<float> coldQuery =
        engine.predictEndpoints("cold", query);
    record.coldQueryUs = microsSince(coldQueryStart);

    // Parity is checked over EVERY endpoint (untimed: both snapshots are
    // already built, these are pure forwards).
    const std::vector<float> incrementalAll = session.predict(allEndpoints);
    const std::vector<float> coldAll =
        engine.predictEndpoints("cold", allEndpoints);
    record.parity =
        incremental.size() == coldQuery.size() &&
        std::memcmp(incremental.data(), coldQuery.data(),
                    incremental.size() * sizeof(float)) == 0 &&
        incrementalAll.size() == coldAll.size() &&
        std::memcmp(incrementalAll.data(), coldAll.data(),
                    incrementalAll.size() * sizeof(float)) == 0;
    parityOk = parityOk && record.parity;
    record.speedup = record.incrementalUs > 0.0
                         ? record.coldUs / record.incrementalUs
                         : 0.0;
    const double incrE2e = record.incrementalUs + record.incrementalQueryUs;
    record.e2eSpeedup =
        incrE2e > 0.0 ? (record.coldUs + record.coldQueryUs) / incrE2e : 0.0;
    records.push_back(record);
  }

  std::vector<double> speedups, e2eSpeedups, incrUs, dirtyCounts, staVisits;
  double totalIncrementalUs = 0.0;
  for (const EditRecord& r : records) {
    speedups.push_back(r.speedup);
    e2eSpeedups.push_back(r.e2eSpeedup);
    incrUs.push_back(r.incrementalUs);
    dirtyCounts.push_back(static_cast<double>(r.dirtyEndpoints));
    staVisits.push_back(static_cast<double>(r.staVisited));
    totalIncrementalUs += r.incrementalUs + r.incrementalQueryUs;
  }
  const double medianSpeedup = median(speedups);
  const double editsPerSec =
      totalIncrementalUs > 0.0
          ? static_cast<double>(records.size()) * 1e6 / totalIncrementalUs
          : 0.0;

  // Per edit kind: absolute incremental and cold times next to the ratios,
  // since a kind's ratio moves with the cold side as much as with its own.
  JsonValue perKind = JsonValue::object();
  bool everyKind = true;
  std::printf("%-7s %5s %12s %10s %10s %8s %8s\n", "kind", "edits",
              "incremental", "cold", "query", "refresh", "e2e");
  for (int k = 0; k < 3; ++k) {
    std::vector<double> kIncr, kCold, kQuery, kSpeedup, kE2e;
    for (const EditRecord& r : records) {
      if (static_cast<int>(r.kind) != k) continue;
      kIncr.push_back(r.incrementalUs);
      kCold.push_back(r.coldUs);
      kQuery.push_back(r.incrementalQueryUs);
      kSpeedup.push_back(r.speedup);
      kE2e.push_back(r.e2eSpeedup);
    }
    everyKind = everyKind && !kIncr.empty();
    perKind.set(kKindNames[k],
                JsonValue::object()
                    .set("edits", static_cast<std::int64_t>(kIncr.size()))
                    .set("median_incremental_us", median(kIncr))
                    .set("median_cold_us", median(kCold))
                    .set("median_incremental_query_us", median(kQuery))
                    .set("median_speedup", median(kSpeedup))
                    .set("median_e2e_speedup", median(kE2e)));
    std::printf("%-7s %5zu %10.0fus %8.0fus %8.0fus %7.1fx %7.1fx\n",
                kKindNames[k], kIncr.size(), median(kIncr), median(kCold),
                median(kQuery), median(kSpeedup), median(kE2e));
  }

  JsonValue perEdit = JsonValue::array();
  for (const EditRecord& r : records) {
    perEdit.push(JsonValue::object()
                     .set("kind", kKindNames[static_cast<int>(r.kind)])
                     .set("incremental_us", r.incrementalUs)
                     .set("cold_us", r.coldUs)
                     .set("speedup", r.speedup)
                     .set("incremental_query_us", r.incrementalQueryUs)
                     .set("cold_query_us", r.coldQueryUs)
                     .set("e2e_speedup", r.e2eSpeedup)
                     .set("dirty_endpoints", r.dirtyEndpoints)
                     .set("images_rebuilt", r.imagesRebuilt)
                     .set("cones_walked", r.conesWalked)
                     .set("sta_visited", r.staVisited)
                     .set("parity", r.parity));
  }
  JsonValue doc = JsonValue::object();
  doc.set("design", "or1200")
      .set("scale", static_cast<double>(scale))
      .set("endpoints", numEndpoints)
      .set("edits", static_cast<std::int64_t>(records.size()))
      .set("edits_per_sec", editsPerSec)
      .set("median_speedup", medianSpeedup)
      .set("min_speedup", speedups.empty()
                              ? 0.0
                              : *std::min_element(speedups.begin(),
                                                  speedups.end()))
      .set("median_e2e_speedup", median(e2eSpeedups))
      .set("median_incremental_us", median(incrUs))
      .set("median_dirty_endpoints", median(dirtyCounts))
      .set("median_sta_visited", median(staVisits))
      .set("parity_ok", parityOk)
      .set("min_speedup_gate", minSpeedup)
      .set("per_kind", std::move(perKind))
      .set("per_edit", std::move(perEdit))
      .set("metrics", session.metrics().toJson());
  const auto path = bench::writeBenchJson("whatif", doc);
  std::fprintf(stderr,
               "wrote %s\nmedian refresh speedup %.1fx (e2e %.1fx), "
               "%.1f edits/s, parity %s\n",
               path.c_str(), medianSpeedup, median(e2eSpeedups), editsPerSec,
               parityOk ? "ok" : "BROKEN");

  if (trace) {
    for (const auto& s : obs::TraceRegistry::global().aggregate()) {
      std::fprintf(stderr, "  span %-24s count %6llu  total %10.0fus  "
                           "mean %8.1fus\n",
                   s.name.c_str(), static_cast<unsigned long long>(s.count),
                   s.totalUs(), s.meanUs());
    }
  }

  std::filesystem::remove_all(bundleDir);
  if (!parityOk) {
    std::fprintf(stderr, "FAIL: incremental predictions diverged from the "
                         "cold rebuild\n");
    return 1;
  }
  if (records.size() >= 8 && !everyKind) {
    std::fprintf(stderr, "FAIL: a stream of %zu edits lacks an edit kind\n",
                 records.size());
    return 1;
  }
  if (medianSpeedup < minSpeedup) {
    std::fprintf(stderr,
                 "FAIL: median refresh speedup %.1fx below the %.1fx gate\n",
                 medianSpeedup, minSpeedup);
    return 1;
  }
  return 0;
}

}  // namespace dagt

int main() { return dagt::run(); }
