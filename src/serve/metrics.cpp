#include "serve/metrics.hpp"

#include <algorithm>
#include <functional>
#include <thread>

#include "common/table.hpp"
#include "tensor/expr.hpp"
#include "tensor/kernels/kernels.hpp"

namespace dagt::serve {

namespace {

double percentile(const std::vector<float>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(sorted[lo]) * (1.0 - frac) +
         static_cast<double>(sorted[hi]) * frac;
}

}  // namespace

std::string MetricsSnapshot::renderTable() const {
  TextTable table({"metric", "value"});
  table.addRow({"kernel tier",
                tensor::kernels::tierName(tensor::kernels::activeTier())});
  table.addRow({"requests", std::to_string(requests)});
  table.addRow({"full-design requests", std::to_string(fullDesignRequests)});
  table.addRow({"batches", std::to_string(batches)});
  table.addRow({"mean batch size", TextTable::num(meanBatchSize, 2)});
  table.addRow({"graph memo fills", std::to_string(graphMemoFills)});
  table.addRow({"graph memo rows computed",
                std::to_string(graphMemoRowsComputed)});
  table.addRow({"graph memo bytes", std::to_string(graphMemoBytes)});
  table.addRow({"cache hits", std::to_string(cacheHits)});
  table.addRow({"cache misses", std::to_string(cacheMisses)});
  table.addRow({"cache hit rate", TextTable::num(cacheHitRate, 3)});
  table.addRow({"latency mean (us)", TextTable::num(meanUs, 1)});
  table.addRow({"latency p50 (us)", TextTable::num(p50Us, 1)});
  table.addRow({"latency p95 (us)", TextTable::num(p95Us, 1)});
  table.addRow({"latency p99 (us)", TextTable::num(p99Us, 1)});
  table.addRow({"latency max (us)", TextTable::num(maxUs, 1)});
  if (whatifEdits > 0 || coneUpdates > 0) {
    table.addRow({"whatif edits", std::to_string(whatifEdits)});
    table.addRow({"whatif repredicts", std::to_string(whatifRepredicts)});
    table.addRow({"cone updates", std::to_string(coneUpdates)});
    table.addRow({"cone structural rebuilds",
                  std::to_string(coneStructuralRebuilds)});
    table.addRow({"cone endpoints reused",
                  std::to_string(coneEndpointsReused)});
    table.addRow({"cone endpoints evicted",
                  std::to_string(coneEndpointsEvicted)});
    table.addRow({"sta full refreshes", std::to_string(staFullRefreshes)});
    table.addRow({"sta incremental updates",
                  std::to_string(staIncrementalUpdates)});
    table.addRow({"sta pins visited (last)",
                  std::to_string(staPinsVisitedLast)});
    table.addRow({"sta pins visited (total)",
                  std::to_string(staPinsVisitedTotal)});
    std::string hist;
    for (std::size_t b = 0; b < staConeHist.size(); ++b) {
      if (staConeHist[b] == 0) continue;
      if (!hist.empty()) hist += "  ";
      hist += "<=" + std::to_string(std::uint64_t{2} << b) + ":" +
              std::to_string(staConeHist[b]);
    }
    table.addRow({"sta cone-size histogram", hist.empty() ? "-" : hist});
  }
  if (retrievalEnabled) {
    table.addRow({"retrieval hits", std::to_string(retrievalHits)});
    table.addRow({"retrieval misses", std::to_string(retrievalMisses)});
    table.addRow({"retrieval hit rate", TextTable::num(retrievalHitRate, 3)});
    table.addRow({"retrieval rejects (dist)",
                  std::to_string(retrievalRejectByDist)});
    table.addRow({"retrieval rejects (sigma)",
                  std::to_string(retrievalRejectBySigma)});
    table.addRow({"retrieval inserts", std::to_string(retrievalInserts)});
    table.addRow({"retrieval embed memo hits",
                  std::to_string(retrievalEmbedMemoHits)});
    table.addRow({"retrieval index size", std::to_string(retrievalIndexSize)});
    table.addRow({"retrieval hit-path mean (us)",
                  TextTable::num(retrievalHitMeanUs, 1)});
    table.addRow({"retrieval miss-path mean (us)",
                  TextTable::num(retrievalMissMeanUs, 1)});
  }
  table.addRow({"fusion programs compiled",
                std::to_string(fusionProgramsCompiled)});
  table.addRow({"fusion cache hits", std::to_string(fusionCacheHits)});
  table.addRow({"fusion cache misses", std::to_string(fusionCacheMisses)});
  table.addRow({"fusion replays", std::to_string(fusionReplays)});
  table.addRow({"fused ew launches", std::to_string(fusedEwLaunches)});
  table.addRow({"fused gemm launches", std::to_string(fusedGemmLaunches)});
  table.addRow({"fused dot launches", std::to_string(fusedDotLaunches)});
  table.addRow({"pool heap allocs", std::to_string(pool.heapAllocs)});
  table.addRow({"pool reuses",
                std::to_string(pool.poolReuses + pool.workspaceReuses)});
  table.addRow({"pool hit rate", TextTable::num(pool.hitRate(), 3)});
  table.addRow({"pool bytes outstanding",
                std::to_string(pool.bytesOutstanding)});
  table.addRow({"pool bytes parked", std::to_string(pool.bytesPooled)});
  for (const obs::SpanStats& span : traceSpans) {
    table.addRow({"span " + span.name + " (count / mean us)",
                  std::to_string(span.count) + " / " +
                      TextTable::num(span.meanUs(), 1)});
  }
  return table.render();
}

JsonValue MetricsSnapshot::toJson() const {
  JsonValue j = JsonValue::object();
  j.set("kernel_tier", tensor::kernels::tierName(tensor::kernels::activeTier()))
      .set("requests", requests)
      .set("full_design_requests", fullDesignRequests)
      .set("batches", batches)
      .set("mean_batch_size", meanBatchSize)
      .set("graph_memo_fills", graphMemoFills)
      .set("graph_memo_rows_computed", graphMemoRowsComputed)
      .set("graph_memo_bytes", graphMemoBytes)
      .set("cache_hits", cacheHits)
      .set("cache_misses", cacheMisses)
      .set("cache_hit_rate", cacheHitRate)
      .set("latency_mean_us", meanUs)
      .set("latency_p50_us", p50Us)
      .set("latency_p95_us", p95Us)
      .set("latency_p99_us", p99Us)
      .set("latency_max_us", maxUs)
      .set("fusion_programs_compiled", fusionProgramsCompiled)
      .set("fusion_cache_hits", fusionCacheHits)
      .set("fusion_cache_misses", fusionCacheMisses)
      .set("fusion_replays", fusionReplays)
      .set("fused_ew_launches", fusedEwLaunches)
      .set("fused_gemm_launches", fusedGemmLaunches)
      .set("fused_dot_launches", fusedDotLaunches)
      .set("pool_heap_allocs", pool.heapAllocs)
      .set("pool_reuses", pool.poolReuses + pool.workspaceReuses)
      .set("pool_hit_rate", pool.hitRate())
      .set("pool_bytes_outstanding", pool.bytesOutstanding)
      .set("pool_bytes_parked", pool.bytesPooled);
  if (whatifEdits > 0 || coneUpdates > 0) {
    JsonValue hist = JsonValue::array();
    for (const std::uint64_t count : staConeHist) {
      hist.push(JsonValue(count));
    }
    j.set("whatif_edits", whatifEdits)
        .set("whatif_repredicts", whatifRepredicts)
        .set("cone_updates", coneUpdates)
        .set("cone_structural_rebuilds", coneStructuralRebuilds)
        .set("cone_endpoints_reused", coneEndpointsReused)
        .set("cone_endpoints_evicted", coneEndpointsEvicted)
        .set("sta_full_refreshes", staFullRefreshes)
        .set("sta_incremental_updates", staIncrementalUpdates)
        .set("sta_pins_visited_last", staPinsVisitedLast)
        .set("sta_pins_visited_total", staPinsVisitedTotal)
        .set("sta_cone_hist", std::move(hist));
  }
  if (retrievalEnabled) {
    j.set("retrieval_hits", retrievalHits)
        .set("retrieval_misses", retrievalMisses)
        .set("retrieval_hit_rate", retrievalHitRate)
        .set("retrieval_reject_by_dist", retrievalRejectByDist)
        .set("retrieval_reject_by_sigma", retrievalRejectBySigma)
        .set("retrieval_inserts", retrievalInserts)
        .set("retrieval_embed_memo_hits", retrievalEmbedMemoHits)
        .set("retrieval_index_size", retrievalIndexSize)
        .set("retrieval_hit_mean_us", retrievalHitMeanUs)
        .set("retrieval_miss_mean_us", retrievalMissMeanUs);
  }
  if (!traceSpans.empty()) {
    JsonValue spans = JsonValue::object();
    for (const obs::SpanStats& span : traceSpans) {
      spans.set(span.name, JsonValue::object()
                               .set("count", span.count)
                               .set("total_us", span.totalUs())
                               .set("mean_us", span.meanUs()));
    }
    j.set("trace_spans", std::move(spans));
  }
  return j;
}

void ServeMetrics::recordRequests(std::uint64_t count) {
  // Release: a snapshot that observes these requests (acquire load) must
  // also observe the recordBatch() increment that precedes this call on the
  // worker thread — pollers may assert requests imply batches.
  requests_.fetch_add(count, std::memory_order_release);
}

void ServeMetrics::recordFullDesign() {
  fullDesignRequests_.fetch_add(1, std::memory_order_relaxed);
}

void ServeMetrics::recordBatch(std::uint64_t coalescedSize) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  coalesced_.fetch_add(coalescedSize, std::memory_order_relaxed);
}

ServeMetrics::LatencyStripe& ServeMetrics::stripeForThisThread() {
  // Stable per-thread stripe choice: an engine worker always lands on the
  // same stripe, so its lock is effectively private (contended only by the
  // occasional snapshot drain of that stripe).
  const std::size_t idx =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) %
      kLatencyStripes;
  return stripes_[idx];
}

void ServeMetrics::recordLatencyUs(double us) {
  LatencyStripe& stripe = stripeForThisThread();
  std::lock_guard<std::mutex> lock(stripe.stripeMutex_);
  stripe.samplesUs_.push_back(static_cast<float>(us));
}

MetricsSnapshot ServeMetrics::snapshot(std::uint64_t cacheHits,
                                       std::uint64_t cacheMisses,
                                       const tensor::PoolStats& pool) const {
  MetricsSnapshot snap;
  snap.pool = pool;
  // Fusion counters are process-wide, like the pool counters.
  const tensor::expr::FusionStats fusion = tensor::expr::stats();
  snap.fusionProgramsCompiled = fusion.programsCompiled;
  snap.fusionCacheHits = fusion.cacheHits;
  snap.fusionCacheMisses = fusion.cacheMisses;
  snap.fusionReplays = fusion.programReplays;
  snap.fusedEwLaunches = fusion.fusedEwLaunches;
  snap.fusedGemmLaunches = fusion.fusedGemmLaunches;
  snap.fusedDotLaunches = fusion.rowDotLaunches;
  // One load per counter: each is monotone, so the snapshot is a
  // point-in-time lower bound per metric (no torn or decreasing values).
  // The requests load is acquire (paired with recordRequests' release RMW
  // chain) and happens first, so any observed request also makes its
  // batch's recordBatch increment visible below: requests > 0 implies
  // batches > 0 in every snapshot.
  snap.requests = requests_.load(std::memory_order_acquire);
  snap.fullDesignRequests = fullDesignRequests_.load(std::memory_order_relaxed);
  snap.batches = batches_.load(std::memory_order_relaxed);
  const std::uint64_t coalesced = coalesced_.load(std::memory_order_relaxed);
  snap.meanBatchSize =
      snap.batches == 0 ? 0.0
                        : static_cast<double>(coalesced) /
                              static_cast<double>(snap.batches);
  // Merge the latency stripes one at a time — each stripe's lock is held
  // only for its copy, so recorders on other stripes are never blocked and
  // the recorder sharing a stripe blocks for one memcpy at poll cadence.
  std::vector<float> sorted;
  for (const LatencyStripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.stripeMutex_);
    sorted.insert(sorted.end(), stripe.samplesUs_.begin(),
                  stripe.samplesUs_.end());
  }
  snap.cacheHits = cacheHits;
  snap.cacheMisses = cacheMisses;
  const std::uint64_t lookups = cacheHits + cacheMisses;
  snap.cacheHitRate =
      lookups == 0 ? 0.0
                   : static_cast<double>(cacheHits) /
                         static_cast<double>(lookups);
  if (!sorted.empty()) {
    std::sort(sorted.begin(), sorted.end());
    double sum = 0.0;
    for (const float v : sorted) sum += v;
    snap.meanUs = sum / static_cast<double>(sorted.size());
    snap.p50Us = percentile(sorted, 0.50);
    snap.p95Us = percentile(sorted, 0.95);
    snap.p99Us = percentile(sorted, 0.99);
    snap.maxUs = static_cast<double>(sorted.back());
  }
  return snap;
}

}  // namespace dagt::serve
