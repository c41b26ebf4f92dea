#include "serve/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/table.hpp"
#include "tensor/expr.hpp"
#include "tensor/kernels/kernels.hpp"

namespace dagt::serve {

std::size_t LatencyHistogram::bucketOf(std::uint64_t ns) {
  constexpr std::uint64_t kLinear = std::uint64_t{2} << kSubBits;
  if (ns < kLinear) return static_cast<std::size_t>(ns);
  ns = std::min(ns, (std::uint64_t{1} << kMaxBits) - 1);
  // ns in [2^e, 2^(e+1)): its top kSubBits + 1 bits pick the bucket.
  const int shift = std::bit_width(ns) - 1 - kSubBits;
  return (static_cast<std::size_t>(shift) << kSubBits) +
         static_cast<std::size_t>(ns >> shift);
}

std::uint64_t LatencyHistogram::bucketWidth(std::size_t bucket) {
  const std::size_t octave = bucket >> kSubBits;
  return octave < 2 ? 1 : std::uint64_t{1} << (octave - 1);
}

std::uint64_t LatencyHistogram::bucketLow(std::size_t bucket) {
  const std::size_t octave = bucket >> kSubBits;
  if (octave < 2) return bucket;
  const std::uint64_t mantissa =
      (bucket & ((std::size_t{1} << kSubBits) - 1)) |
      (std::size_t{1} << kSubBits);
  return mantissa << (octave - 1);
}

void LatencyHistogram::record(double us) {
  const double ns = std::round(us * 1000.0);
  const std::uint64_t whole =
      !(ns > 0.0) ? 0
      : ns >= 0x1p63 ? std::uint64_t{1} << 63
                    : static_cast<std::uint64_t>(ns);
  buckets_[bucketOf(whole)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sumNs_.fetch_add(whole, std::memory_order_relaxed);
  std::uint64_t seen = maxNs_.load(std::memory_order_relaxed);
  while (whole > seen &&
         !maxNs_.compare_exchange_weak(seen, whole,
                                       std::memory_order_relaxed)) {
  }
}

LatencyHistogram::Summary LatencyHistogram::summarize() const {
  Summary out;
  std::array<std::uint64_t, kBuckets> counts;
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    counts[b] = buckets_[b].load(std::memory_order_relaxed);
    total += counts[b];
  }
  if (total == 0) return out;
  const std::uint64_t maxNs = maxNs_.load(std::memory_order_relaxed);
  const std::uint64_t count = count_.load(std::memory_order_relaxed);
  out.count = count;
  out.meanUs = static_cast<double>(sumNs_.load(std::memory_order_relaxed)) /
               static_cast<double>(std::max<std::uint64_t>(count, 1)) / 1000.0;
  out.maxUs = static_cast<double>(maxNs) / 1000.0;
  // Nearest rank: the ceil(q * total)-th smallest sample.
  const auto rankOf = [total](double q) {
    const double rank = std::ceil(q * static_cast<double>(total));
    return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(rank));
  };
  const std::uint64_t ranks[3] = {rankOf(0.50), rankOf(0.95), rankOf(0.99)};
  double* targets[3] = {&out.p50Us, &out.p95Us, &out.p99Us};
  std::size_t next = 0;
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < kBuckets && next < 3; ++b) {
    cumulative += counts[b];
    while (next < 3 && cumulative >= ranks[next]) {
      const double middle =
          static_cast<double>(bucketLow(b)) +
          static_cast<double>(bucketWidth(b) - 1) / 2.0;
      *targets[next] = std::min(middle, static_cast<double>(maxNs)) / 1000.0;
      ++next;
    }
  }
  return out;
}

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

void ServeMetrics::recordLatencyUs(double us) { latency_.record(us); }

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
  snap.cacheHits = cacheHits;
  snap.cacheMisses = cacheMisses;
  const std::uint64_t lookups = cacheHits + cacheMisses;
  snap.cacheHitRate =
      lookups == 0 ? 0.0
                   : static_cast<double>(cacheHits) /
                         static_cast<double>(lookups);
  const LatencyHistogram::Summary latency = latency_.summarize();
  snap.meanUs = latency.meanUs;
  snap.p50Us = latency.p50Us;
  snap.p95Us = latency.p95Us;
  snap.p99Us = latency.p99Us;
  snap.maxUs = latency.maxUs;
  return snap;
}

}  // namespace dagt::serve
