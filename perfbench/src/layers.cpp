// Per-layer split of a traced run, from the wrap-proof span aggregates of
// obs::TraceRegistry plus process-wide counters. Nothing here adds tracing
// to the program: it only reads what the existing span sites collect.

#include <utility>

#include "bench.hpp"
#include "obs/trace.hpp"
#include "tensor/expr.hpp"
#include "tensor/storage.hpp"

namespace perfbench {
namespace {

/// Parent span -> the named child spans its self time excludes. Kernel
/// spans (kernel/*, expr/compile) are left inside their callers: the tensor
/// layer is reported across layers as tensor.gemm_us instead.
const std::vector<std::pair<std::string, std::vector<std::string>>>&
spanTree() {
  static const std::vector<std::pair<std::string, std::vector<std::string>>>
      tree = {
          {"serve/batch",
           {"serve/batch_assembly", "serve/forward", "serve/readout"}},
          {"serve/forward", {"model/forward"}},
          {"serve/full_design", {"model/forward"}},
          {"serve/batch_assembly", {}},
          {"serve/readout", {}},
          {"serve/coalesce_wait", {}},
          {"serve/warm_fusion", {"model/forward"}},
          {"serve/feature_build", {}},
          {"serve/cone_update",
           {"serve/cone_features", "serve/cone_paths", "serve/cone_images"}},
          {"serve/cone_features", {"serve/cone_maps", "serve/cone_pinfeats"}},
          {"model/forward",
           {"model/extract", "model/disentangle", "model/head"}},
          {"model/extract", {"model/gnn", "model/cnn"}},
          {"model/gnn", {}},
          {"model/cnn", {}},
          {"model/disentangle", {}},
          {"model/head", {"bayes/predict"}},
          {"bayes/predict", {"bayes/mc_sample"}},
          {"bayes/mc_sample", {}},
          {"whatif/edit", {"sta/propagate"}},
          {"whatif/sync", {"serve/cone_update", "serve/feature_build"}},
          {"whatif/repredict", {"serve/request"}},
          {"sta/propagate", {}},
          {"train/step",
           {"model/forward", "train/loss_likelihood", "train/loss_kl",
            "train/loss_contrastive", "train/loss_cmd", "train/backward",
            "train/optimizer"}},
          {"train/sample_batch", {}},
          {"train/backward", {}},
          {"train/optimizer", {}},
      };
  return tree;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

SpanTotals SpanTotals::read() {
  SpanTotals totals;
  auto& registry = dagt::obs::TraceRegistry::global();
  for (const auto& s : registry.aggregate()) {
    totals.byName[s.name] = {s.count, s.totalUs()};
  }
  totals.dropped = registry.collect().dropped;
  return totals;
}

double SpanTotals::us(const std::string& name) const {
  const auto it = byName.find(name);
  return it == byName.end() ? 0.0 : it->second.second;
}

std::uint64_t SpanTotals::count(const std::string& name) const {
  const auto it = byName.find(name);
  return it == byName.end() ? 0 : it->second.first;
}

CounterMark CounterMark::read() {
  CounterMark mark;
  const auto fusion = dagt::tensor::expr::stats();
  mark.programsCompiled = fusion.programsCompiled;
  mark.fusionHits = fusion.cacheHits;
  mark.fusionMisses = fusion.cacheMisses;
  mark.heapAllocs = dagt::tensor::BufferPool::global().stats().heapAllocs;
  return mark;
}

void addLayerSplit(const LayerInputs& in, Result& result) {
  const SpanTotals t = SpanTotals::read();
  const double ops = static_cast<double>(in.tracedOps);
  const auto perOp = [&](double us) { return ratio(us, ops); };
  const auto pct = [&](double us) { return 100.0 * ratio(us, in.tracedOpUs); };
  auto& out = result.perLayer;

  // Layers every workload runs: µs per operation.
  out.push_back({"model.gnn_us", perOp(t.us("model/gnn")), "us"});
  out.push_back({"model.cnn_us", perOp(t.us("model/cnn")), "us"});
  out.push_back(
      {"model.disentangle_us", perOp(t.us("model/disentangle")), "us"});
  out.push_back({"model.head_us",
                 perOp(t.us("model/head") - t.us("bayes/mc_sample")), "us"});
  out.push_back({"tensor.gemm_us",
                 perOp(t.us("kernel/gemm") + t.us("kernel/fused_gemm")),
                 "us"});
  out.push_back({"features.assembly_us",
                 perOp(t.us("serve/batch_assembly") +
                       t.us("train/sample_batch")),
                 "us"});

  // Work counts and ratios (0 where the workload does not supply them).
  out.push_back({"model.gnn_share",
                 100.0 * ratio(t.us("model/gnn"), t.us("model/forward")),
                 "%"});
  // The per-sample loop span exists only on the unfused (autograd) path;
  // served forwards replay one fused head program, where this reads 0.
  out.push_back({"model.noise_pct",
                 100.0 * ratio(t.us("bayes/mc_sample"), t.us("model/head")),
                 "%"});
  out.push_back({"model.gnn_calls_per_op",
                 ratio(static_cast<double>(t.count("model/gnn")), ops),
                 "count"});
  out.push_back({"serve.batch_size", in.serveBatchSize, "count"});
  out.push_back(
      {"serve.forwards_per_request", in.serveForwardsPerRequest, "count"});
  out.push_back({"features.cache_hit_rate", in.featureCacheHitRate, "%"});
  out.push_back({"features.images_rebuilt", in.imagesRebuilt, "count"});
  out.push_back({"features.dirty_endpoints", in.dirtyEndpoints, "count"});
  out.push_back({"sta.pins_visited", in.pinsVisited, "count"});
  const double allOps = static_cast<double>(in.allOps);
  out.push_back({"tensor.programs_compiled",
                 static_cast<double>(in.after.programsCompiled -
                                     in.before.programsCompiled),
                 "count"});
  const double fusionHits =
      static_cast<double>(in.after.fusionHits - in.before.fusionHits);
  const double fusionMisses =
      static_cast<double>(in.after.fusionMisses - in.before.fusionMisses);
  out.push_back({"tensor.fusion_hit_rate",
                 100.0 * ratio(fusionHits, fusionHits + fusionMisses), "%"});
  out.push_back(
      {"tensor.heap_allocs_per_op",
       ratio(static_cast<double>(in.after.heapAllocs - in.before.heapAllocs),
             allOps),
       "count"});
  out.push_back(
      {"trace.dropped_events", static_cast<double>(t.dropped), "count"});
  out.push_back({"trace.overhead_pct",
                 100.0 * (ratio(in.tracedP50Us, in.untracedP50Us) - 1.0),
                 "%"});

  // Stages only some workloads run, as shares of the operations' summed
  // latency (set-up time for the feature build), so a workload that skips
  // the stage reads 0% rather than a 0 µs time.
  out.push_back(
      {"serve.coalesce_wait_pct", pct(t.us("serve/coalesce_wait")), "%"});
  out.push_back({"serve.readout_pct", pct(t.us("serve/readout")), "%"});
  out.push_back({"features.build_pct",
                 100.0 * ratio(in.buildUs, in.setupUs), "%"});
  out.push_back(
      {"features.cone_update_pct", pct(t.us("serve/cone_update")), "%"});
  out.push_back({"sta.propagate_pct", pct(t.us("sta/propagate")), "%"});
  out.push_back({"whatif.edit_pct",
                 100.0 * ratio(in.whatifEditUs, in.allOpUs), "%"});
  out.push_back({"whatif.sync_pct",
                 100.0 * ratio(in.whatifSyncUs, in.allOpUs), "%"});
  out.push_back({"whatif.query_pct",
                 100.0 * ratio(in.whatifQueryUs, in.allOpUs), "%"});
  const double lossUs = t.us("train/loss_likelihood") + t.us("train/loss_kl") +
                        t.us("train/loss_contrastive") + t.us("train/loss_cmd");
  const auto trainPct = [&](double us) { return in.training ? pct(us) : 0.0; };
  out.push_back(
      {"train.sample_pct", trainPct(t.us("train/sample_batch")), "%"});
  out.push_back({"train.forward_pct", trainPct(t.us("model/forward")), "%"});
  out.push_back(
      {"train.backward_pct", trainPct(t.us("train/backward")), "%"});
  out.push_back(
      {"train.optimizer_pct", trainPct(t.us("train/optimizer")), "%"});
  out.push_back({"train.loss_pct", trainPct(lossUs), "%"});

  // The per-layer times in their natural units, where this
  // workload runs the layer, and every span's self time per operation.
  auto& detail = result.detail;
  if (t.count("serve/coalesce_wait") > 0) {
    detail.push_back({"serve.coalesce_wait_us",
                      ratio(t.us("serve/coalesce_wait"),
                            static_cast<double>(t.count("serve/coalesce_wait"))),
                      "us/batch"});
    detail.push_back({"serve.readout_us", perOp(t.us("serve/readout")), "us"});
  }
  if (t.count("bayes/mc_sample") > 0) {
    detail.push_back(
        {"model.noise_us", perOp(t.us("bayes/mc_sample")), "us"});
  }
  if (t.count("serve/cone_update") > 0) {
    detail.push_back(
        {"features.cone_update_us", perOp(t.us("serve/cone_update")), "us"});
  }
  if (t.count("sta/propagate") > 0) {
    detail.push_back(
        {"sta.propagate_us", perOp(t.us("sta/propagate")), "us"});
  }
  if (in.training) {
    detail.push_back(
        {"train.sample_us", perOp(t.us("train/sample_batch")), "us"});
    detail.push_back({"train.forward_us", perOp(t.us("model/forward")), "us"});
    detail.push_back(
        {"train.backward_us", perOp(t.us("train/backward")), "us"});
    detail.push_back(
        {"train.optimizer_us", perOp(t.us("train/optimizer")), "us"});
    detail.push_back({"train.loss_us", perOp(lossUs), "us"});
  }
  detail.push_back({"trace.traced_ops", ops, "count"});
  detail.push_back({"trace.traced_p50_us", in.tracedP50Us, "us"});
  detail.push_back({"trace.untraced_p50_us", in.untracedP50Us, "us"});
  for (const auto& [parent, children] : spanTree()) {
    if (t.count(parent) == 0) continue;
    double self = t.us(parent);
    for (const auto& child : children) self -= t.us(child);
    detail.push_back({"self." + parent + "_us", perOp(self), "us"});
  }
}

}  // namespace perfbench
