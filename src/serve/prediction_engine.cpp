#include "serve/prediction_engine.hpp"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "common/check.hpp"
#include "netlist/io.hpp"
#include "obs/trace.hpp"
#include "tensor/storage.hpp"
#include "tensor/tensor.hpp"

namespace dagt::serve {

namespace {

double microsSince(const std::chrono::steady_clock::time_point& start,
                   const std::chrono::steady_clock::time_point& end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

/// Deterministic seed for the Bayesian head's Monte-Carlo draws on the
/// coalesced path: a function of the design and the exact batch
/// composition, so identical batches reproduce identical predictions.
std::uint64_t batchSeed(const std::string& designName,
                        const std::vector<std::int64_t>& endpoints) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : designName) {
    h = (h ^ static_cast<std::uint64_t>(c)) * 0x100000001b3ULL;
  }
  for (const std::int64_t e : endpoints) {
    h = (h ^ static_cast<std::uint64_t>(e + 1)) * 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

PredictionEngine::PredictionEngine(EngineConfig config)
    : config_(config) {
  DAGT_CHECK(config_.maxBatch >= 1);
  DAGT_CHECK(config_.maxWaitUs >= 0);
  if (config_.batching) {
    const std::int32_t workers = std::max(1, config_.workerThreads);
    workers_.reserve(static_cast<std::size_t>(workers));
    for (std::int32_t i = 0; i < workers; ++i) {
      workers_.emplace_back([this] { workerLoop(); });
    }
  }
}

PredictionEngine::~PredictionEngine() {
  {
    std::lock_guard<std::mutex> lock(queueMutex_);
    stopping_ = true;
  }
  queueCv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void PredictionEngine::addBundle(ModelBundle bundle) {
  const int key = static_cast<int>(bundle.manifest().targetNode);
  // Build the entry (FeatureService construction is expensive) before
  // taking the registry lock; erase + emplace then swap atomically under
  // it. Replacing a node's bundle must still not race in-flight queries on
  // that node — their DesignRefs point into the erased NodeEntry.
  NodeEntry entry{std::move(bundle), nullptr};
  entry.features = std::make_unique<FeatureService>(entry.bundle.manifest());
  std::lock_guard<std::mutex> lock(designsMutex_);
  const auto existing = nodes_.find(key);
  if (existing != nodes_.end()) {
    // Drop designs routed to the bundle being replaced.
    for (auto it = designs_.begin(); it != designs_.end();) {
      if (it->second.node == &existing->second) {
        it = designs_.erase(it);
      } else {
        ++it;
      }
    }
    nodes_.erase(existing);
  }
  nodes_.emplace(key, std::move(entry));
}

void PredictionEngine::addBundleFromDir(const std::string& dir) {
  addBundle(ModelBundle::load(dir));
}

std::vector<netlist::TechNode> PredictionEngine::nodes() const {
  std::lock_guard<std::mutex> lock(designsMutex_);
  std::vector<netlist::TechNode> out;
  for (const auto& [key, entry] : nodes_) {
    out.push_back(static_cast<netlist::TechNode>(key));
  }
  std::sort(out.begin(), out.end());
  return out;
}

const BundleManifest& PredictionEngine::manifest(
    netlist::TechNode node) const {
  std::lock_guard<std::mutex> lock(designsMutex_);
  const auto it = nodes_.find(static_cast<int>(node));
  DAGT_CHECK_MSG(it != nodes_.end(), "no bundle registered for "
                                         << netlist::techNodeName(node));
  return it->second.bundle.manifest();
}

std::int64_t PredictionEngine::loadDesign(const std::string& key,
                                          const std::string& netlistPath,
                                          const std::string& libraryPath,
                                          const std::string& placementPath) {
  const auto fileLib = netlist::io::readLibraryFile(libraryPath);
  const int nodeKey = static_cast<int>(fileLib.node());
  DesignRef ref;
  {
    std::lock_guard<std::mutex> lock(designsMutex_);
    const auto it = nodes_.find(nodeKey);
    DAGT_CHECK_MSG(it != nodes_.end(),
                   "no bundle registered for "
                       << netlist::techNodeName(fileLib.node())
                       << " (the design's node)");
    ref.node = &it->second;
  }
  // Feature extraction runs unlocked (FeatureService is itself
  // thread-safe); the NodeEntry pointer is stable across map inserts.
  ref.design = ref.node->features->fromFiles(key, netlistPath, libraryPath,
                                             placementPath);
  ref.graphMemo = newGraphMemo();
  {
    std::lock_guard<std::mutex> lock(designsMutex_);
    attachRetrievalLocked(key, ref);
    designs_[key] = ref;
  }
  warmUp(ref);
  return ref.design->numEndpoints();
}

std::int64_t PredictionEngine::loadDesign(
    const std::string& key, const netlist::Netlist& netlist,
    netlist::TechNode node, const place::PlacementResult& placement,
    const std::string& revision) {
  DesignRef ref;
  {
    std::lock_guard<std::mutex> lock(designsMutex_);
    const auto it = nodes_.find(static_cast<int>(node));
    DAGT_CHECK_MSG(it != nodes_.end(), "no bundle registered for "
                                           << netlist::techNodeName(node));
    ref.node = &it->second;
  }
  ref.design =
      ref.node->features->fromNetlist(key, revision, netlist, node, placement);
  ref.graphMemo = newGraphMemo();
  {
    std::lock_guard<std::mutex> lock(designsMutex_);
    attachRetrievalLocked(key, ref);
    designs_[key] = ref;
  }
  warmUp(ref);
  return ref.design->numEndpoints();
}

std::shared_ptr<core::GraphMemo> PredictionEngine::newGraphMemo(
    std::shared_ptr<const core::GraphMemo> base) {
  return std::make_shared<core::GraphMemo>(&graphMemoCounters_,
                                           std::move(base));
}

core::DesignBatch PredictionEngine::DesignRef::batch(
    std::vector<std::int64_t> endpoints) const {
  core::DesignBatch out =
      design->dataset->batchFor(design->data, std::move(endpoints));
  out.graphMemo = graphMemo.get();
  return out;
}

void PredictionEngine::warmUp(const DesignRef& ref) {
  if (ref.design->numEndpoints() <= 0) return;
  DAGT_TRACE_SCOPE("serve/warm_fusion");
  tensor::NoGradGuard guard;
  tensor::Workspace workspace;
  const core::DesignBatch batch = ref.batch({0});
  core::TimingModel& model = ref.node->bundle.model();
  if (auto* dac23 = dynamic_cast<core::Dac23Model*>(&model)) {
    (void)dac23->forwardBatch(batch);
  } else if (auto* ours = dynamic_cast<core::OursModel*>(&model)) {
    Rng rng(batchSeed(ref.design->data.name, {0}));
    (void)ours->forward(batch, config_.mcSamples, rng);
  }
}

FeatureService::ConeUpdateResult PredictionEngine::applyConeUpdate(
    const std::string& key, const std::string& revision,
    const FeatureService::ConeUpdate& update) {
  DesignRef ref = designRef(key);
  auto result = ref.node->features->applyConeUpdate(key, revision, update);
  // No eager fill: the next query fills the memo from the key's current
  // one, so sync stays a pure feature refresh and the predecessor is
  // released by that fill, not here.
  std::shared_ptr<core::GraphMemo> memo =
      newGraphMemo(core::GraphMemo::successorBase(ref.graphMemo));
  std::lock_guard<std::mutex> lock(designsMutex_);
  DesignRef& entry = designs_[key];
  entry.design = result.design;
  entry.graphMemo = std::move(memo);
  return result;
}

void PredictionEngine::installSnapshot(
    const std::string& key, const std::string& revision,
    std::shared_ptr<const ServableDesign> design) {
  DesignRef ref = designRef(key);
  ref.node->features->installSnapshot(key, revision, design);
  std::shared_ptr<core::GraphMemo> memo =
      newGraphMemo(core::GraphMemo::successorBase(ref.graphMemo));
  std::lock_guard<std::mutex> lock(designsMutex_);
  DesignRef& entry = designs_[key];
  entry.design = std::move(design);
  entry.graphMemo = std::move(memo);
}

void PredictionEngine::attachRetrievalLocked(const std::string& key,
                                             DesignRef& ref) {
  if (!config_.retrieval.enabled) return;
  // Only "ours" bundles with the Bayesian head are cacheable: the cache
  // stores posteriors keyed by the disentangled embedding, and the sigma
  // admission gate needs a predictive spread to gate on.
  auto* ours = dynamic_cast<core::OursModel*>(&ref.node->bundle.model());
  if (ours == nullptr || !ours->usesBayesianHead()) return;
  const auto it = designs_.find(key);
  if (it != designs_.end() && it->second.retrieval != nullptr &&
      it->second.node == ref.node) {
    // Re-loading a design (a new revision) keeps its cache: the embedding
    // space belongs to the model, so posteriors persist across revisions
    // — that cross-revision reuse is the whole point of the layer.
    ref.retrieval = it->second.retrieval;
    return;
  }
  ref.retrieval = std::make_shared<retrieval::PredictionCache>(
      ref.node->bundle.manifest().model.pathFeatureDim(), config_.retrieval);
}

std::shared_ptr<const ServableDesign> PredictionEngine::currentSnapshot(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(designsMutex_);
  const auto it = designs_.find(key);
  return it == designs_.end() ? nullptr : it->second.design;
}

std::shared_ptr<retrieval::PredictionCache> PredictionEngine::retrievalCache(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(designsMutex_);
  const auto it = designs_.find(key);
  return it == designs_.end() ? nullptr : it->second.retrieval;
}

PredictionEngine::DesignRef PredictionEngine::designRef(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(designsMutex_);
  const auto it = designs_.find(key);
  DAGT_CHECK_MSG(it != designs_.end(),
                 "design '" << key << "' has not been loaded");
  return it->second;
}

float PredictionEngine::predictEndpoint(const std::string& key,
                                        std::int64_t endpoint) {
  return predictEndpoints(key, {endpoint}).front();
}

std::vector<float> PredictionEngine::predictEndpoints(
    const std::string& key, const std::vector<std::int64_t>& endpoints) {
  DAGT_TRACE_SCOPE("serve/request");
  DAGT_CHECK_MSG(!endpoints.empty(), "empty endpoint query");
  RequestGroup group;
  group.ref = designRef(key);
  const std::int64_t n = group.ref.design->numEndpoints();
  for (const std::int64_t e : endpoints) {
    DAGT_CHECK_MSG(e >= 0 && e < n, "endpoint " << e << " out of range for '"
                                                << key << "' (" << n << ")");
  }
  group.endpoints = endpoints;
  group.enqueued = std::chrono::steady_clock::now();
  auto future = group.reply.get_future();
  if (!config_.batching) {
    // Caller-thread forward: scope a workspace around it so this request's
    // temporaries land back in the shared pool for the next caller.
    tensor::Workspace workspace;
    std::vector<RequestGroup> solo;
    solo.push_back(std::move(group));
    serveBatch(std::move(solo));
    return future.get();
  }
  {
    std::lock_guard<std::mutex> lock(queueMutex_);
    queue_.push_back(std::move(group));
  }
  queueCv_.notify_all();
  return future.get();
}

std::vector<float> PredictionEngine::predictDesign(const std::string& key) {
  DAGT_TRACE_SCOPE("serve/full_design");
  const DesignRef ref = designRef(key);
  tensor::Workspace workspace;
  auto predictions = ref.node->bundle.model().predictDesign(
      *ref.design->dataset, ref.design->data, ref.graphMemo.get());
  metrics_.recordFullDesign();
  return predictions;
}

void PredictionEngine::serveBatch(std::vector<RequestGroup> groups) {
  if (groups.empty()) return;
  DAGT_TRACE_SCOPE("serve/batch");
  try {
    tensor::NoGradGuard guard;
    const DesignRef& ref = groups.front().ref;
    const ServableDesign& design = *ref.design;

    std::vector<std::int64_t> combined;
    for (const auto& group : groups) {
      // Coalescing contract: the batcher only merges groups that share the
      // lead's design, so every group agrees on the feature layout.
      DAGT_DCHECK_MSG(group.ref.design.get() == &design,
                      "coalesced batch mixes designs");
      combined.insert(combined.end(), group.endpoints.begin(),
                      group.endpoints.end());
    }
    if (ref.retrieval != nullptr) {
      // Learned prediction cache: embed, probe, head-forward only the
      // misses. Attached only for Bayesian-head "ours" bundles, so the
      // cast cannot fail. With the cache disabled this branch vanishes and
      // the path below is bitwise identical to a cache-less build.
      auto* ours = dynamic_cast<core::OursModel*>(&ref.node->bundle.model());
      DAGT_DCHECK(ours != nullptr);
      serveBatchRetrieval(groups, *ours, combined);
      return;
    }
    const core::DesignBatch batch = [&] {
      DAGT_TRACE_SCOPE("serve/batch_assembly");
      return ref.batch(combined);
    }();
    // Batch-assembly contract: one masked image of the manifest's trained
    // resolution per coalesced endpoint (feature-width agreement).
    const std::int64_t res = ref.node->bundle.manifest().model.imageResolution;
    DAGT_DCHECK_SHAPE(
        batch.images.shape(),
        tensor::Shape({static_cast<std::int64_t>(combined.size()), 3, res,
                       res}));

    core::TimingModel& model = ref.node->bundle.model();
    tensor::Tensor predictionNs;
    {
      DAGT_TRACE_SCOPE("serve/forward");
      if (auto* dac23 = dynamic_cast<core::Dac23Model*>(&model)) {
        predictionNs = dac23->forwardBatch(batch);
      } else if (auto* ours = dynamic_cast<core::OursModel*>(&model)) {
        Rng rng(batchSeed(design.data.name, combined));
        predictionNs =
            ours->forward(batch, config_.mcSamples, rng).prediction;
      } else {
        DAGT_CHECK_MSG(false, "unservable TimingModel subclass");
      }
    }

    DAGT_DCHECK_MSG(predictionNs.numel() ==
                        static_cast<std::int64_t>(combined.size()),
                    "model returned " << predictionNs.numel()
                                      << " predictions for "
                                      << combined.size() << " endpoints");
    DAGT_TRACE_SCOPE("serve/readout");
    const float* values = predictionNs.data();
    const auto now = std::chrono::steady_clock::now();
    // Batch before requests: snapshots must never observe requests from a
    // batch whose batch counter is still 0 (recordRequests publishes with
    // release ordering, so this increment is visible with it).
    metrics_.recordBatch(combined.size());
    std::size_t offset = 0;
    for (auto& group : groups) {
      std::vector<float> reply(group.endpoints.size());
      for (std::size_t i = 0; i < reply.size(); ++i) {
        reply[i] = values[offset + i] / core::kLabelScale;  // ns -> ps
      }
      offset += reply.size();
      metrics_.recordRequests(group.endpoints.size());
      metrics_.recordLatencyUs(microsSince(group.enqueued, now));
      group.reply.set_value(std::move(reply));
    }
  } catch (...) {
    for (auto& group : groups) {
      try {
        group.reply.set_exception(std::current_exception());
      } catch (const std::future_error&) {
        // Promise already satisfied — the failure happened after its reply.
      }
    }
  }
}

void PredictionEngine::serveBatchRetrieval(
    std::vector<RequestGroup>& groups, core::OursModel& ours,
    const std::vector<std::int64_t>& combined) {
  const DesignRef& ref = groups.front().ref;
  const ServableDesign& design = *ref.design;
  retrieval::PredictionCache& cache = *ref.retrieval;

  // The embedding memo is keyed by the snapshot: a revision invalidates
  // every embedding but none of the cached posteriors.
  const std::shared_ptr<retrieval::PredictionCache::Era> era =
      cache.eraFor(ref.design.get(), design.numEndpoints());

  // Unique endpoints in first-occurrence order (a duplicate endpoint in a
  // coalesced batch embeds once and every copy gets the same reply).
  std::vector<std::int64_t> uniq;
  uniq.reserve(combined.size());
  std::unordered_set<std::int64_t> seen;
  for (const std::int64_t e : combined) {
    if (seen.insert(e).second) uniq.push_back(e);
  }

  std::vector<std::int64_t> needEmbed;
  std::uint64_t memoHits = 0;
  for (const std::int64_t e : uniq) {
    if (era->lookup(e) != nullptr) {
      ++memoHits;
    } else {
      needEmbed.push_back(e);
    }
  }
  cache.recordEmbedMemoHits(memoHits);

  const std::int64_t m = cache.embeddingDim();
  if (!needEmbed.empty()) {
    DAGT_TRACE_SCOPE("retrieval/embed");
    const tensor::Tensor joint = ours.embed(ref.batch(needEmbed));
    DAGT_DCHECK(joint.dim(1) == m);
    const float* rows = joint.data();
    for (std::size_t i = 0; i < needEmbed.size(); ++i) {
      era->memoize(needEmbed[i], rows + static_cast<std::int64_t>(i) * m);
    }
  }

  // Probe every endpoint; hits re-apply the bypass against the CURRENT
  // snapshot's pre-route arrival (same two roundings as the tensor-side
  // bypass: one mul, one add), misses queue for the head forward.
  const float w0 = ours.bypassW0();
  std::unordered_map<std::int64_t, float> replyPs;
  std::vector<std::int64_t> misses;
  {
    DAGT_TRACE_SCOPE("retrieval/probe");
    for (const std::int64_t e : uniq) {
      const float* embedding = era->lookup(e);
      DAGT_DCHECK(embedding != nullptr);
      const auto probe = cache.probe(embedding);
      if (probe.outcome ==
          retrieval::PredictionCache::ProbeOutcome::kHit) {
        const float preNs =
            design.data.preRouteArrivals[static_cast<std::size_t>(e)] *
            core::kLabelScale;
        const float predictionNs = probe.posterior.rawMeanNs + preNs * w0;
        replyPs[e] = predictionNs / core::kLabelScale;
      } else {
        misses.push_back(e);
      }
    }
  }

  if (!misses.empty()) {
    DAGT_TRACE_SCOPE("retrieval/head");
    const std::int64_t numMisses =
        static_cast<std::int64_t>(misses.size());
    tensor::Tensor joint = tensor::Tensor::zeros({numMisses, m});
    tensor::Tensor preRouteNs = tensor::Tensor::zeros({numMisses});
    for (std::int64_t i = 0; i < numMisses; ++i) {
      const std::int64_t e = misses[static_cast<std::size_t>(i)];
      std::memcpy(joint.data() + i * m, era->lookup(e),
                  static_cast<std::size_t>(m) * sizeof(float));
      // Same ps -> ns scaling as makeBatch, so a first-touch solo miss
      // reproduces the cache-off forward bit-for-bit (same batch, same
      // seed, same rounding order).
      preRouteNs.data()[i] =
          design.data.preRouteArrivals[static_cast<std::size_t>(e)] *
          core::kLabelScale;
    }
    Rng rng(batchSeed(design.data.name, misses));
    const core::OursModel::HeadPrediction head =
        ours.headPredict(joint, preRouteNs, config_.mcSamples, rng);
    {
      DAGT_TRACE_SCOPE("retrieval/insert");
      for (std::int64_t i = 0; i < numMisses; ++i) {
        const std::int64_t e = misses[static_cast<std::size_t>(i)];
        cache.insert(era->lookup(e),
                     {head.rawMeanNs[static_cast<std::size_t>(i)],
                      head.sigmaPs[static_cast<std::size_t>(i)]});
        replyPs[e] = head.predictionNs[static_cast<std::size_t>(i)] /
                     core::kLabelScale;  // ns -> ps
      }
    }
  }

  DAGT_TRACE_SCOPE("serve/readout");
  const std::unordered_set<std::int64_t> missSet(misses.begin(),
                                                 misses.end());
  const auto now = std::chrono::steady_clock::now();
  metrics_.recordBatch(combined.size());
  for (auto& group : groups) {
    std::vector<float> reply(group.endpoints.size());
    bool allHit = true;
    for (std::size_t i = 0; i < reply.size(); ++i) {
      const std::int64_t e = group.endpoints[i];
      reply[i] = replyPs.at(e);
      allHit = allHit && missSet.count(e) == 0;
    }
    metrics_.recordRequests(group.endpoints.size());
    const double us = microsSince(group.enqueued, now);
    metrics_.recordLatencyUs(us);
    if (allHit) {
      cache.recordHitPathUs(us);
    } else {
      cache.recordMissPathUs(us);
    }
    group.reply.set_value(std::move(reply));
  }
}

void PredictionEngine::workerLoop() {
  // One workspace per worker thread, alive for the thread's lifetime:
  // every forward's temporaries are recycled through the thread-local
  // cache (no lock, no heap), so steady-state serving performs near-zero
  // heap allocations per batch.
  tensor::Workspace workspace;
  std::unique_lock<std::mutex> lock(queueMutex_);
  while (true) {
    queueCv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stopping_) return;
      continue;
    }

    // The oldest request leads; hold its batch open until it is full or
    // its wait budget is spent, so followers on the same design coalesce.
    const ServableDesign* lead = queue_.front().ref.design.get();
    const auto deadline =
        queue_.front().enqueued + std::chrono::microseconds(config_.maxWaitUs);
    const auto pendingForLead = [&] {
      std::int64_t total = 0;
      for (const auto& group : queue_) {
        if (group.ref.design.get() == lead) {
          total += static_cast<std::int64_t>(group.endpoints.size());
        }
      }
      return total;
    };
    {
      // The deliberate hold-open for followers on the lead's design (NOT
      // idle time waiting for any work at all — that sits outside spans).
      DAGT_TRACE_SCOPE("serve/coalesce_wait");
      while (!stopping_ && pendingForLead() < config_.maxBatch &&
             std::chrono::steady_clock::now() < deadline) {
        queueCv_.wait_until(lock, deadline);
      }
    }

    std::vector<RequestGroup> taken;
    std::int64_t total = 0;
    for (auto it = queue_.begin();
         it != queue_.end() && total < config_.maxBatch;) {
      if (it->ref.design.get() == lead) {
        total += static_cast<std::int64_t>(it->endpoints.size());
        taken.push_back(std::move(*it));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
    if (taken.empty()) continue;  // another worker got here first

    lock.unlock();
    serveBatch(std::move(taken));
    lock.lock();
  }
}

MetricsSnapshot PredictionEngine::metrics() const {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t coneUpdates = 0;
  std::uint64_t coneStructural = 0;
  std::uint64_t coneReused = 0;
  std::uint64_t coneEvicted = 0;
  std::uint64_t memoBytes = 0;
  std::vector<std::shared_ptr<retrieval::PredictionCache>> caches;
  {
    std::lock_guard<std::mutex> lock(designsMutex_);
    for (const auto& [key, entry] : nodes_) {
      hits += entry.features->cacheHits();
      misses += entry.features->cacheMisses();
      coneUpdates += entry.features->coneUpdates();
      coneStructural += entry.features->coneStructuralRebuilds();
      coneReused += entry.features->coneEndpointsReused();
      coneEvicted += entry.features->coneEndpointsEvicted();
    }
    for (const auto& [key, ref] : designs_) {
      if (ref.graphMemo != nullptr) memoBytes += ref.graphMemo->bytes();
      if (ref.retrieval != nullptr) caches.push_back(ref.retrieval);
    }
  }
  // Buffer-pool counters are process-wide (the pool is shared by every
  // engine and the trainer), which is the view an operator wants anyway.
  MetricsSnapshot snap =
      metrics_.snapshot(hits, misses, tensor::BufferPool::global().stats());
  snap.coneUpdates = coneUpdates;
  snap.coneStructuralRebuilds = coneStructural;
  snap.coneEndpointsReused = coneReused;
  snap.coneEndpointsEvicted = coneEvicted;
  snap.graphMemoFills =
      graphMemoCounters_.fills.load(std::memory_order_relaxed);
  snap.graphMemoRowsComputed =
      graphMemoCounters_.rowsComputed.load(std::memory_order_relaxed);
  snap.graphMemoBytes = memoBytes;
  if (!caches.empty()) {
    snap.retrievalEnabled = true;
    std::uint64_t hitBatches = 0;
    std::uint64_t missBatches = 0;
    double hitUsTotal = 0.0;
    double missUsTotal = 0.0;
    for (const auto& cache : caches) {
      const retrieval::PredictionCache::Counters c = cache->counters();
      snap.retrievalHits += c.hits;
      snap.retrievalMisses += c.misses;
      snap.retrievalRejectByDist += c.rejectByDist;
      snap.retrievalRejectBySigma += c.rejectBySigma;
      snap.retrievalInserts += c.inserts;
      snap.retrievalEmbedMemoHits += c.embedMemoHits;
      snap.retrievalIndexSize += c.indexSize;
      hitBatches += c.hitPathBatches;
      missBatches += c.missPathBatches;
      hitUsTotal += c.hitPathUsTotal;
      missUsTotal += c.missPathUsTotal;
    }
    const std::uint64_t probes = snap.retrievalHits + snap.retrievalMisses;
    snap.retrievalHitRate =
        probes == 0 ? 0.0
                    : static_cast<double>(snap.retrievalHits) /
                          static_cast<double>(probes);
    snap.retrievalHitMeanUs =
        hitBatches == 0 ? 0.0
                        : hitUsTotal / static_cast<double>(hitBatches);
    snap.retrievalMissMeanUs =
        missBatches == 0 ? 0.0
                         : missUsTotal / static_cast<double>(missBatches);
  }
  if (obs::tracingEnabled()) {
    // Per-request span summary (process-wide, like the pool counters):
    // only populated while `dagt trace` / setEnabled has tracing on.
    snap.traceSpans = obs::TraceRegistry::global().aggregate("serve/");
    const std::vector<obs::SpanStats> retrievalSpans =
        obs::TraceRegistry::global().aggregate("retrieval/");
    snap.traceSpans.insert(snap.traceSpans.end(), retrievalSpans.begin(),
                           retrievalSpans.end());
  }
  return snap;
}

}  // namespace dagt::serve
