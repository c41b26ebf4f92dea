#include "serve/prediction_engine.hpp"

#include <algorithm>

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
  tensor::Workspace workspace;
  (void)ref.node->bundle.model().predictBatch(ref.batch({0}));
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

std::shared_ptr<const ServableDesign> PredictionEngine::currentSnapshot(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(designsMutex_);
  const auto it = designs_.find(key);
  return it == designs_.end() ? nullptr : it->second.design;
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

    const core::TimingModel::Prediction prediction = [&] {
      DAGT_TRACE_SCOPE("serve/forward");
      return ref.node->bundle.model().predictBatch(batch);
    }();

    DAGT_DCHECK_MSG(prediction.mean.size() == combined.size(),
                    "model returned " << prediction.mean.size()
                                      << " predictions for "
                                      << combined.size() << " endpoints");
    DAGT_TRACE_SCOPE("serve/readout");
    const auto now = std::chrono::steady_clock::now();
    // Batch before requests: snapshots must never observe requests from a
    // batch whose batch counter is still 0 (recordRequests publishes with
    // release ordering, so this increment is visible with it).
    metrics_.recordBatch(combined.size());
    auto next = prediction.mean.begin();
    for (auto& group : groups) {
      std::vector<float> reply(next, next + static_cast<std::ptrdiff_t>(
                                                group.endpoints.size()));
      next += static_cast<std::ptrdiff_t>(reply.size());
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
  if (obs::tracingEnabled()) {
    // Per-request span summary (process-wide, like the pool counters):
    // only populated while `dagt trace` / setEnabled has tracing on.
    snap.traceSpans = obs::TraceRegistry::global().aggregate("serve/");
  }
  return snap;
}

}  // namespace dagt::serve
