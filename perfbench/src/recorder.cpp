// Latency statistics, the traced run's schedule and the benchmark's own
// span recorder.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "obs/trace.hpp"

namespace perfbench {

double microsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

double residentMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

double rSquared(const std::vector<double>& predicted,
                const std::vector<double>& truth) {
  if (truth.empty() || predicted.size() != truth.size()) return 0.0;
  double mean = 0.0;
  for (const double t : truth) mean += t;
  mean /= static_cast<double>(truth.size());
  double residual = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    residual += (truth[i] - predicted[i]) * (truth[i] - predicted[i]);
    total += (truth[i] - mean) * (truth[i] - mean);
  }
  return total > 0.0 ? 1.0 - residual / total : 0.0;
}

// -- HostProbe -----------------------------------------------------------------

namespace {
constexpr std::size_t kProbeN = 64;
}

HostProbe::HostProbe()
    : a_(kProbeN * kProbeN), b_(kProbeN * kProbeN), c_(kProbeN * kProbeN) {
  for (std::size_t i = 0; i < a_.size(); ++i) {
    a_[i] = static_cast<float>(i % 7) * 0.25f;
    b_[i] = static_cast<float>(i % 5) * 0.5f;
  }
}

void HostProbe::sample(int times) {
  for (int t = 0; t < times; ++t) {
    const auto start = Clock::now();
    for (int rep = 0; rep < 2; ++rep) {
      for (std::size_t i = 0; i < kProbeN; ++i) {
        for (std::size_t j = 0; j < kProbeN; ++j) {
          // Each product feeds the next, so no pass can be skipped.
          float acc = c_[i * kProbeN + j] * 0.5f;
          for (std::size_t k = 0; k < kProbeN; ++k) {
            acc += a_[i * kProbeN + k] * b_[k * kProbeN + j];
          }
          c_[i * kProbeN + j] = acc * 1e-3f;
        }
      }
    }
    us_.push_back(microsBetween(start, Clock::now()));
  }
}

double HostProbe::scale() const {
  const double us = medianUs();
  return us > 0.0 ? std::sqrt(kReferenceUs / us) : 1.0;
}

// -- TraceSchedule -------------------------------------------------------------

namespace {
constexpr int kTraceSegments = 6;
}

TraceSchedule::TraceSchedule(bool traced, double seconds)
    : traced_(traced), seconds_(seconds) {}

void TraceSchedule::start() {
  start_ = Clock::now();
  applied_.store(-1);
}

bool TraceSchedule::tracedNow() {
  if (!traced_) return false;
  const int segment = std::min(
      kTraceSegments - 1,
      static_cast<int>(elapsed() / seconds_ * kTraceSegments));
  const bool on = segment % 2 == 1;
  if (applied_.load() < segment) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (applied_.load() < segment) {
      dagt::obs::TraceRegistry::global().setEnabled(on);
      applied_.store(segment);
    }
  }
  return on;
}

bool TraceSchedule::expired() const { return elapsed() >= seconds_; }

double TraceSchedule::elapsed() const {
  return std::chrono::duration<double>(Clock::now() - start_).count();
}

void TraceSchedule::stop() {
  if (traced_) dagt::obs::TraceRegistry::global().setEnabled(false);
}

// -- SpanRecorder --------------------------------------------------------------

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), epoch_(Clock::now()) {}

SpanRecorder::Scope::Scope(SpanRecorder& recorder, const char* name,
                           std::uint64_t request, bool active)
    : recorder_(recorder.enabled() && active ? &recorder : nullptr),
      name_(name),
      request_(request),
      start_(Clock::now()) {}

SpanRecorder::Scope::~Scope() {
  if (recorder_ != nullptr) {
    recorder_->record(name_, request_, start_, Clock::now());
  }
}

void SpanRecorder::record(const char* name, std::uint64_t request,
                          Clock::time_point start, Clock::time_point end) {
  static std::atomic<std::uint32_t> nextThread{0};
  thread_local const std::uint32_t thread = nextThread.fetch_add(1);
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, request, start, microsBetween(start, end), thread});
}

void SpanRecorder::writeChromeTrace(const std::string& path) const {
  dagt::JsonValue events = dagt::JsonValue::array();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Span& span : spans_) {
      events.push(dagt::JsonValue::object()
                      .set("name", span.name)
                      .set("cat", "perfbench")
                      .set("ph", "X")
                      .set("ts", microsBetween(epoch_, span.start))
                      .set("dur", span.durUs)
                      .set("pid", 1)
                      .set("tid", static_cast<std::int64_t>(span.thread))
                      .set("args", dagt::JsonValue::object().set(
                                       "request", span.request)));
    }
  }
  dagt::writeJsonFile(
      dagt::JsonValue::object().set("traceEvents", std::move(events)), path);
}

}  // namespace perfbench
