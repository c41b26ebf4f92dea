// perfbench — the timing service's end-to-end benchmark.
//
//   perfbench --workload <point_query|batch_mix|whatif_eco|train_step>
//             --seed N --seconds S --trace <0|1> [--out-dir DIR]
//             [--git-sha SHA]
//   perfbench --prepare [--out-dir DIR]
//
// Runs one seeded workload against the public APIs of serve, whatif and
// core for S seconds, checks every answer against an independent
// reference, and prints as its last stdout line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer split (--trace 1).
// The full result goes to <out-dir>/results/. perfbench/run.py builds this
// binary and runs it; see perfbench/README.md.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "common/parallel.hpp"
#include "obs/trace.hpp"
#include "tensor/expr.hpp"
#include "tensor/kernels/kernels.hpp"

namespace perfbench {
namespace {

int usage(const std::string& message) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <point_query|batch_mix|"
               "whatif_eco|train_step> --seed N --seconds S --trace <0|1> "
               "[--out-dir DIR] [--git-sha SHA]\n"
               "       perfbench --prepare [--out-dir DIR]\n",
               message.c_str());
  return 2;
}

/// A JSON number with every digit (%.17g round-trips a double).
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metricsObject(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += dagt::JsonValue::quote(metrics[i].name) + ": {\"value\": " +
           number(metrics[i].value) +
           ", \"unit\": " + dagt::JsonValue::quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

dagt::JsonValue metricsJson(const std::vector<Metric>& metrics) {
  dagt::JsonValue out = dagt::JsonValue::object();
  for (const Metric& m : metrics) {
    out.set(m.name,
            dagt::JsonValue::object().set("value", m.value).set("unit", m.unit));
  }
  return out;
}

/// Build and runtime facts that change what is measured.
dagt::JsonValue fingerprint(const Options& options, const std::string& sha) {
  namespace kernels = dagt::tensor::kernels;
  return dagt::JsonValue::object()
      .set("workload", options.workload)
      .set("seed", options.seed)
      .set("seconds", options.seconds)
      .set("trace", options.trace)
      .set("kernel_tier", kernels::tierName(kernels::activeTier()))
      .set("parallel_threads",
           static_cast<std::uint64_t>(dagt::parallelThreadCount()))
      .set("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
      .set("build_type", PERFBENCH_BUILD_TYPE)
      .set("dagt_checks", DAGT_CHECKS)
      .set("dagt_tracing", DAGT_TRACING)
      .set("fusion", dagt::tensor::expr::fusionEnabled())
      .set("retrieval", false)
      .set("git_sha", sha);
}

int run(int argc, char** argv) {
  Options options;
  std::string sha = "unknown";
  bool prepare = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--prepare") {
      prepare = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--out-dir") {
        options.outDir = value;
      } else if (flag == "--git-sha") {
        sha = value;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag);
    }
  }
  // One thread for the whole process: every parallelFor spawns
  // parallelThreadCount() threads, and on a shared host a request that needs
  // several cores at once measures the host's scheduler more than the
  // program (perfbench/README.md). Set before any library call, so the
  // bundle, the references and the timed phase agree bitwise.
  dagt::parallelThreadCount() = 1;
  if (prepare) {
    // Build (or validate) the scaffolding cache in its own process, so
    // training the bundle leaves no trace in a measured process.
    const Scaffold scaffold(options.outDir);
    return 0;
  }
  if (options.workload.empty()) return usage("--workload is required");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  SpanRecorder spans(options.trace);
  Result result;
  if (options.workload == "train_step") {
    result = runTrainStep(options, spans);
  } else {
    const Scaffold scaffold(options.outDir);
    if (options.workload == "point_query") {
      result = runPointQuery(options, scaffold, spans);
    } else if (options.workload == "batch_mix") {
      result = runBatchMix(options, scaffold, spans);
    } else if (options.workload == "whatif_eco") {
      result = runWhatIfEco(options, scaffold, spans);
    } else {
      return usage("unknown workload " + options.workload);
    }
  }

  const bool correct = result.failed == 0 && result.selfTestMisses == 0 &&
                       result.selfTestCases > 0;
  const dagt::JsonValue env = fingerprint(options, sha);
  std::printf("perfbench %s seed %llu trace %d: attempted %lld, succeeded "
              "%lld, failed %lld; self-test %lld/%lld corrupted replies "
              "caught\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0, static_cast<long long>(result.attempted),
              static_cast<long long>(result.attempted - result.failed),
              static_cast<long long>(result.failed),
              static_cast<long long>(result.selfTestCases -
                                     result.selfTestMisses),
              static_cast<long long>(result.selfTestCases));
  std::printf("environment %s\n", env.dump().c_str());
  for (const auto* group : {&result.endToEnd, &result.perLayer,
                            &result.detail}) {
    for (const Metric& m : *group) {
      std::printf("  %-32s %16.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

  const std::filesystem::path results =
      std::filesystem::path(options.outDir) / "results";
  std::filesystem::create_directories(results);
  const std::string stem = options.workload + "-seed" +
                           std::to_string(options.seed) + "-trace" +
                           (options.trace ? "1" : "0");
  dagt::writeJsonFile(
      dagt::JsonValue::object()
          .set("environment", env)
          .set("correct", correct)
          .set("attempted", result.attempted)
          .set("succeeded", result.attempted - result.failed)
          .set("failed", result.failed)
          .set("self_test_cases", result.selfTestCases)
          .set("self_test_misses", result.selfTestMisses)
          .set("end_to_end", metricsJson(result.endToEnd))
          .set("per_layer", metricsJson(result.perLayer))
          .set("detail", metricsJson(result.detail)),
      (results / (stem + ".json")).string());
  if (options.trace) {
    spans.writeChromeTrace((results / (stem + ".spans.json")).string());
  }

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed),
              metricsObject(options.trace ? result.perLayer
                                          : result.endToEnd)
                  .c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
