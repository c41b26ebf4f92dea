// End-to-end summary of a workload's timed phase.

#include "bench.hpp"

namespace perfbench {
void addEndToEnd(Result& result, const std::vector<double>& setupSeconds,
                 const HostProbe& setupProbe, const std::vector<OpSample>& ops,
                 const HostProbe& probe, double rssMiB, double r2) {
  std::vector<double> us;
  double work = 0.0;
  double busyUs = 0.0;
  for (const OpSample& op : ops) {
    work += op.work;
    busyUs += op.us;
    if (op.latency) us.push_back(op.us);
  }
  const double rate = busyUs > 0.0 ? work / (busyUs / 1e6) : 0.0;
  const double p50 = percentile(us, 0.50);

  auto& out = result.endToEnd;
  out.push_back({"setup_s", median(setupSeconds) * setupProbe.scale(), "s"});
  out.push_back({"p50_us", p50 * probe.scale(), "us"});
  out.push_back({"work_per_s", rate / probe.scale(), "1/s"});
  out.push_back({"rss_mb", rssMiB, "MiB"});
  auto& detail = result.detail;
  detail.push_back({"quality.r2", r2, "r2"});
  detail.push_back(
      {"latency.samples", static_cast<double>(us.size()), "count"});
  detail.push_back({"host.probe_us", probe.medianUs(), "us"});
  detail.push_back({"host.setup_probe_us", setupProbe.medianUs(), "us"});
  detail.push_back({"host.reference_us", HostProbe::kReferenceUs, "us"});
  detail.push_back({"run.setup_s", median(setupSeconds), "s"});
  detail.push_back({"run.p50_us", p50, "us"});
  detail.push_back({"run.p90_us", percentile(us, 0.90), "us"});
  detail.push_back({"run.p99_us", percentile(us, 0.99), "us"});
  detail.push_back({"run.max_us", percentile(us, 1.0), "us"});
  detail.push_back({"run.work_per_s", rate, "1/s"});
  detail.push_back(
      {"setup.reps", static_cast<double>(setupSeconds.size()), "count"});
}

void splitTraced(const std::vector<OpSample>& ops, LayerInputs& in) {
  std::vector<double> traced;
  std::vector<double> untraced;
  for (const OpSample& op : ops) {
    if (!op.latency) {
      // Busy time that is no operation (what-if reports): its spans are in
      // the traced aggregates, so it joins the denominator of the shares.
      if (op.traced) in.tracedOpUs += op.us;
      continue;
    }
    in.allOpUs += op.us;
    if (op.traced) {
      traced.push_back(op.us);
      in.tracedOpUs += op.us;
    } else {
      untraced.push_back(op.us);
    }
  }
  in.allOps = static_cast<std::int64_t>(traced.size() + untraced.size());
  in.tracedOps = static_cast<std::int64_t>(traced.size());
  in.tracedP50Us = median(traced);
  in.untracedP50Us = median(untraced);
}

}  // namespace perfbench
