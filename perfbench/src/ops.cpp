#include "ops.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <thread>

#include "core/cost.hpp"
#include "core/partition_io.hpp"
#include "graph/csr_view.hpp"
#include "netlist/rng.hpp"
#include "obs/obs.hpp"

namespace perfbench {

void RunResult::FailOp(const std::string& message) {
  ++failed;
  errors.push_back(message);
}

void RunResult::FailInvariant(const std::string& message) {
  correct = false;
  errors.push_back("benchmark invariant: " + message);
}

std::size_t Nproc() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

std::vector<std::uint64_t> DeriveSeeds(std::uint64_t workload_seed,
                                       std::uint64_t stream,
                                       std::size_t count) {
  htp::Rng rng(workload_seed * 0x9E3779B97F4A7C15ULL + stream);
  std::set<std::uint64_t> seen;
  std::vector<std::uint64_t> out;
  while (out.size() < count) {
    const std::uint64_t s = 1 + rng.next_below((std::uint64_t{1} << 40) - 1);
    if (seen.insert(s).second) out.push_back(s);
  }
  return out;
}

HierarchySpec DefaultSpec(double total_size) {
  return htp::UniformHierarchy(total_size, kHeight, kBranching, kSlack,
                               std::vector<double>(kHeight, 1.0));
}

std::string CheckPartitionText(const Hypergraph& hg, const HierarchySpec& spec,
                               const std::string& partition_text,
                               double reported_cost) {
  try {
    const htp::TreePartition tp = htp::ReadPartitionText(hg, partition_text);
    const std::vector<std::string> violations =
        htp::ValidatePartition(tp, spec);
    if (!violations.empty()) return "invalid partition: " + violations.front();
    const double cost = htp::PartitionCost(tp, spec);
    if (std::abs(cost - reported_cost) >
        1e-9 * std::max(1.0, std::abs(cost))) {
      char buf[128];
      std::snprintf(buf, sizeof buf, "reported cost %.17g, recomputed %.17g",
                    reported_cost, cost);
      return buf;
    }
    return "";
  } catch (const std::exception& e) {
    return std::string("partition does not load: ") + e.what();
  }
}

HtpFlowParams SessionFlowParams(const htp::serve::SessionRequest& request) {
  HtpFlowParams params;
  params.iterations = request.iterations;
  params.seed = request.seed;
  params.keep_best_metric = request.emit_warm_state;
  params.collect_report = request.collect_report;
  params.threads = request.threads;
  params.metric_threads = request.metric_threads;
  params.build_threads = request.build_threads;
  params.budget.max_rounds = request.budget.max_rounds;
  params.cancel = htp::StartBudget(request.budget, request.cancel);
  params.injection.oracle_sample = request.oracle_sample;
  if (request.algo == "flow-mst") params.carver = htp::CarverKind::kMstSplit;
  return params;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(std::max(v, 1e-300));
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double PeakRssMbSelf() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double CpuSecondsSelf() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double ObsTotals::Counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

double ObsTotals::TimerMs(const std::string& name) const {
  const auto it = timer_ns.find(name);
  return it == timer_ns.end() ? 0.0 : it->second / 1e6;
}

ObsTotals ObsNow() {
  ObsTotals out;
  const htp::obs::Snapshot snap = htp::obs::TakeSnapshot();
  for (const auto& c : snap.counters)
    out.counters[c.name] = static_cast<double>(c.value);
  for (const auto& t : snap.timers)
    out.timer_ns[t.name] = static_cast<double>(t.total_ns);
  return out;
}

ObsTotals ObsDelta(const ObsTotals& before, const ObsTotals& after) {
  ObsTotals out = after;
  for (auto& [name, v] : out.counters) v -= before.Counter(name);
  for (auto& [name, v] : out.timer_ns) {
    const auto it = before.timer_ns.find(name);
    if (it != before.timer_ns.end()) v -= it->second;
  }
  return out;
}

std::function<FlowInjectionResult(const Hypergraph&, const HierarchySpec&,
                                  const FlowInjectionParams&)>
TracedMetricHook(SpanRecorder& recorder, std::uint64_t parent,
                 std::uint64_t request) {
  return [&recorder, parent, request](const Hypergraph& g,
                                      const HierarchySpec& s,
                                      const FlowInjectionParams& p) {
    FlowInjectionParams pp = p;
    {
      SpanRecorder::Scope span(recorder, "graph.csr", parent, request);
      pp.csr = std::make_shared<const htp::CsrView>(g);
    }
    SpanRecorder::Scope span(recorder, "core.metric", parent, request);
    return htp::ComputeSpreadingMetric(g, s, pp);
  };
}

double TraceSummary::Self(const std::string& name) const {
  const auto it = self_ms.find(name);
  return it == self_ms.end() ? 0.0 : it->second;
}

double TraceSummary::SpanTotal(const std::string& name) const {
  const auto it = span_ms.find(name);
  return it == span_ms.end() ? 0.0 : it->second;
}

TraceSummary Summarize(const std::vector<Span>& spans,
                       const std::function<bool(std::uint64_t)>& keep) {
  TraceSummary out;
  for (const auto& [request, request_spans] : ByRequest(spans)) {
    if (!keep(request)) continue;
    const Attribution a = AttributeSelfTime(request_spans);
    double sum_ns = 0.0;
    for (const auto& [name, ns] : a.self_ns) {
      out.self_ms[name] += ns / 1e6;
      sum_ns += ns;
    }
    for (const Span& s : request_spans)
      out.span_ms[s.name] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    out.wall_ms += a.wall_ns / 1e6;
    out.max_sum_error_ms =
        std::max(out.max_sum_error_ms, std::abs(sum_ns - a.wall_ns) / 1e6);
    ++out.requests;
    out.spans += request_spans.size();
  }
  return out;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"hit_p50_ms", "ms"},
      {"miss_p50_ms", "ms"},
      {"eco_p50_ms", "ms"},
      {"graph.dijkstra_pops", "count"},
      {"graph.pops_per_s", "1/s"},
      {"graph.csr_build_ms", "ms"},
      {"core.metric.busy_ms", "ms"},
      {"core.metric.calls", "count"},
      {"core.metric.rounds", "count"},
      {"core.metric.injections", "count"},
      {"core.metric.share", "ratio"},
      {"core.construct.self_ms", "ms"},
      {"core.construct.share", "ratio"},
      {"partition.fm.busy_ms", "ms"},
      {"partition.fm.passes", "count"},
      {"partition.fm.gain", "cost"},
      {"multilevel.self_ms", "ms"},
      {"multilevel.coarsen_ms", "ms"},
      {"multilevel.levels", "count"},
      {"multilevel.coarsest_nodes", "count"},
      {"multilevel.metric_share", "ratio"},
      {"incremental.delta_ms", "ms"},
      {"incremental.warm_load_ms", "ms"},
      {"incremental.eco_self_ms", "ms"},
      {"incremental.eco_metric_ms", "ms"},
      {"incremental.warm_emit_ms", "ms"},
      {"incremental.warm_bytes", "bytes"},
      {"incremental.reuse_ratio", "ratio"},
      {"incremental.warm_injections", "count"},
      {"server.parse_ms", "ms"},
      {"server.session_ms", "ms"},
      {"server.render_ms", "ms"},
      {"server.response_bytes", "bytes"},
      {"server.cache.netlist_hit_ratio", "ratio"},
      {"server.cache.csr_hit_ratio", "ratio"},
      {"server.cache.metric_hit_ratio", "ratio"},
      {"server.queue_wait_ms", "ms"},
      {"server.overhead_ms", "ms"},
      {"netlist.build_ms", "ms"},
      {"netlist.pins", "count"},
      {"runtime.cores_busy", "cores"},
      {"trace.overhead_pct", "%"},
      {"trace.unattributed_ms", "ms"},
      {"trace.spans", "count"},
  };
  return names;
}

void AddTraceMetrics(const TraceSummary& trace, const ObsTotals& obs,
                     Metrics& m) {
  const double metric_ms = obs.TimerMs("flow.compute_metric");
  const double pops = obs.Counter("dijkstra.pops");
  m["graph.dijkstra_pops"] = {pops, "count"};
  m["graph.pops_per_s"] = {metric_ms > 0 ? pops / (metric_ms / 1e3) : 0.0,
                           "1/s"};
  m["graph.csr_build_ms"] = {trace.Self("graph.csr"), "ms"};
  m["core.metric.busy_ms"] = {metric_ms, "ms"};
  m["core.metric.calls"] = {obs.Counter("flow.metrics"), "count"};
  m["core.metric.rounds"] = {obs.Counter("flow.rounds"), "count"};
  m["core.metric.injections"] = {obs.Counter("flow.injections"), "count"};
  const double wall = std::max(trace.wall_ms, 1e-9);
  m["core.metric.share"] = {trace.Self("core.metric") / wall, "ratio"};
  m["core.construct.self_ms"] = {trace.Self("core.construct"), "ms"};
  m["core.construct.share"] = {trace.Self("core.construct") / wall, "ratio"};
  m["partition.fm.busy_ms"] = {obs.TimerMs("fm.refine"), "ms"};
  m["partition.fm.passes"] = {obs.Counter("fm.passes"), "count"};
  m["partition.fm.gain"] = {obs.Counter("fm.accepted_gain_milli") / 1e3,
                            "cost"};
  m["netlist.build_ms"] = {trace.Self("netlist"), "ms"};
  m["trace.unattributed_ms"] = {trace.Self("request"), "ms"};
  m["trace.spans"] = {static_cast<double>(trace.spans), "count"};
}

void FinishPerLayer(const Options& options, const std::vector<Span>& spans,
                    const TraceSummary& trace, RunResult& result) {
  // Rounding of the ns-to-ms sums stays far below a microsecond.
  if (trace.max_sum_error_ms > 1e-3)
    result.FailInvariant("layer self times do not sum to the request wall (" +
                         std::to_string(trace.max_sum_error_ms) + " ms off)");
  for (const auto& [name, unit] : PerLayerMetrics())
    if (!result.metrics.contains(name)) result.metrics[name] = {0.0, unit};
  if (!options.work_dir.empty())
    WriteChromeTrace(spans, options.work_dir + "/trace-" + options.workload +
                                "-seed" + std::to_string(options.seed) +
                                ".json");
}

}  // namespace perfbench
