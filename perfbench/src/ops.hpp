// Shared pieces of the workloads: options, the result line, seeded
// operation parameters, output checks, statistics, process counters, and
// the per-layer summary of a traced replay.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/flow_injection.hpp"
#include "core/hierarchy.hpp"
#include "core/htp_flow.hpp"
#include "core/tree_partition.hpp"
#include "netlist/hypergraph.hpp"
#include "server/session.hpp"
#include "spans.hpp"

namespace perfbench {

using htp::FlowInjectionParams;
using htp::FlowInjectionResult;
using htp::HierarchySpec;
using htp::HtpFlowParams;
using htp::Hypergraph;
using htp::Level;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test sizing: the smallest operation list that still exercises
  /// every code path of the workload.
  bool small = false;
  std::string serve_binary;  ///< htp_serve, for serve_eco
  std::string work_dir;      ///< socket and trace files go here
};

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// What one benchmark invocation reports.
struct RunResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Failure messages: one per failed operation plus any broken invariant
  /// of the benchmark itself (which also clears `correct`).
  std::vector<std::string> errors;
  bool correct = true;
  Metrics metrics;

  void FailOp(const std::string& message);
  void FailInvariant(const std::string& message);
};

/// Worker threads and connections the load may use: the host's core count.
std::size_t Nproc();

/// Seeds for the operations of one workload stream, in [1, 2^40): a pure
/// function of (workload seed, stream), never 0, distinct within a call.
std::vector<std::uint64_t> DeriveSeeds(std::uint64_t workload_seed,
                                       std::uint64_t stream,
                                       std::size_t count);

/// The hierarchy every workload asks for: htp_cli's defaults (full binary
/// tree of height 4, 10% slack, unit weights).
inline constexpr Level kHeight = 4;
inline constexpr std::size_t kBranching = 2;
inline constexpr double kSlack = 0.10;
HierarchySpec DefaultSpec(double total_size);

/// Re-reads `partition_text` against `hg` (built by the benchmark, not taken
/// from the program), checks the paper's feasibility rules with
/// ValidatePartition, and recomputes the Equation-(1) cost. Returns "" when
/// the partition is valid and its cost equals `reported_cost`.
std::string CheckPartitionText(const Hypergraph& hg, const HierarchySpec& spec,
                               const std::string& partition_text,
                               double reported_cost);

/// The Algorithm-1 parameters RunSession derives from `request` on its
/// flow paths (no metric provider; callers add their own).
HtpFlowParams SessionFlowParams(const htp::serve::SessionRequest& request);

double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double GeoMean(const std::vector<double>& values);

double PeakRssMbSelf();
double CpuSecondsSelf();

/// Counter totals and timer totals (ns) from the htp obs registry.
struct ObsTotals {
  std::map<std::string, double> counters;
  std::map<std::string, double> timer_ns;
  double Counter(const std::string& name) const;
  double TimerMs(const std::string& name) const;
};
ObsTotals ObsNow();
ObsTotals ObsDelta(const ObsTotals& before, const ObsTotals& after);

/// A metric provider for HtpFlowParams::metric_compute that records a
/// "graph.csr" span around the CSR lowering and a "core.metric" span around
/// ComputeSpreadingMetric, both children of `parent`. Passing the lowered
/// CSR in never changes results (FlowInjectionParams::csr).
std::function<FlowInjectionResult(const Hypergraph&, const HierarchySpec&,
                                  const FlowInjectionParams&)>
TracedMetricHook(SpanRecorder& recorder, std::uint64_t parent,
                 std::uint64_t request);

/// Self time by span name, summed over the requests `keep` accepts.
struct TraceSummary {
  std::map<std::string, double> self_ms;
  std::map<std::string, double> span_ms;  ///< summed span durations
  double wall_ms = 0.0;                   ///< summed root-span durations
  std::size_t requests = 0;
  std::size_t spans = 0;
  /// Largest |sum of self times - wall| over the requests, in ms.
  double max_sum_error_ms = 0.0;
  double Self(const std::string& name) const;
  double SpanTotal(const std::string& name) const;
};
TraceSummary Summarize(const std::vector<Span>& spans,
                       const std::function<bool(std::uint64_t)>& keep =
                           [](std::uint64_t) { return true; });

/// The per-layer metric names and units, in BENCHMARK.json order. A traced
/// run prints all of them; a layer the workload never enters reads 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Fills the metrics every traced replay derives the same way: self-time
/// shares from `trace`, counts and busy times from `obs`, netlist and CSR
/// times, the span count, and the bench's own unattributed time.
void AddTraceMetrics(const TraceSummary& trace, const ObsTotals& obs,
                     Metrics& metrics);

/// Adds every per-layer name missing from the metrics as 0, checks that
/// the self times of every request summed to its wall time, and writes the
/// spans to <work_dir>/trace-<workload>-seed<N>.json.
void FinishPerLayer(const Options& options, const std::vector<Span>& spans,
                    const TraceSummary& trace, RunResult& result);

}  // namespace perfbench
