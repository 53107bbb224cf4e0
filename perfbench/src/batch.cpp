// iscas_flow and rent_multilevel: one caller, closed loop, RunSession with
// no cache. The traced replay calls the layers RunSession would call —
// RunHtpFlow or RunMultilevelFlow, then RefineHtpFm — with spans around
// them and around every metric computation.
#include <array>
#include <cmath>
#include <memory>
#include <optional>

#include "core/partition_io.hpp"
#include "multilevel/multilevel_flow.hpp"
#include "netlist/generators.hpp"
#include "partition/htp_fm.hpp"
#include "server/artifact_key.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using htp::serve::RunSession;
using htp::serve::SessionRequest;
using htp::serve::SessionResult;

// Wall seconds of one pass over the operation list's circuits on the
// reference host (4 cores); sets how many seeds fill --seconds.
constexpr double kIscasPassSeconds = 15.0;
constexpr double kRentPassSeconds = 5.2;
// FLOW threads of an iscas_flow operation. Serial, as the paper's Table 2/3
// runs were: with threads = nproc every operation waits on all four cores,
// and two busy loops elsewhere on the host slowed it 45%, while the serial
// run did not move.
constexpr std::size_t kIscasThreads = 1;
// Operations per pass on each circuit, in BuildNetlists order. iscas_flow
// runs c3540 three times, so the latency p50 is the median of three c3540
// operations rather than one. rent_multilevel runs the 50k circuit four
// times to the 100k circuit's once: the p50 falls near the 50k class's 60th
// percentile and the p90 inside the 100k class, away from the tails.
constexpr std::array<std::size_t, 5> kIscasReps = {1, 1, 3, 1, 1};
constexpr std::array<std::size_t, 2> kRentReps = {4, 1};
constexpr std::size_t kMaxReps = 4;
// Generator seed of the Rent circuits. The instance is fixed, like the
// ISCAS85-like suite's: on two 100k-gate instances the mean operation time
// differed by 40%, more than any bound could absorb, so the workload seed
// picks only the FLOW seeds.
constexpr std::uint64_t kRentNetlistSeed = 1997;
// Request id of the traced set-up (netlist generation).
constexpr std::uint64_t kSetupRequest = std::uint64_t{1} << 62;

struct BatchOp {
  SessionRequest request;
  /// Built by the benchmark; the partition is checked against this copy.
  std::shared_ptr<const Hypergraph> hg;
};

struct Plan {
  std::vector<BatchOp> ops;
  double setup_s = 0.0;  ///< the first set-up's wall
};

std::size_t Passes(const Options& o, double pass_seconds) {
  if (o.small) return 1;
  return static_cast<std::size_t>(
      std::max(1.0, std::round(o.seconds / pass_seconds)));
}

// The workload's netlists: the ISCAS85-like circuits or the Rent circuits.
std::vector<std::shared_ptr<const Hypergraph>> BuildNetlists(const Options& o,
                                                             bool rent) {
  std::vector<std::shared_ptr<const Hypergraph>> out;
  if (!rent) {
    // The calibrated instances (MakeIscas85Like's default generator seed),
    // as the paper runs fixed circuits.
    for (const char* c : {"c1355", "c2670", "c3540", "c6288", "c7552"}) {
      out.push_back(
          std::make_shared<const Hypergraph>(htp::MakeIscas85Like(c)));
      if (o.small) break;
    }
    return out;
  }
  for (const std::size_t gates :
       o.small ? std::vector<std::size_t>{5000}
               : std::vector<std::size_t>{50000, 100000}) {
    htp::RentCircuitParams params;
    params.num_gates = gates;
    params.num_primary_inputs = gates / 25;
    params.seed = kRentNetlistSeed;
    out.push_back(
        std::make_shared<const Hypergraph>(htp::RentCircuit(params)));
  }
  return out;
}

// One pass runs each circuit under kIscasReps or kRentReps FLOW seeds, so
// the latency p50 and p90 each fall inside one size class instead of on the
// boundary between two. The workload seed picks the FLOW seeds.
std::vector<BatchOp> BuildOps(
    const Options& o, bool rent,
    const std::vector<std::shared_ptr<const Hypergraph>>& netlists) {
  const std::size_t passes =
      Passes(o, rent ? kRentPassSeconds : kIscasPassSeconds);
  const std::vector<std::uint64_t> seeds =
      DeriveSeeds(o.seed, rent ? 3 : 1, kMaxReps * passes);
  std::vector<BatchOp> ops;
  for (std::size_t p = 0; p < passes; ++p) {
    for (std::size_t i = 0; i < netlists.size(); ++i) {
      const std::size_t reps =
          o.small ? 1 : rent ? kRentReps[i] : kIscasReps[i];
      for (std::size_t rep = 0; rep < reps; ++rep) {
        BatchOp op;
        op.request.netlist = netlists[i];
        op.request.seed = seeds[kMaxReps * p + rep];
        op.request.threads = rent ? Nproc() : kIscasThreads;
        op.request.multilevel = rent;
        op.request.refine = true;
        op.hg = netlists[i];
        ops.push_back(std::move(op));
      }
    }
  }
  return ops;
}

Plan MakePlan(const Options& o, bool rent) {
  Plan plan;
  const std::int64_t t0 = NowNs();
  plan.ops = BuildOps(o, rent, BuildNetlists(o, rent));
  plan.setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  return plan;
}

// Wall of one more set-up (netlist generation and the operation list).
double TimeSetup(const Options& o, bool rent) {
  const std::int64_t t0 = NowNs();
  (void)BuildOps(o, rent, BuildNetlists(o, rent));
  return static_cast<double>(NowNs() - t0) / 1e9;
}

double ReportedCost(const SessionResult& r) {
  return r.refined ? r.fm.final_cost : r.cost;
}

struct Untraced {
  std::vector<double> costs;  ///< per op; NaN when the op failed
  std::vector<double> latency_ms;  ///< RunSession wall of the passed ops
  double wall_s = 0.0;  ///< summed RunSession wall of the passed ops
  double cpu_s = 0.0;
  double pins = 0.0;
  /// The plan's set-up wall and that of one more set-up before each op.
  std::vector<double> setup_s;
};

// Set-up is repeated before each operation and its median reported: the
// ISCAS set-up takes a few milliseconds, and timed back to back its
// repetitions all read the host's state of that moment (15-25% apart from
// one process to the next); spread over the run they read the run's.
Untraced RunUntraced(const Options& o, bool rent, const Plan& plan,
                     RunResult& result) {
  Untraced u;
  u.setup_s.push_back(plan.setup_s);
  for (std::size_t i = 0; i < plan.ops.size(); ++i) {
    const BatchOp& op = plan.ops[i];
    u.setup_s.push_back(TimeSetup(o, rent));
    ++result.attempted;
    u.costs.push_back(std::nan(""));
    const double cpu0 = CpuSecondsSelf();
    const std::int64_t t0 = NowNs();
    std::optional<SessionResult> r;
    try {
      r.emplace(RunSession(op.request, nullptr));
    } catch (const std::exception& e) {
      result.FailOp("op " + std::to_string(i) + ": " + e.what());
      continue;
    }
    const double wall_s = static_cast<double>(NowNs() - t0) / 1e9;
    const double cpu_s = CpuSecondsSelf() - cpu0;
    const double cost = ReportedCost(*r);
    const std::string err =
        CheckPartitionText(*op.hg, DefaultSpec(op.hg->total_size()),
                           htp::WritePartitionText(*r->partition), cost);
    if (!err.empty()) {
      result.FailOp("op " + std::to_string(i) + ": " + err);
      continue;
    }
    u.costs[i] = cost;
    u.pins += static_cast<double>(r->netlist->num_pins());
    u.latency_ms.push_back(wall_s * 1e3);
    u.wall_s += wall_s;
    u.cpu_s += cpu_s;
  }
  return u;
}

struct ReplayTotals {
  double levels = 0.0;
  double coarsest_nodes = 0.0;
  double pins = 0.0;
};

// Replays op `i` through the layer functions RunSession calls, with spans.
ReplayTotals ReplayOp(const BatchOp& op, std::uint64_t id, SpanRecorder& rec,
                      double untraced_cost, RunResult& result) {
  ReplayTotals totals;
  const SessionRequest& req = op.request;
  SpanRecorder::Scope root(rec, "request", 0, id);
  const std::shared_ptr<const Hypergraph>& hg = req.netlist;
  {
    // RunSession's netlist resolution for a parsed netlist.
    SpanRecorder::Scope span(rec, "netlist", root.id(), id);
    (void)htp::serve::HashNetlist(*hg);
  }
  totals.pins = static_cast<double>(hg->num_pins());
  const HierarchySpec spec = DefaultSpec(hg->total_size());
  HtpFlowParams params = SessionFlowParams(req);
  std::optional<htp::TreePartition> tp;
  if (req.multilevel) {
    SpanRecorder::Scope span(rec, "multilevel", root.id(), id);
    htp::MultilevelParams ml;
    ml.flow = params;
    ml.flow.metric_compute = TracedMetricHook(rec, span.id(), id);
    ml.coarsen_threshold = static_cast<htp::NodeId>(req.coarsen_threshold);
    htp::MultilevelResult mr = htp::RunMultilevelFlow(*hg, spec, ml);
    totals.levels = static_cast<double>(mr.coarsen_levels);
    totals.coarsest_nodes = static_cast<double>(mr.coarsest_nodes);
    tp.emplace(std::move(mr.partition));
  } else {
    SpanRecorder::Scope span(rec, "core.construct", root.id(), id);
    params.metric_compute = TracedMetricHook(rec, span.id(), id);
    tp.emplace(htp::RunHtpFlow(*hg, spec, params).partition);
  }
  htp::HtpFmStats fm;
  {
    SpanRecorder::Scope span(rec, "partition.fm", root.id(), id);
    htp::HtpFmParams fm_params;
    fm_params.seed = req.seed;
    fm = htp::RefineHtpFm(*tp, spec, fm_params);
  }
  {
    SpanRecorder::Scope span(rec, "core.construct", root.id(), id);
    htp::RequireValidPartition(*tp, spec);
  }
  if (fm.final_cost != untraced_cost)
    result.FailOp("replay of op " + std::to_string(id - 1) + " cost " +
                  std::to_string(fm.final_cost) + " != untraced " +
                  std::to_string(untraced_cost));
  return totals;
}

void AddTraced(const Options& o, bool rent, const Plan& plan,
               const Untraced& u, RunResult& result) {
  SpanRecorder rec;
  {
    // The set-up's netlist generation is one more traced request.
    SpanRecorder::Scope root(rec, "request", 0, kSetupRequest);
    SpanRecorder::Scope span(rec, "netlist", root.id(), kSetupRequest);
    (void)BuildNetlists(o, rent);
  }
  const ObsTotals obs0 = ObsNow();
  ReplayTotals sum;
  std::size_t replayed = 0;
  for (std::size_t i = 0; i < plan.ops.size(); ++i) {
    if (std::isnan(u.costs[i])) continue;
    try {
      const ReplayTotals t = ReplayOp(plan.ops[i], i + 1, rec, u.costs[i],
                                      result);
      sum.levels += t.levels;
      sum.coarsest_nodes += t.coarsest_nodes;
      sum.pins += t.pins;
      ++replayed;
    } catch (const std::exception& e) {
      result.FailOp("replay of op " + std::to_string(i) + ": " + e.what());
    }
  }
  const ObsTotals obs = ObsDelta(obs0, ObsNow());
  const std::vector<Span> spans = rec.Take();
  const TraceSummary ops =
      Summarize(spans, [](std::uint64_t r) { return r != kSetupRequest; });
  const TraceSummary all = Summarize(spans);
  Metrics& m = result.metrics;
  AddTraceMetrics(ops, obs, m);
  m["netlist.build_ms"].value = all.Self("netlist");
  m["graph.csr_build_ms"].value = all.Self("graph.csr");
  m["netlist.pins"] = {sum.pins, "count"};
  m["runtime.cores_busy"] = {u.wall_s > 0 ? u.cpu_s / u.wall_s : 0.0,
                             "cores"};
  m["trace.overhead_pct"] = {
      u.wall_s > 0 ? (ops.wall_ms / 1e3 / u.wall_s - 1.0) * 100.0 : 0.0, "%"};
  if (ops.SpanTotal("multilevel") > 0) {
    const double n = static_cast<double>(std::max<std::size_t>(replayed, 1));
    m["multilevel.self_ms"] = {ops.Self("multilevel"), "ms"};
    m["multilevel.coarsen_ms"] = {obs.TimerMs("coarsen.pass"), "ms"};
    m["multilevel.levels"] = {sum.levels / n, "count"};
    m["multilevel.coarsest_nodes"] = {sum.coarsest_nodes / n, "count"};
    m["multilevel.metric_share"] = {
        ops.Self("core.metric") / ops.SpanTotal("multilevel"), "ratio"};
  }
  FinishPerLayer(o, spans, all, result);
}

RunResult RunBatch(const Options& o, bool rent) {
  RunResult result;
  const Plan plan = MakePlan(o, rent);
  const Untraced u = RunUntraced(o, rent, plan, result);
  if (o.trace) {
    AddTraced(o, rent, plan, u, result);
    return result;
  }
  std::vector<double> costs;
  for (const double c : u.costs)
    if (!std::isnan(c)) costs.push_back(c);
  Metrics& m = result.metrics;
  m["setup_s"] = {Median(u.setup_s), "s"};
  m["pins_per_s"] = {u.wall_s > 0 ? u.pins / u.wall_s : 0.0, "pins/s"};
  m["req_per_s"] = {u.wall_s > 0 ? static_cast<double>(u.latency_ms.size()) /
                                       u.wall_s
                                 : 0.0,
                    "1/s"};
  m["lat_p50_ms"] = {Quantile(u.latency_ms, 0.5), "ms"};
  m["lat_p90_ms"] = {Quantile(u.latency_ms, 0.9), "ms"};
  m["cost_geomean"] = {GeoMean(costs), "cost"};
  m["ok_ratio"] = {result.attempted == 0
                       ? 0.0
                       : 1.0 - static_cast<double>(result.failed) /
                                   static_cast<double>(result.attempted),
                   "ratio"};
  m["peak_rss_mb"] = {PeakRssMbSelf(), "MB"};
  return result;
}

}  // namespace

RunResult RunIscasFlow(const Options& options) {
  return RunBatch(options, false);
}

RunResult RunRentMultilevel(const Options& options) {
  return RunBatch(options, true);
}

}  // namespace perfbench
