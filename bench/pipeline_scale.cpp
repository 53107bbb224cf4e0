// Whole-pipeline wall-clock gate: times FLOW plus hierarchical FM
// refinement (RefineHtpFm) end to end, and emits the same machine-readable
// JSON shape as regression_suite so scripts/bench_regression.py can gate
// it as the "pipeline" section of BENCH_htp.json (docs/benchmarks.md).
//
// Results are bit-identical for every --threads x --metric-threads
// combination. Injections and dijkstra_pops equal the "circuits" rows (the
// same FLOW runs); cost is the refined cost.
//
// Usage: pipeline_scale --json out.json [--quick] [--seed N] [--threads N]
//                       [--metric-threads N]
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/htp_flow.hpp"
#include "partition/htp_fm.hpp"

namespace {

struct CircuitRow {
  std::string name;
  double pipeline_wall_seconds = 0.0;  ///< construction + refinement
  double cost = 0.0;                   ///< refined cost (the pipeline output)
  std::uint64_t injections = 0;
  std::uint64_t dijkstra_pops = 0;
  double metric_phase_ms = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace htp;
  std::string json_path;
  std::vector<char*> rest{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
    else
      rest.push_back(argv[i]);
  }
  const bench::Options options =
      bench::ParseArgs(static_cast<int>(rest.size()), rest.data());
  bench::PrintHeader("PIPELINE",
                     "FLOW construction + hierarchical FM refinement, end "
                     "to end",
                     options);

  const double calibration = bench::CalibrationSeconds();
  std::printf("calibration kernel: %.3fs\n", calibration);
  std::printf("%-8s %12s %12s %10s %14s %14s\n", "circuit", "PIPE(s)",
              "PIPE(norm)", "cost", "dijkstra pops", "metric ms");

  std::vector<CircuitRow> rows;
  for (const auto& [name, hg] : bench::LoadSuite(options)) {
    obs::ResetAll();
    const HierarchySpec spec = FullBinaryHierarchy(hg.total_size());
    HtpFlowParams params;
    params.iterations = options.quick ? 2 : 4;
    params.seed = options.seed;
    params.threads = options.threads;
    params.metric_threads = options.metric_threads;
    HtpFmParams refine;
    CircuitRow row;
    row.name = name;
    HtpFlowResult result{TreePartition(hg, spec.root_level())};
    HtpFmStats refined;
    row.pipeline_wall_seconds = bench::TimeSeconds([&] {
      result = RunHtpFlow(hg, spec, params);
      refined = RefineHtpFm(result.partition, spec, refine);
    });
    row.cost = refined.final_cost;
    for (const HtpFlowIteration& it : result.iterations)
      row.injections += it.injections;
    const obs::Snapshot snap = obs::TakeSnapshot();
    row.dijkstra_pops = bench::CounterTotal(snap, "dijkstra.pops");
    for (const obs::TimerValue& t : snap.timers)
      if (t.name == "flow.compute_metric")
        row.metric_phase_ms = static_cast<double>(t.total_ns) / 1e6;
    std::printf("%-8s %12.3f %12.3f %10.0f %14llu %14.1f\n", name.c_str(),
                row.pipeline_wall_seconds,
                row.pipeline_wall_seconds / calibration, row.cost,
                static_cast<unsigned long long>(row.dijkstra_pops),
                row.metric_phase_ms);
    rows.push_back(std::move(row));
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    // Rows live under the "circuits" key like every suite bench: the gate
    // script lifts them into the baseline section named by --section.
    out << "{\n";
    out << "  \"schema\": \"htp-bench-regression-v1\",\n";
    out << "  \"quick\": " << (options.quick ? "true" : "false") << ",\n";
    out << "  \"seed\": " << options.seed << ",\n";
    out << "  \"threads\": " << options.threads << ",\n";
    out << "  \"metric_threads\": " << options.metric_threads << ",\n";
    out << "  \"calibration_seconds\": " << calibration << ",\n";
    out << "  \"circuits\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const CircuitRow& r = rows[i];
      out << "    {\"name\": \"" << r.name << "\""
          << ", \"flow_wall_seconds\": " << r.pipeline_wall_seconds
          << ", \"normalized_wall\": " << r.pipeline_wall_seconds / calibration
          << ", \"cost\": " << r.cost
          << ", \"injections\": " << r.injections
          << ", \"dijkstra_pops\": " << r.dijkstra_pops
          << ", \"metric_phase_ms\": " << r.metric_phase_ms << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
