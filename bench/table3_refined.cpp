// Regenerates TABLE 3 of the paper: "Partitioning results of three
// algorithms combined with iterative improvement algorithms" — the GFM+,
// RFM+, and FLOW+ costs (each constructive result refined by the
// generalized Fiduccia-Mattheyses improver of [9]) and the percentage
// improvement the refinement achieved.
//
// Expected shape: "the FM algorithm definitely improves the initial
// solutions from the three constructive algorithms. Combined with FM,
// FLOW+ still beats GFM+ and RFM+ for c2670 and c7552 but the cost
// differences have decreased."
#include "bench_common.hpp"
#include "core/htp_flow.hpp"
#include "partition/gfm.hpp"
#include "partition/htp_fm.hpp"
#include "partition/rfm.hpp"

int main(int argc, char** argv) {
  using namespace htp;
  const bench::Options options = bench::ParseArgs(argc, argv);
  bench::PrintHeader("TABLE 3",
                     "constructive algorithms combined with the generalized "
                     "FM iterative improvement",
                     options);
  std::printf("%-8s | %8s %8s | %8s %8s | %8s %8s\n", "circuit", "GFM+",
              "improv", "RFM+", "improv", "FLOW+", "improv");

  for (const auto& [name, hg] : bench::LoadSuite(options)) {
    const HierarchySpec spec = FullBinaryHierarchy(hg.total_size());

    GfmParams gp;
    gp.seed = options.seed;
    TreePartition gfm = RunGfm(hg, spec, gp);
    RfmParams rp;
    rp.seed = options.seed;
    TreePartition rfm = RunRfm(hg, spec, rp);
    HtpFlowParams fp;
    fp.iterations = options.quick ? 2 : 4;
    fp.seed = options.seed;
    fp.threads = options.threads;
    fp.budget = bench::FlowBudget(options);
    HtpFlowResult flow = RunHtpFlow(hg, spec, fp);

    struct Row {
      TreePartition* tp;
      double plus;
      double improv;
    } rows[] = {{&gfm, 0, 0}, {&rfm, 0, 0}, {&flow.partition, 0, 0}};
    for (Row& row : rows) {
      const double before = PartitionCost(*row.tp, spec);
      const HtpFmStats stats = RefineHtpFm(*row.tp, spec);
      row.plus = stats.final_cost;
      row.improv = before > 0 ? 100.0 * (before - stats.final_cost) / before
                              : 0.0;
    }
    std::printf("%-8s | %8.0f %7.1f%% | %8.0f %7.1f%% | %8.0f %7.1f%%\n",
                name.c_str(), rows[0].plus, rows[0].improv, rows[1].plus,
                rows[1].improv, rows[2].plus, rows[2].improv);
  }
  return 0;
}
