// Ablation: the generalized FM improver vs simulated annealing as the
// Table-3 refinement stage, from identical FLOW starting points. Confirms
// that the FM-based "+" results are not an artifact of one local-search
// design (FM is expected to dominate on time and usually on quality —
// which is why [9] and the paper use it).
#include "bench_common.hpp"
#include "core/htp_flow.hpp"
#include "partition/annealing.hpp"
#include "partition/htp_fm.hpp"

int main(int argc, char** argv) {
  using namespace htp;
  const bench::Options options = bench::ParseArgs(argc, argv);
  bench::PrintHeader("ABLATION",
                     "refinement stage: generalized FM vs simulated "
                     "annealing (same FLOW starts)",
                     options);
  std::printf("%-8s %8s | %8s %8s | %8s %8s\n", "circuit", "FLOW", "FM+",
              "time(s)", "SA+", "time(s)");

  for (const auto& [name, hg] : bench::LoadSuite(options)) {
    if (name == "c6288" && options.quick) continue;
    const HierarchySpec spec = FullBinaryHierarchy(hg.total_size());
    HtpFlowParams fp;
    fp.iterations = options.quick ? 1 : 2;
    fp.seed = options.seed;
    fp.threads = options.threads;
    fp.budget = bench::FlowBudget(options);
    const HtpFlowResult flow = RunHtpFlow(hg, spec, fp);

    TreePartition fm_part = flow.partition;
    double fm_cost = 0;
    const double fm_time = bench::TimeSeconds([&] {
      fm_cost = RefineHtpFm(fm_part, spec).final_cost;
    });

    TreePartition sa_part = flow.partition;
    double sa_cost = 0;
    const double sa_time = bench::TimeSeconds([&] {
      AnnealingParams p;
      p.seed = options.seed;
      sa_cost = AnnealHtp(sa_part, spec, p).final_cost;
    });

    std::printf("%-8s %8.0f | %8.0f %8.2f | %8.0f %8.2f\n", name.c_str(),
                flow.cost, fm_cost, fm_time, sa_cost, sa_time);
  }
  return 0;
}
