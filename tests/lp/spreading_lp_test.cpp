#include "lp/spreading_lp.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ostream>
#include <string>

#include "core/paper_examples.hpp"
#include "partition/exhaustive.hpp"
#include "test_util.hpp"

namespace htp {
namespace {

// Two 3-node triangles joined by one edge; one level with C0 = 3.
Hypergraph TwoTriangles() {
  HypergraphBuilder builder;
  for (int i = 0; i < 6; ++i) builder.add_node();
  builder.add_net({0u, 1u});
  builder.add_net({1u, 2u});
  builder.add_net({0u, 2u});
  builder.add_net({3u, 4u});
  builder.add_net({4u, 5u});
  builder.add_net({3u, 5u});
  builder.add_net({2u, 3u}, 1.0, "bridge");
  return builder.build();
}

HierarchySpec OneLevelSpec(double c0, double total) {
  std::vector<LevelSpec> levels(2);
  levels[0] = {c0, 2, 1.0};
  levels[1] = {total, 2, 1.0};
  return HierarchySpec(std::move(levels));
}

TEST(SpreadingLp, TwoTrianglesLowerBoundMatchesOptimum) {
  Hypergraph hg = TwoTriangles();
  const HierarchySpec spec = OneLevelSpec(3.0, 6.0);
  const SpreadingLpResult lp = SolveSpreadingLp(hg, spec);
  ASSERT_EQ(lp.status, LpStatus::kOptimal);
  EXPECT_TRUE(lp.converged);
  // The optimal partition cuts only the bridge: cost = span * w = 2.
  const auto exact = ExhaustiveHtp(hg, spec);
  ASSERT_TRUE(exact.has_value());
  EXPECT_DOUBLE_EQ(exact->cost, 2.0);
  // Lemma 2: LP optimum lower-bounds the optimal integral cost.
  EXPECT_LE(lp.lower_bound, exact->cost + 1e-6);
  EXPECT_GT(lp.lower_bound, 0.0);
}

TEST(SpreadingLp, FinalMetricIsFeasible) {
  Hypergraph hg = TwoTriangles();
  const HierarchySpec spec = OneLevelSpec(3.0, 6.0);
  const SpreadingLpResult lp = SolveSpreadingLp(hg, spec);
  ASSERT_EQ(lp.status, LpStatus::kOptimal);
  ASSERT_TRUE(lp.converged);
  EXPECT_FALSE(
      CheckSpreadingMetric(hg, spec, lp.metric, 1e-5).has_value());
}

TEST(SpreadingLp, TrivialWhenEverythingFitsOneLeaf) {
  Hypergraph hg = TwoTriangles();
  const HierarchySpec spec = OneLevelSpec(10.0, 10.0);  // C0 >= total
  const SpreadingLpResult lp = SolveSpreadingLp(hg, spec);
  ASSERT_EQ(lp.status, LpStatus::kOptimal);
  EXPECT_TRUE(lp.converged);
  EXPECT_NEAR(lp.lower_bound, 0.0, 1e-9);
}

TEST(SpreadingLp, Figure2LowerBound) {
  Hypergraph hg = Figure2Graph();
  const HierarchySpec spec = Figure2Spec();
  SpreadingLpOptions options;
  options.max_rounds = 300;
  const SpreadingLpResult lp = SolveSpreadingLp(hg, spec, options);
  ASSERT_EQ(lp.status, LpStatus::kOptimal);
  EXPECT_TRUE(lp.converged);
  EXPECT_LE(lp.lower_bound, kFigure2OptimalCost + 1e-5);
  EXPECT_GT(lp.lower_bound, 1.0);  // nontrivial bound
}

class SpreadingLpPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpreadingLpPropertyTest, LowerBoundsTheExactOptimum) {
  const std::uint64_t seed = GetParam();
  Hypergraph hg = testutil::RandomConnectedHypergraph(8, 6, 3, seed);
  std::vector<LevelSpec> levels(3);
  levels[0] = {3.0, 2, 1.0};
  levels[1] = {5.0, 2, 2.0};
  levels[2] = {8.0, 2, 1.0};
  const HierarchySpec spec{std::move(levels)};
  const SpreadingLpResult lp = SolveSpreadingLp(hg, spec);
  ASSERT_EQ(lp.status, LpStatus::kOptimal);
  ASSERT_TRUE(lp.converged);
  const auto exact = ExhaustiveHtp(hg, spec);
  ASSERT_TRUE(exact.has_value());
  EXPECT_LE(lp.lower_bound, exact->cost + 1e-5)
      << "LP bound must never exceed the optimum";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpreadingLpPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 9));

// The paper formulates (P1) on graphs and extends the algorithms "easily"
// to hypergraphs; our LP machinery works on hypergraphs directly (nets as
// switch-boxes), and the Lemma-2 bound must still hold against the exact
// optimum.
class HypergraphLpPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HypergraphLpPropertyTest, BoundHoldsWithMultiPinNets) {
  const std::uint64_t seed = GetParam();
  // Dense multi-pin nets: degree up to 5 on 8 nodes.
  Hypergraph hg = testutil::RandomConnectedHypergraph(8, 7, 5, seed);
  std::vector<LevelSpec> levels(3);
  levels[0] = {3.0, 2, 1.0};
  levels[1] = {5.0, 2, 1.0};
  levels[2] = {8.0, 2, 1.0};
  const HierarchySpec spec{std::move(levels)};
  const SpreadingLpResult lp = SolveSpreadingLp(hg, spec);
  ASSERT_EQ(lp.status, LpStatus::kOptimal);
  ASSERT_TRUE(lp.converged);
  const auto exact = ExhaustiveHtp(hg, spec);
  ASSERT_TRUE(exact.has_value());
  EXPECT_LE(lp.lower_bound, exact->cost + 1e-5)
      << "hypergraph LP bound exceeded the optimum";
  EXPECT_GE(lp.lower_bound, -1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HypergraphLpPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 9));

// Exact pins of the cutting-plane driver: rounds, generated rows, and the
// bits of the bound. Every cut row comes from a separation growth, so a
// change in the oracle's trees, stop points or sweep order moves them.
// Recorded while the oracle still grew its trees over the Hypergraph
// itself; the CsrView growth must reproduce them.
struct LpPin {
  const char* name;
  std::size_t rounds;
  std::size_t cuts;
  std::uint64_t lower_bound_bits;
};
void PrintTo(const LpPin& pin, std::ostream* os) { *os << pin.name; }

class SpreadingLpPinTest : public ::testing::TestWithParam<LpPin> {};

TEST_P(SpreadingLpPinTest, RoundsCutsAndBoundBitsPinned) {
  const LpPin pin = GetParam();
  SpreadingLpOptions options;
  Hypergraph hg;
  HierarchySpec spec = Figure2Spec();
  if (std::string(pin.name) == "figure2") {
    hg = Figure2Graph();
    options.max_rounds = 300;
  } else {
    const std::uint64_t seed = std::string(pin.name) == "random3" ? 3 : 5;
    hg = testutil::RandomConnectedHypergraph(8, 7, 5, seed);
    spec = HierarchySpec({{3.0, 2, 1.0}, {5.0, 2, 2.0}, {8.0, 2, 1.0}});
  }
  const SpreadingLpResult lp = SolveSpreadingLp(hg, spec, options);
  ASSERT_EQ(lp.status, LpStatus::kOptimal);
  EXPECT_TRUE(lp.converged);
  EXPECT_EQ(lp.rounds, pin.rounds);
  EXPECT_EQ(lp.cuts, pin.cuts);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(lp.lower_bound),
            pin.lower_bound_bits)
      << lp.lower_bound;
}

INSTANTIATE_TEST_SUITE_P(Instances, SpreadingLpPinTest,
                         ::testing::Values(
                             LpPin{"figure2", 19, 288, 4626322717216342046ull},
                             LpPin{"random3", 44, 316, 4629841154425225208ull},
                             LpPin{"random5", 53, 377, 4630584248363741358ull}),
                         [](const auto& case_info) {
                           return std::string(case_info.param.name);
                         });

}  // namespace
}  // namespace htp
