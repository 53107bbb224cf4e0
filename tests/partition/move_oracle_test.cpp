// HtpMoveOracle::DeltaAll against the single-target reference Delta: the
// all-target sweep must hand every leaf the exact same double, bit for bit,
// on random partitions of 2-4-level hierarchies, on trees with single-child
// chains, under weighted nets and levels, and after the span tables have
// been driven through a sequence of Apply calls.
#include "partition/move_oracle.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "partition/random_partition.hpp"
#include "test_util.hpp"

namespace htp {
namespace {

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Every node, every leaf: DeltaAll(v)[i] == Delta(v, leaves[i]) exactly,
// and FeasibleAll(v)[i] == Feasible(v, leaves[i]).
void ExpectSweepMatchesDelta(const HtpMoveOracle& oracle) {
  const std::span<const BlockId> leaves = oracle.leaves();
  std::vector<double> out(leaves.size());
  std::vector<char> feasible(leaves.size());
  const Hypergraph& hg = oracle.partition().hypergraph();
  for (NodeId v = 0; v < hg.num_nodes(); ++v) {
    oracle.DeltaAll(v, out);
    oracle.FeasibleAll(v, feasible);
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      ASSERT_EQ(Bits(out[i]), Bits(oracle.Delta(v, leaves[i])))
          << "node " << v << " leaf " << leaves[i] << ": sweep " << out[i]
          << " vs Delta " << oracle.Delta(v, leaves[i]);
      ASSERT_EQ(feasible[i] != 0, oracle.Feasible(v, leaves[i]))
          << "node " << v << " leaf " << leaves[i];
    }
  }
}

// Random net capacities in {0.5, 1, 1.5, ..., 3} over a connected graph.
Hypergraph WeightedRandomHypergraph(NodeId n, std::size_t nets,
                                    std::uint64_t seed) {
  const Hypergraph base =
      testutil::RandomConnectedHypergraph(n, nets, 6, seed);
  Rng rng(seed ^ 0xC0FFEE);
  HypergraphBuilder builder;
  for (NodeId v = 0; v < base.num_nodes(); ++v) builder.add_node(1.0);
  for (NetId e = 0; e < base.num_nets(); ++e)
    builder.add_net(base.pins(e), 0.5 * static_cast<double>(
                                           1 + rng.next_below(6)));
  return builder.build();
}

class MoveOracleSweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MoveOracleSweepTest, RandomPartitionsMatchDeltaBitForBit) {
  const std::uint64_t seed = GetParam();
  for (Level height = 2; height <= 4; ++height) {
    SCOPED_TRACE("height " + std::to_string(height));
    const Hypergraph hg = testutil::RandomConnectedHypergraph(
        60 + seed % 40, 90, 2 + seed % 5, seed);
    const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), height,
                                                   0.25);
    Rng rng(seed * 7 + height);
    TreePartition tp = RandomPartition(hg, spec, rng);
    const HtpMoveOracle oracle(tp, spec);
    ExpectSweepMatchesDelta(oracle);
  }
}

TEST_P(MoveOracleSweepTest, WeightedNetsAndLevelsMatchDeltaBitForBit) {
  const std::uint64_t seed = GetParam();
  const Hypergraph hg = WeightedRandomHypergraph(80, 120, seed);
  // Ternary tree, uneven level weights: terms no longer come in integers.
  const HierarchySpec spec = UniformHierarchy(hg.total_size(), 3, 3, 0.3,
                                              {1.0, 0.3, 2.7});
  Rng rng(seed + 99);
  TreePartition tp = RandomPartition(hg, spec, rng);
  const HtpMoveOracle oracle(tp, spec);
  ExpectSweepMatchesDelta(oracle);
}

TEST_P(MoveOracleSweepTest, ZeroWeightLevelMatchesDeltaBitForBit) {
  // A zero level weight turns that level's terms into signed zeros; the
  // sweep's sums must still carry Delta's exact bits.
  const std::uint64_t seed = GetParam();
  const Hypergraph hg = WeightedRandomHypergraph(60, 90, seed + 11);
  const HierarchySpec spec = UniformHierarchy(hg.total_size(), 3, 2, 0.4,
                                              {0.0, 1.25, 0.0});
  Rng rng(seed + 3);
  TreePartition tp = RandomPartition(hg, spec, rng);
  const HtpMoveOracle oracle(tp, spec);
  ExpectSweepMatchesDelta(oracle);
}

TEST_P(MoveOracleSweepTest, MatchesDeltaAfterApplySequence) {
  const std::uint64_t seed = GetParam();
  const Hypergraph hg = WeightedRandomHypergraph(70, 100, seed + 5);
  const HierarchySpec spec = UniformHierarchy(hg.total_size(), 4, 2, 0.5,
                                              {1.0, 1.5, 0.5, 3.0});
  Rng rng(seed);
  TreePartition tp = RandomPartition(hg, spec, rng);
  HtpMoveOracle oracle(tp, spec);
  const std::span<const BlockId> leaves = oracle.leaves();
  for (int step = 0; step < 200; ++step) {
    const NodeId v = static_cast<NodeId>(rng.next_below(hg.num_nodes()));
    oracle.Apply(v, leaves[rng.next_below(leaves.size())]);
  }
  ExpectSweepMatchesDelta(oracle);

  // The incrementally maintained tables agree with freshly built ones.
  TreePartition copy = tp;
  const HtpMoveOracle fresh(copy, spec);
  std::vector<double> a(leaves.size()), b(leaves.size());
  for (NodeId v = 0; v < hg.num_nodes(); ++v) {
    oracle.DeltaAll(v, a);
    fresh.DeltaAll(v, b);
    for (std::size_t i = 0; i < leaves.size(); ++i)
      ASSERT_EQ(Bits(a[i]), Bits(b[i])) << "node " << v << " leaf " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MoveOracleSweepTest,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(MoveOracleSweep, SingleChildChainsMatchDeltaBitForBit) {
  // Root (level 3) with three subtrees of different shapes:
  //   a: a full binary subtree,
  //   b: a chain 2 -> 1 -> 0 (one leaf reached through single children),
  //   c: level 2 -> level 1 with one child -> two leaves.
  const Hypergraph hg = WeightedRandomHypergraph(40, 60, 17);
  const HierarchySpec spec(
      {{40.0, 4, 1.0}, {40.0, 4, 2.0}, {40.0, 4, 0.5}, {40.0, 4, 1.0}});
  TreePartition tp(hg, 3);
  const BlockId a = tp.AddChild(TreePartition::kRoot);
  const BlockId b = tp.AddChild(TreePartition::kRoot);
  const BlockId c = tp.AddChild(TreePartition::kRoot);
  std::vector<BlockId> leaves;
  for (int k = 0; k < 2; ++k) {
    const BlockId mid = tp.AddChild(a);
    leaves.push_back(tp.AddChild(mid));
    leaves.push_back(tp.AddChild(mid));
  }
  leaves.push_back(tp.AddChild(tp.AddChild(b)));
  const BlockId c_mid = tp.AddChild(c);
  leaves.push_back(tp.AddChild(c_mid));
  leaves.push_back(tp.AddChild(c_mid));
  for (NodeId v = 0; v < hg.num_nodes(); ++v)
    tp.AssignNode(v, leaves[v % leaves.size()]);

  HtpMoveOracle oracle(tp, spec);
  ASSERT_EQ(oracle.leaves().size(), leaves.size());
  ExpectSweepMatchesDelta(oracle);
  Rng rng(3);
  for (int step = 0; step < 100; ++step) {
    const NodeId v = static_cast<NodeId>(rng.next_below(hg.num_nodes()));
    oracle.Apply(v, leaves[rng.next_below(leaves.size())]);
  }
  ExpectSweepMatchesDelta(oracle);
}

TEST(MoveOracleSweep, CurrentLeafGetsZero) {
  const Hypergraph hg = testutil::RandomConnectedHypergraph(30, 40, 4, 2);
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 3, 0.25);
  Rng rng(2);
  TreePartition tp = RandomPartition(hg, spec, rng);
  const HtpMoveOracle oracle(tp, spec);
  const std::span<const BlockId> leaves = oracle.leaves();
  std::vector<double> out(leaves.size(), 1.0);
  for (NodeId v = 0; v < hg.num_nodes(); ++v) {
    oracle.DeltaAll(v, out);
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      if (leaves[i] != tp.leaf_of(v)) continue;
      EXPECT_EQ(Bits(out[i]), Bits(0.0));
    }
  }
}

}  // namespace
}  // namespace htp
