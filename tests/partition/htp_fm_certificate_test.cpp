// The certified pass stop of RefineHtpFm against passes that run to
// exhaustion. The reference below is the hierarchical FM pass as it was
// before the locked-span bound: every pass moves until its heap is empty
// (or the early-stop window fires) and then rolls back to its best prefix.
// The production refiner must return the same partition and the same
// HtpFmStats bit for bit on every input, and apply no more moves.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <queue>
#include <span>
#include <vector>

#include "core/cost.hpp"
#include "obs/obs.hpp"
#include "partition/htp_fm.hpp"
#include "partition/move_oracle.hpp"
#include "partition/parallel_refine.hpp"
#include "partition/random_partition.hpp"

namespace htp {
namespace {

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

std::uint64_t CounterTotal(const char* name) {
  for (const obs::CounterValue& c : obs::TakeSnapshot().counters)
    if (c.name == name) return c.value;
  return 0;
}

std::vector<BlockId> LeafVector(const TreePartition& tp) {
  std::vector<BlockId> leaves(tp.hypergraph().num_nodes());
  for (NodeId v = 0; v < tp.hypergraph().num_nodes(); ++v)
    leaves[v] = tp.leaf_of(v);
  return leaves;
}

// ---------------------------------------------------------------------------
// Reference: the exhaustive pass (heap order, memo, stamps, requeue bound,
// best-prefix test and rollback exactly as in the production refiner, but
// no certified stop and no telemetry). `moves_applied` counts the moves its
// passes apply, rollbacks excluded, like fm.moves_applied.

struct HeapEntry {
  double gain;
  NodeId node;
  BlockId target;
  std::uint32_t stamp;
  bool operator<(const HeapEntry& other) const {
    return gain < other.gain || (gain == other.gain && node < other.node);
  }
};

class ReferenceRefiner {
 public:
  ReferenceRefiner(TreePartition& tp, const HierarchySpec& spec)
      : tp_(tp), hg_(tp.hypergraph()), oracle_(tp, spec),
        gains_(oracle_.leaves().size()), feasible_(gains_.size()),
        stamp_(hg_.num_nodes(), 0), locked_(hg_.num_nodes(), 0),
        memo_(hg_.num_nodes()) {}

  struct Best {
    double gain;
    BlockId target;
  };
  std::optional<Best> BestMove(NodeId v) {
    Memo& memo = memo_[v];
    if (memo.epoch == epoch_) {
      if (memo.target == kInvalidBlock) return std::nullopt;
      return Best{memo.gain, memo.target};
    }
    const std::span<const BlockId> leaves = oracle_.leaves();
    oracle_.FeasibleAll(v, feasible_);
    std::optional<Best> best;
    if (std::find(feasible_.begin(), feasible_.end(), 1) != feasible_.end()) {
      oracle_.DeltaAll(v, gains_);
      for (std::size_t i = 0; i < leaves.size(); ++i) {
        if (!feasible_[i]) continue;
        const double gain = -gains_[i];
        if (!best || gain > best->gain) best = Best{gain, leaves[i]};
      }
    }
    memo = {best ? best->gain : 0.0, best ? best->target : kInvalidBlock,
            epoch_};
    return best;
  }

  void Move(NodeId v, BlockId target) {
    oracle_.Apply(v, target);
    if (++epoch_ == 0) {
      for (Memo& memo : memo_) memo.epoch = 0;
      epoch_ = 1;
    }
  }

  void MarkBoundary(std::vector<char>& boundary) const {
    std::fill(boundary.begin(), boundary.end(), 0);
    for (NetId e = 0; e < hg_.num_nets(); ++e) {
      const auto pins = hg_.pins(e);
      const BlockId first = tp_.leaf_of(pins.front());
      bool spans = false;
      for (NodeId u : pins)
        if (tp_.leaf_of(u) != first) {
          spans = true;
          break;
        }
      if (!spans) continue;
      for (NodeId u : pins) boundary[u] = 1;
    }
  }

  double Pass(std::size_t early_stop_window, bool boundary_only,
              std::size_t& moves_kept, std::uint64_t& moves_applied) {
    std::fill(locked_.begin(), locked_.end(), 0);
    std::priority_queue<HeapEntry> heap;
    auto push_best = [&](NodeId v) {
      if (auto best = BestMove(v))
        heap.push({best->gain, v, best->target, stamp_[v]});
    };
    std::vector<char> boundary;
    if (boundary_only) {
      boundary.resize(hg_.num_nodes());
      MarkBoundary(boundary);
    }
    for (NodeId v = 0; v < hg_.num_nodes(); ++v) {
      ++stamp_[v];
      if (!boundary_only || boundary[v]) push_best(v);
    }

    std::vector<std::pair<NodeId, BlockId>> log;
    double cum = 0.0, best_cum = 0.0;
    std::size_t best_len = 0, since_best = 0;
    std::vector<std::uint8_t> requeues(hg_.num_nodes(), 0);

    while (!heap.empty()) {
      const HeapEntry entry = heap.top();
      heap.pop();
      const NodeId v = entry.node;
      if (locked_[v]) continue;
      if (entry.stamp != stamp_[v]) {
        push_best(v);
        continue;
      }
      if (!oracle_.Feasible(v, entry.target)) {
        if (++requeues[v] < 32) {
          ++stamp_[v];
          push_best(v);
        }
        continue;
      }
      const double gain = -oracle_.Delta(v, entry.target);
      const BlockId from = tp_.leaf_of(v);
      Move(v, entry.target);
      locked_[v] = 1;
      log.emplace_back(v, from);
      cum += gain;
      if (cum > best_cum + 1e-12) {
        best_cum = cum;
        best_len = log.size();
        since_best = 0;
      } else if (early_stop_window > 0 && ++since_best >= early_stop_window) {
        break;
      }
      for (NetId e : hg_.nets(v)) {
        for (NodeId u : hg_.pins(e)) {
          if (locked_[u]) continue;
          ++stamp_[u];
          push_best(u);
        }
      }
    }

    for (std::size_t i = log.size(); i > best_len; --i)
      Move(log[i - 1].first, log[i - 1].second);
    moves_kept += best_len;
    moves_applied += log.size();
    return best_cum;
  }

 private:
  struct Memo {
    double gain = 0.0;
    BlockId target = kInvalidBlock;
    std::uint32_t epoch = 0;
  };

  TreePartition& tp_;
  const Hypergraph& hg_;
  HtpMoveOracle oracle_;
  std::vector<double> gains_;
  std::vector<char> feasible_;
  std::vector<std::uint32_t> stamp_;
  std::vector<char> locked_;
  std::vector<Memo> memo_;
  std::uint32_t epoch_ = 1;
};

HtpFmStats ReferenceRefine(TreePartition& tp, const HierarchySpec& spec,
                           const HtpFmParams& params,
                           std::uint64_t& moves_applied) {
  HtpFmStats stats;
  stats.initial_cost = PartitionCost(tp, spec);
  ReferenceRefiner refiner(tp, spec);
  double cost = stats.initial_cost;
  for (std::size_t pass = 0; pass < params.max_passes; ++pass) {
    ++stats.passes;
    const double gain =
        refiner.Pass(params.early_stop_window, params.boundary_only,
                     stats.moves_kept, moves_applied);
    cost -= gain;
    if (gain <= 1e-12) break;
  }
  stats.final_cost = cost;
  return stats;
}

// ---------------------------------------------------------------------------

void ExpectSameStats(const HtpFmStats& got, const HtpFmStats& want) {
  EXPECT_EQ(Bits(got.initial_cost), Bits(want.initial_cost));
  EXPECT_EQ(Bits(got.final_cost), Bits(want.final_cost))
      << got.final_cost << " vs " << want.final_cost;
  EXPECT_EQ(got.passes, want.passes);
  EXPECT_EQ(got.moves_kept, want.moves_kept);
  EXPECT_EQ(got.completed, want.completed);
}

// Runs RefineHtpFm and the reference on copies of `start`; both must end
// in the same partition with the same stats, and the production refiner
// may apply no more moves. Returns the production moves_applied.
std::uint64_t ExpectMatchesReference(const TreePartition& start,
                                     const HierarchySpec& spec,
                                     const HtpFmParams& params) {
  TreePartition want = start;
  std::uint64_t reference_applied = 0;
  const HtpFmStats want_stats =
      ReferenceRefine(want, spec, params, reference_applied);

  TreePartition got = start;
  const std::uint64_t applied_before = CounterTotal("fm.moves_applied");
  const HtpFmStats got_stats = RefineHtpFm(got, spec, params);
  const std::uint64_t applied =
      CounterTotal("fm.moves_applied") - applied_before;

  EXPECT_EQ(LeafVector(got), LeafVector(want));
  ExpectSameStats(got_stats, want_stats);
#if HTP_OBS_ENABLED
  EXPECT_LE(applied, reference_applied);
#endif
  return applied;
}

// A connected random hypergraph with fractional node sizes (0.25..3) and
// net capacities (0.5..1.5).
Hypergraph RandomSizedHypergraph(NodeId n, std::size_t extra_nets,
                                 std::uint64_t seed) {
  Rng rng(seed);
  HypergraphBuilder builder;
  for (NodeId v = 0; v < n; ++v)
    builder.add_node(rng.next_below(4) == 0
                         ? static_cast<double>(1 + rng.next_below(3))
                         : 0.25 + 2.75 * rng.next_double());
  for (NodeId v = 1; v < n; ++v)
    builder.add_net({static_cast<NodeId>(rng.next_below(v)), v},
                    0.5 + rng.next_double());
  for (std::size_t i = 0; i < extra_nets; ++i) {
    std::vector<NodeId> pins(2 + rng.next_below(5));
    for (NodeId& p : pins) p = static_cast<NodeId>(rng.next_below(n));
    builder.add_net(pins, 0.5 + rng.next_double());
  }
  return builder.build();
}

// A K-ary hierarchy of 2-4 levels (root included) with unequal level
// weights, some of them zero.
HierarchySpec RandomSpec(double total, Rng& rng) {
  const Level height = static_cast<Level>(1 + rng.next_below(3));
  std::vector<double> weights(height);
  for (double& w : weights)
    w = rng.next_below(4) == 0 ? 0.0 : 0.1 + 3.0 * rng.next_double();
  return UniformHierarchy(total, height, 2 + rng.next_below(2),
                          0.3 + 0.4 * rng.next_double(), weights);
}

class HtpFmCertificateTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(HtpFmCertificateTest, MatchesExhaustivePasses) {
  const std::uint64_t seed = GetParam();
  const Hypergraph hg =
      RandomSizedHypergraph(60 + seed % 60, 80 + seed % 50, seed);
  Rng rng(seed * 131 + 5);
  const HierarchySpec spec = RandomSpec(hg.total_size(), rng);
  SCOPED_TRACE(testing::Message() << "seed " << seed << " spec "
                                  << spec.ToString());
  const TreePartition random_start = RandomPartition(hg, spec, rng);
  // An FM-converged start: the last pass of every refine finds nothing,
  // which is where the bound saves the most.
  TreePartition converged = random_start;
  std::uint64_t ignored = 0;
  ReferenceRefine(converged, spec, {}, ignored);

  for (const bool boundary_only : {false, true}) {
    for (const std::size_t window : {std::size_t{0}, std::size_t{4}}) {
      SCOPED_TRACE(testing::Message() << "boundary_only " << boundary_only
                                      << " window " << window);
      HtpFmParams params;
      params.boundary_only = boundary_only;
      params.early_stop_window = window;
      ExpectMatchesReference(random_start, spec, params);
      ExpectMatchesReference(converged, spec, params);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HtpFmCertificateTest,
                         ::testing::Range<std::uint64_t>(1, 41));

// On an FM-converged partition every pass of the reference moves every
// movable node and keeps none of the moves; the bound must cut that pass
// short, not merely match it.
TEST(HtpFmCertificate, ConvergedPassStopsEarly) {
  const Hypergraph hg = RandomSizedHypergraph(400, 500, 77);
  const HierarchySpec spec = UniformHierarchy(hg.total_size(), 3, 2, 0.4,
                                              {1.0, 1.0, 1.0});
  Rng rng(78);
  TreePartition converged = RandomPartition(hg, spec, rng);
  std::uint64_t ignored = 0;
  ReferenceRefine(converged, spec, {}, ignored);

  TreePartition want = converged;
  std::uint64_t reference_applied = 0;
  ReferenceRefine(want, spec, {}, reference_applied);
  ASSERT_GT(reference_applied, 0u);

  const std::uint64_t stops_before = CounterTotal("fm.certified_stops");
  const std::uint64_t applied = ExpectMatchesReference(converged, spec, {});
#if HTP_OBS_ENABLED
  EXPECT_EQ(CounterTotal("fm.certified_stops") - stops_before, 1u);
  EXPECT_LT(applied, reference_applied);
#else
  (void)stops_before;
  (void)applied;
#endif
}

// FNV-1a over the leaf of every node, in node order.
std::uint64_t LeafHash(const TreePartition& tp) {
  std::uint64_t h = 1469598103934665603ull;
  for (NodeId v = 0; v < tp.hypergraph().num_nodes(); ++v) {
    h ^= tp.leaf_of(v);
    h *= 1099511628211ull;
  }
  return h;
}

// RefineHtpFmBlocks composes RefineHtpFm runs (one per root-child block,
// then a global boundary pass), so it inherits the bit-identity. Its
// results are pinned to the values of the exhaustive passes, at every
// worker count; moves_applied must fall below the exhaustive count.
struct BlocksPin {
  std::uint64_t leaf_hash;
  std::uint64_t initial_cost_bits;
  std::uint64_t final_cost_bits;
  std::size_t passes;
  std::size_t moves_kept;
  std::uint64_t exhaustive_moves_applied;
};

void ExpectBlocksPin(bool converged, const BlocksPin& pin) {
  const Hypergraph hg = RandomSizedHypergraph(600, 700, 91);
  const HierarchySpec spec = UniformHierarchy(hg.total_size(), 3, 2, 0.4,
                                              {1.3, 0.0, 2.1});
  Rng rng(92);
  TreePartition start = RandomPartition(hg, spec, rng);
  if (converged) RefineHtpFmBlocks(start, spec, {}, 1);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    TreePartition tp = start;
    const std::uint64_t applied_before = CounterTotal("fm.moves_applied");
    const HtpFmStats stats = RefineHtpFmBlocks(tp, spec, {}, threads);
    const std::uint64_t applied =
        CounterTotal("fm.moves_applied") - applied_before;
    RequireValidPartition(tp, spec);
    EXPECT_EQ(LeafHash(tp), pin.leaf_hash);
    EXPECT_EQ(Bits(stats.initial_cost), pin.initial_cost_bits);
    EXPECT_EQ(Bits(stats.final_cost), pin.final_cost_bits);
    EXPECT_EQ(stats.passes, pin.passes);
    EXPECT_EQ(stats.moves_kept, pin.moves_kept);
#if HTP_OBS_ENABLED
    EXPECT_LT(applied, pin.exhaustive_moves_applied);
#else
    (void)applied;
#endif
  }
}

TEST(HtpFmCertificate, BlocksFromRandomStart) {
  ExpectBlocksPin(false, {0x5cc50bbc31807e68ull, 0x40bf0424da2c938dull,
                          0x40b106cceeac8971ull, 24, 1497, 9012});
}

TEST(HtpFmCertificate, BlocksFromConvergedStart) {
  ExpectBlocksPin(true, {0xf9bd84296f3e7f1bull, 0x40b106cceeac8975ull,
                         0x40b0f2ab2dd6e98eull, 11, 55, 3627});
}

// The margin is needed. Two leaves, net capacities just above 2^17: after
// the first pass, every pass of the exhaustive refiner moves all six nodes
// to the other leaf. That relabels the partition, so its exact gain is 0,
// but the running sum of the six gains reads 1.16e-10 > 1e-12 and the pass
// accepts the full flip as its best prefix, until max_passes runs out. One
// move before the flip completes, the locked pins already cost exactly C0,
// so a bound without a margin would stop there and keep the empty prefix.
TEST(HtpFmCertificate, MarginCoversRoundingOfTheRunningSum) {
  constexpr double kBase = 131072.0;
  const std::vector<std::pair<std::vector<NodeId>, double>> nets = {
      {{0, 1}, 0.0},       {{0, 2}, 0.7},    {{0, 3}, 0.5},
      {{3, 4}, 0.3},       {{2, 5}, 0.5},    {{1, 2, 5}, 0.3},
      {{2, 5}, 0.2},       {{1, 5}, 0.7},    {{4, 5}, 0.4},
      {{1, 2, 3, 4}, 0.7}, {{0, 3, 5}, 0.1}, {{0, 2}, 0.6},
      {{1, 2, 4}, 0.7}};
  HypergraphBuilder builder;
  for (int v = 0; v < 6; ++v) builder.add_node();
  for (const auto& [pins, frac] : nets) builder.add_net(pins, kBase + frac);
  const Hypergraph hg = builder.build();
  const HierarchySpec spec = UniformHierarchy(hg.total_size(), 1, 2, 0.5,
                                              {0.9});
  TreePartition start(hg, 1);
  const BlockId a = start.AddChild(TreePartition::kRoot);
  const BlockId b = start.AddChild(TreePartition::kRoot);
  for (const NodeId v : {0u, 1u, 5u}) start.AssignNode(v, a);
  for (const NodeId v : {2u, 3u, 4u}) start.AssignNode(v, b);

  TreePartition flipped = start;
  std::uint64_t ignored = 0;
  const HtpFmStats reference = ReferenceRefine(flipped, spec, {}, ignored);
  // The premise: one real move, then eleven whole-partition flips.
  ASSERT_EQ(reference.passes, HtpFmParams{}.max_passes);
  ASSERT_EQ(reference.moves_kept, 1 + 11 * hg.num_nodes());
  ExpectMatchesReference(start, spec, {});
}
}  // namespace
}  // namespace htp
