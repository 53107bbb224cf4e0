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
        memo_(hg_.num_nodes()) {
    // The acceptance margin of the production pass, same formula.
    const Level levels = tp.root_level();
    double weight_sum = 0.0;
    for (Level l = 0; l < levels; ++l) weight_sum += spec.weight(l);
    double pin_capacity = 0.0;
    for (NetId e = 0; e < hg_.num_nets(); ++e)
      pin_capacity +=
          hg_.net_capacity(e) * static_cast<double>(hg_.net_degree(e));
    term_bound_ = 2.0 * weight_sum * pin_capacity;
    rounding_ops_ = static_cast<double>(
        (hg_.num_pins() + hg_.num_nets()) * levels + hg_.num_nodes() + 2);
  }

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

  double Cost() const { return oracle_.Cost(); }

  double Pass(std::size_t early_stop_window, bool boundary_only,
              std::size_t& moves_kept, std::uint64_t& moves_applied) {
    std::fill(locked_.begin(), locked_.end(), 0);
    const double margin = 0x1p-51 * rounding_ops_ * (Cost() + term_bound_);
    const double accept = std::max(margin, 1e-12);
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
      if (cum > best_cum + accept) {
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
  double term_bound_ = 0.0;
  double rounding_ops_ = 0.0;
};

HtpFmStats ReferenceRefine(TreePartition& tp, const HierarchySpec& spec,
                           const HtpFmParams& params,
                           std::uint64_t& moves_applied) {
  HtpFmStats stats;
  ReferenceRefiner refiner(tp, spec);
  stats.initial_cost = refiner.Cost();
  for (std::size_t pass = 0; pass < params.max_passes; ++pass) {
    ++stats.passes;
    const double gain =
        refiner.Pass(params.early_stop_window, params.boundary_only,
                     stats.moves_kept, moves_applied);
    if (gain == 0.0) break;
  }
  stats.final_cost = refiner.Cost();
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

// The margin is needed. Two leaves, net capacities just above 2^17: after
// one real move, moving all six nodes to the other leaf relabels the
// partition, so its exact gain is 0, but the running sum of the six gains
// reads 1.16e-10. With a bare 1e-12 acceptance tolerance every pass kept
// that flip until max_passes ran out, and final_cost drifted by the
// phantom gains. The acceptance margin rejects the flip, so the second
// pass keeps nothing and ends the run. One move before the flip completes,
// the locked pins already cost exactly C0, so a stop bound without a
// margin would also diverge from the exhaustive pass there.
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

  TreePartition tp = start;
  const HtpFmStats stats = RefineHtpFm(tp, spec, {});
  EXPECT_EQ(stats.passes, 2u);
  EXPECT_EQ(stats.moves_kept, 1u);
  EXPECT_EQ(Bits(stats.final_cost), Bits(PartitionCost(tp, spec)));
  ExpectMatchesReference(start, spec, {});
}
}  // namespace
}  // namespace htp
