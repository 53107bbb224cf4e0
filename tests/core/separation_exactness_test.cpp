// Exactness of the early-stopping separation oracle for family (5).
//
// FindViolationFrom and ViolationScanner stop a growth as soon as a
// concave-gap certificate proves that no later prefix S(v,k) can violate
// (5). These tests hold that stopping rule to a reference oracle with no
// early exit at all: it grows every source over the whole reachable graph
// with the Hypergraph reference walk (graph/reference_dijkstra.hpp),
// evaluates every prefix, and reports the first violation. Verdicts, the
// first violating prefix (k, size, lhs, rhs — compared bit for bit) and the
// violating tree's nets must match on every source. The certificate's proof
// rests on g being convex, which is checked as a property of its own, and
// end-to-end Algorithm-2 runs are pinned to hashes of their metric bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "core/flow_injection.hpp"
#include "core/spreading_metric.hpp"
#include "graph/reference_dijkstra.hpp"
#include "multilevel/coarsen.hpp"
#include "netlist/generators.hpp"
#include "netlist/rng.hpp"
#include "obs/obs.hpp"
#include "test_util.hpp"

namespace htp {
namespace {

// The first violating prefix as the reference oracle sees it.
struct ReferenceViolation {
  std::size_t tree_nodes = 0;
  double tree_size = 0.0;
  double lhs = 0.0;
  double rhs = 0.0;
  std::vector<NetId> nets;  // sorted distinct parent nets of S(v,k)
};

// Grows `source` over the whole reachable graph (the visitor never stops
// it) and checks every prefix with the test of (5). The running sums are
// the ones the oracle under test sees, so lhs/rhs agree bit for bit.
std::optional<ReferenceViolation> ReferenceFirstViolation(
    const Hypergraph& hg, const HierarchySpec& spec,
    const SpreadingMetric& metric, NodeId source, double tolerance) {
  std::optional<ReferenceViolation> first;
  const ShortestPathTree full = ReferenceGrow(
      hg, source, metric, [&](const GrowState& state) {
        const double rhs = spec.g(state.tree_size);
        if (!first && state.weighted_dist + tolerance < rhs)
          first = ReferenceViolation{state.tree_nodes, state.tree_size,
                                     state.weighted_dist, rhs, {}};
        return GrowAction::kContinue;
      });
  if (first) {
    // Parents are fixed when a node settles, so the first k nodes of the
    // full growth carry exactly the parent nets of the truncated S(v,k).
    for (std::size_t i = 1; i < first->tree_nodes; ++i)
      first->nets.push_back(full.parent[full.order[i]].net);
    std::sort(first->nets.begin(), first->nets.end());
    first->nets.erase(std::unique(first->nets.begin(), first->nets.end()),
                      first->nets.end());
  }
  return first;
}

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Asserts that both oracles agree with the reference on every source, and
// that a whole-window scan commits the first reference violation.
void ExpectOraclesMatchReference(const Hypergraph& hg,
                                 const HierarchySpec& spec,
                                 const SpreadingMetric& metric,
                                 double tolerance) {
  std::vector<NodeId> all(hg.num_nodes());
  for (NodeId v = 0; v < hg.num_nodes(); ++v) all[v] = v;
  ViolationScanner scanner(hg, spec, 1);
  const CsrView csr(hg);
  std::optional<NodeId> first_violating_source;
  for (NodeId v = 0; v < hg.num_nodes(); ++v) {
    SCOPED_TRACE(testing::Message() << "source " << v);
    const auto expect = ReferenceFirstViolation(hg, spec, metric, v, tolerance);
    const auto found = FindViolationFrom(csr, spec, metric, v, tolerance);
    const std::span<const NodeId> one(&all[v], 1);
    const auto hit = scanner.FindFirstViolation(one, 0, metric, tolerance);
    ASSERT_EQ(found.has_value(), expect.has_value());
    ASSERT_EQ(hit.has_value(), expect.has_value());
    if (!expect) continue;
    if (!first_violating_source) first_violating_source = v;
    EXPECT_EQ(found->tree_nodes, expect->tree_nodes);
    EXPECT_EQ(Bits(found->tree_size), Bits(expect->tree_size));
    EXPECT_EQ(Bits(found->lhs), Bits(expect->lhs));
    EXPECT_EQ(Bits(found->rhs), Bits(expect->rhs));
    EXPECT_EQ(TreeNets(found->tree), expect->nets);
    EXPECT_EQ(hit->source, v);
    EXPECT_EQ(hit->tree_nodes, expect->tree_nodes);
    EXPECT_EQ(Bits(hit->tree_size), Bits(expect->tree_size));
    EXPECT_EQ(Bits(hit->lhs), Bits(expect->lhs));
    EXPECT_EQ(Bits(hit->rhs), Bits(expect->rhs));
    EXPECT_TRUE(std::equal(hit->tree_nets.begin(), hit->tree_nets.end(),
                           expect->nets.begin(), expect->nets.end()));
  }
  const auto sweep = scanner.FindFirstViolation(all, 0, metric, tolerance);
  ASSERT_EQ(sweep.has_value(), first_violating_source.has_value());
  if (sweep) {
    EXPECT_EQ(sweep->source, *first_violating_source);
  }
}

// A connected random hypergraph with non-unit node sizes: mostly
// fractional, some integral, spread over a 12x range.
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
    std::vector<NodeId> pins(2 + rng.next_below(4));
    for (NodeId& p : pins) p = static_cast<NodeId>(rng.next_below(n));
    builder.add_net(pins, 0.5 + rng.next_double());
  }
  return builder.build();
}

// A valid hierarchy of the given height (1..4) over `total` size: random
// nondecreasing capacities below a root that holds everything, random
// branch bounds, and weights that are unequal and sometimes zero.
HierarchySpec RandomSpec(double total, Level height, Rng& rng) {
  std::vector<LevelSpec> levels(height + 1);
  double cap = total * (0.05 + 0.2 * rng.next_double());
  for (Level l = 0; l < height; ++l) {
    levels[l].capacity = cap;
    levels[l].max_branches = 2 + rng.next_below(3);
    levels[l].weight =
        rng.next_below(4) == 0 ? 0.0 : 0.1 + 3.0 * rng.next_double();
    cap = std::min(total, cap * (1.0 + 2.0 * rng.next_double()));
  }
  levels[height] = {total, 2 + rng.next_below(3), 1.0};
  return HierarchySpec(std::move(levels));
}

class SeparationExactnessTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SeparationExactnessTest, EarlyStopMatchesFullGrowthOracle) {
  const std::uint64_t seed = GetParam();
  const Hypergraph hg =
      RandomSizedHypergraph(40 + seed % 25, 30 + seed % 30, seed);
  Rng rng(seed * 31 + 7);
  const Level height = static_cast<Level>(1 + seed % 4);
  const HierarchySpec spec = RandomSpec(hg.total_size(), height, rng);
  SCOPED_TRACE(testing::Message() << "seed " << seed << " spec "
                                  << spec.ToString());

  // The metric at three points of Algorithm 2: the epsilon start (no round
  // run yet; nearly every source violates), mid-convergence (one round),
  // and converged (every source clean, where the certificate stops the
  // most growths).
  FlowInjectionParams params;
  params.seed = seed;
  SpreadingMetric metric;
  for (std::size_t rounds : {std::size_t{0}, std::size_t{1},
                             params.max_rounds}) {
    SCOPED_TRACE(testing::Message() << "max_rounds " << rounds);
    params.max_rounds = rounds;
    metric = ComputeSpreadingMetric(hg, spec, params).metric;
    ExpectOraclesMatchReference(hg, spec, metric, params.tolerance);
  }
  // The converged metric is clean at the default tolerance; with none, the
  // prefixes it left within that slack become violations to be found.
  ExpectOraclesMatchReference(hg, spec, metric, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeparationExactnessTest,
                         ::testing::Range<std::uint64_t>(1, 25));

// A rounding tie the certificate's margin exists for. A star of seven unit
// leaves at length 0.1 around a unit source: after the first leaf settles,
// the certificate's lower bound on the full prefix is 0.1 + 6 * 0.1 =
// 0.7000000000000001 in doubles, but the growth's running sum over all
// seven leaves reaches only 0.7 (0.69999999999999996). With g(s(V)) set to
// exactly the bound and no tolerance, the full prefix violates (5) in
// floating point, so the oracle must not stop early.
TEST(SeparationExactness, MarginCoversRoundingOfTheRunningSum) {
  constexpr int kLeaves = 7;
  const double bound = 0.1 + (kLeaves - 1) * 0.1;
  double running = 0.0;
  for (int i = 0; i < kLeaves; ++i) running += 0.1;
  ASSERT_LT(running, bound);  // the tie this test is built on

  HypergraphBuilder builder;
  for (int v = 0; v <= kLeaves; ++v) builder.add_node();
  for (NodeId leaf = 1; leaf <= kLeaves; ++leaf) builder.add_net({0u, leaf});
  const Hypergraph hg = builder.build();
  // g(x) = 0 up to x = 7 and g(8) = 2 * (8 - 7) * (bound / 2) = bound.
  const HierarchySpec spec(
      {{double{kLeaves}, 2, bound / 2.0}, {double{kLeaves + 1}, 2, 1.0}});
  ASSERT_EQ(spec.g(hg.total_size()), bound);
  const SpreadingMetric metric(hg.num_nets(), 0.1);

  const auto found = FindViolationFrom(CsrView(hg), spec, metric, 0, 0.0);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->tree_nodes, std::size_t{kLeaves + 1});
  EXPECT_EQ(Bits(found->lhs), Bits(running));
  EXPECT_EQ(Bits(found->rhs), Bits(bound));
  ExpectOraclesMatchReference(hg, spec, metric, 0.0);
}

// The certificate's proof needs g convex: piecewise linear with slopes that
// never decrease. Checked on random valid specs by finite differences over
// every segment between consecutive breakpoints, plus midpoint convexity on
// random pairs.
TEST(SeparationExactness, GIsConvexOnRandomValidSpecs) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const double total = 1.0 + 500.0 * rng.next_double();
    const HierarchySpec spec =
        RandomSpec(total, static_cast<Level>(1 + trial % 4), rng);
    SCOPED_TRACE(spec.ToString());
    std::vector<double> knots{0.0};
    for (const LevelSpec& level : spec.levels())
      knots.push_back(level.capacity);
    knots.push_back(2.0 * total);
    std::sort(knots.begin(), knots.end());
    const double tol = 1e-9 * (1.0 + spec.g(2.0 * total));
    double last_slope = 0.0;
    for (std::size_t i = 0; i + 1 < knots.size(); ++i) {
      const double a = knots[i], b = knots[i + 1];
      if (b - a < 1e-9 * total) continue;
      const double slope = (spec.g(b) - spec.g(a)) / (b - a);
      EXPECT_GE(slope, last_slope - tol / (b - a)) << "segment " << i;
      last_slope = slope;
    }
    for (int k = 0; k < 50; ++k) {
      const double x = 2.0 * total * rng.next_double();
      const double y = 2.0 * total * rng.next_double();
      EXPECT_LE(spec.g(0.5 * (x + y)), 0.5 * (spec.g(x) + spec.g(y)) + tol);
    }
  }
}

// End-to-end pins of Algorithm 2: a hash of the metric's bits plus the
// injection and round counts, recorded before the certificate existed. The
// early stop must leave them unchanged while the Dijkstra work falls below
// what the same runs popped then.
struct MetricPin {
  const char* name;
  std::uint64_t metric_hash;
  std::size_t injections;
  std::size_t rounds;
  std::uint64_t pops_before_certificate;
};

void PrintTo(const MetricPin& pin, std::ostream* os) { *os << pin.name; }

Hypergraph PinnedInstance(const std::string& name) {
  if (name != "rent_coarse") return MakeIscas85Like(name, 1997);
  RentCircuitParams circuit;
  circuit.num_gates = 10000;
  circuit.num_primary_inputs = 400;
  circuit.seed = 7;
  const Hypergraph fine = RentCircuit(circuit);
  // Supernodes of at most 32 gates, as the multilevel driver caps them,
  // so the coarse graph keeps several hundred nodes of unequal size.
  CoarsenParams coarsen;
  coarsen.max_cluster_size = 32.0;
  std::vector<CoarsenLevel> levels = CoarsenToThreshold(fine, 800, coarsen);
  return std::move(levels.back().coarse);
}

class SpreadingMetricPinTest : public ::testing::TestWithParam<MetricPin> {};

TEST_P(SpreadingMetricPinTest, MetricBitsPinnedAndWorkBelowFullGrowth) {
  const MetricPin pin = GetParam();
  const Hypergraph hg = PinnedInstance(pin.name);
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size());
  FlowInjectionParams params;
  params.seed = 1997;
  obs::ResetAll();
  const FlowInjectionResult result = ComputeSpreadingMetric(hg, spec, params);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.injections, pin.injections);
  EXPECT_EQ(result.rounds, pin.rounds);
  EXPECT_EQ(testutil::HashBits(result.metric), pin.metric_hash);
#if HTP_OBS_ENABLED
  std::uint64_t pops = 0;
  for (const obs::CounterValue& c : obs::TakeSnapshot().counters)
    if (c.name == "dijkstra.pops") pops = c.value;
  RecordProperty("dijkstra_pops", std::to_string(pops));
  EXPECT_GT(pops, 0u);
  EXPECT_LT(pops, pin.pops_before_certificate);
#endif
}

INSTANTIATE_TEST_SUITE_P(
    Instances, SpreadingMetricPinTest,
    ::testing::Values(
        MetricPin{"c1355", 4869099817529937843ull, 151, 3, 267267},
        MetricPin{"c2670", 3269590070083348001ull, 91, 2, 1183595},
        MetricPin{"rent_coarse", 4810959459939718655ull, 147, 2, 212800}));

}  // namespace
}  // namespace htp
