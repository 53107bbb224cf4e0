// Output pins for the hierarchical FM refiner: exact leaf assignments and
// statistics of RefineHtpFm (full and boundary-seeded) and of the
// multilevel pipeline on a 5k-gate Rent circuit. Like the golden FLOW
// costs these are change detectors: the refiner is RNG-free and its move
// order is fixed by the heap's tie-breaks, so any edit to the gain
// arithmetic, the neighborhood refresh or the push sequence shows up here.
// Speed work on the refiner must leave every value unchanged; the values
// were recorded with the per-leaf Delta refiner that predates the
// all-target gain sweep. The one exception is fm.moves_applied, a work
// count: it is pinned exactly and also held strictly below the count of the
// exhaustive passes that predate the certified pass stop.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "multilevel/multilevel_flow.hpp"
#include "netlist/generators.hpp"
#include "obs/obs.hpp"
#include "partition/htp_fm.hpp"
#include "partition/random_partition.hpp"

namespace htp {
namespace {

Hypergraph Rent5k() {
  RentCircuitParams params;
  params.num_gates = 5000;
  params.num_primary_inputs = 250;
  params.seed = 7;
  return RentCircuit(params);
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

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

std::uint64_t CounterTotal(const char* name) {
  for (const obs::CounterValue& c : obs::TakeSnapshot().counters)
    if (c.name == name) return c.value;
  return 0;
}

struct FmPin {
  std::uint64_t leaf_hash;
  std::uint64_t initial_cost_bits;
  std::uint64_t final_cost_bits;
  std::size_t passes;
  std::size_t moves_kept;
  std::uint64_t moves_applied;  ///< fm.moves_applied, rollbacks included
  /// fm.moves_applied of passes run to exhaustion (no certified stop)
  std::uint64_t exhaustive_moves_applied;
};

void ExpectFmPin(bool boundary_only, const FmPin& pin) {
  const Hypergraph hg = Rent5k();
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 4, 0.25);
  Rng rng(11);
  TreePartition tp = RandomPartition(hg, spec, rng);
  HtpFmParams params;
  params.boundary_only = boundary_only;
  const std::uint64_t applied_before = CounterTotal("fm.moves_applied");
  const HtpFmStats stats = RefineHtpFm(tp, spec, params);
  RequireValidPartition(tp, spec);
  EXPECT_EQ(LeafHash(tp), pin.leaf_hash);
  EXPECT_EQ(Bits(stats.initial_cost), pin.initial_cost_bits);
  EXPECT_EQ(Bits(stats.final_cost), pin.final_cost_bits);
  EXPECT_EQ(stats.passes, pin.passes);
  EXPECT_EQ(stats.moves_kept, pin.moves_kept);
  EXPECT_TRUE(stats.completed);
#if HTP_OBS_ENABLED
  const std::uint64_t applied =
      CounterTotal("fm.moves_applied") - applied_before;
  EXPECT_EQ(applied, pin.moves_applied);
  EXPECT_LT(applied, pin.exhaustive_moves_applied);
#else
  (void)applied_before;
#endif
}

TEST(HtpFmPin, FullSeedingOnRent5k) {
  ExpectFmPin(false, {0xca7a615858955c6bull, 0x40e20d0000000000ull,
                      0x40b1f40000000000ull, 8, 9213, 35345, 40000});
}

TEST(HtpFmPin, BoundarySeedingOnRent5k) {
  ExpectFmPin(true, {0xc4533dfcb80e71e4ull, 0x40e20d0000000000ull,
                     0x40b0980000000000ull, 11, 10574, 47747, 55000});
}

TEST(HtpFmPin, MultilevelFlowOnRent5k) {
  const Hypergraph hg = Rent5k();
  const HierarchySpec spec = UniformHierarchy(hg.total_size(), 4, 2, 0.10,
                                              std::vector<double>(4, 1.0));
  MultilevelParams params;
  params.flow.iterations = 1;
  params.flow.seed = 23;
  params.coarsen_threshold = 400;
  const MultilevelResult result = RunMultilevelFlow(hg, spec, params);
  RequireValidPartition(result.partition, spec);
  // One hash over the partition and every level's refinement record.
  std::uint64_t h = LeafHash(result.partition);
  for (const MultilevelLevelStats& s : result.level_stats) {
    h = (h ^ Bits(s.refined_cost)) * 1099511628211ull;
    h = (h ^ s.fm_passes) * 1099511628211ull;
  }
  EXPECT_EQ(h, 0x6d1f95e3abe0c2beull);
  EXPECT_EQ(Bits(result.cost), 0x4055000000000000ull);  // 84.0
}

}  // namespace
}  // namespace htp
