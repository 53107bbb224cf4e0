// Shared incremental move evaluation for HTP refiners.
//
// Both the generalized FM improver and the simulated-annealing refiner
// need the same three primitives over a TreePartition:
//   * Delta(v, leaf)    — exact Equation-(1) cost change of moving v,
//   * Feasible(v, leaf) — capacity feasibility along the target's chain,
//   * Apply(v, leaf)    — perform the move keeping span tables in sync.
// The FM refiner also needs the cost change to every leaf at once; DeltaAll
// computes it in one sweep over nets(v) x levels, bit-identical to calling
// Delta once per leaf.
//
// The oracle maintains per-net-per-level pin counts per block in one flat
// arena: each (net, level) owns a fixed region of min(degree, blocks at
// that level) (block, count) entries, so Delta costs O(deg(v) * LCA-level)
// and no table ever allocates after construction. Leaf ancestors come from
// a precomputed leaf x level table instead of parent-pointer walks.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/cost.hpp"
#include "core/tree_partition.hpp"

namespace htp {

/// Incremental span bookkeeping + move evaluation over one partition.
/// The partition must be fully assigned at construction and may be mutated
/// ONLY through Apply() while the oracle is alive. Not safe for concurrent
/// use: DeltaAll writes oracle-owned scratch.
class HtpMoveOracle {
 public:
  HtpMoveOracle(TreePartition& tp, const HierarchySpec& spec);

  /// Exact change of cost(P) if `v` moved to `target` (0 when target is
  /// v's current leaf).
  double Delta(NodeId v, BlockId target) const;

  /// All-target gain sweep: out[i] = Delta(v, leaves()[i]) for every leaf,
  /// bit for bit — each leaf receives the same terms in the same order
  /// (nets of v in order, levels ascending). `out.size()` must equal
  /// leaves().size().
  void DeltaAll(NodeId v, std::span<double> out) const;

  /// True when every ancestor of `target` below the LCA has room for v.
  bool Feasible(NodeId v, BlockId target) const;

  /// out[i] = Feasible(v, leaves()[i]) for every leaf. `out.size()` must
  /// equal leaves().size().
  void FeasibleAll(NodeId v, std::span<char> out) const;

  /// Moves v to `target`, updating the partition and the span tables.
  void Apply(NodeId v, BlockId target);

  /// Equation-(1) cost of the current partition, read off the span tables
  /// in O(nets * levels): the sum over (net, level) of
  /// w_l * c(e) * SpanValue(f).
  double Cost() const;

  /// Index of leaf block `q` in leaves().
  std::size_t LeafIndex(BlockId q) const;

  /// Level-`l` ancestor of leaves()[i], for `l` below the root level.
  BlockId Ancestor(std::size_t i, Level l) const { return Anc(i, l); }

  const TreePartition& partition() const { return *tp_; }

  /// All level-0 blocks, in id order (the index space of DeltaAll and
  /// FeasibleAll).
  std::span<const BlockId> leaves() const { return leaves_; }

 private:
  /// One (block, pin count) pair of a (net, level) region.
  struct Entry {
    BlockId block;
    std::uint32_t count;
  };
  /// A (net, level) region of `entries_`: [begin, begin + distinct).
  struct Region {
    std::uint32_t begin;
    std::uint32_t distinct;
  };

  static constexpr std::uint32_t kNotLeaf = ~std::uint32_t{0};

  std::size_t Slot(NetId e, Level l) const { return e * levels_ + l; }
  /// Ancestor of leaf index `i` at level `l` < levels_.
  BlockId Anc(std::size_t i, Level l) const {
    return anc_[l * leaves_.size() + i];
  }
  std::size_t Distinct(NetId e, Level l) const;
  std::size_t Count(NetId e, Level l, BlockId q) const;
  void Inc(NetId e, Level l, BlockId q);
  void Dec(NetId e, Level l, BlockId q);

  TreePartition* tp_;
  const HierarchySpec* spec_;
  const Hypergraph* hg_;
  std::size_t levels_;
  std::vector<double> limit_;  ///< per level: capacity + 1e-9 tolerance
  std::vector<BlockId> leaves_;
  std::vector<std::uint32_t> leaf_index_;  ///< leaves_ index or kNotLeaf
  std::vector<std::size_t> blocks_at_;     ///< block count per level
  std::vector<std::uint32_t> rank_;        ///< index among its level
  std::vector<BlockId> anc_;               ///< level-major leaf ancestors
  std::vector<std::uint32_t> group_;       ///< rank_ of each anc_ entry
  std::vector<Region> regions_;            ///< one per (net, level)
  std::vector<Entry> entries_;
  // DeltaAll scratch: the term each level-l block contributes as a target's
  // ancestor, indexed by rank_.
  mutable std::vector<double> term_;
};

}  // namespace htp
