#include "partition/move_oracle.hpp"

#include <algorithm>
#include <limits>

namespace htp {
namespace {

double SpanValue(std::size_t f) {
  return f >= 2 ? static_cast<double>(f) : 0.0;
}

}  // namespace

HtpMoveOracle::HtpMoveOracle(TreePartition& tp, const HierarchySpec& spec)
    : tp_(&tp), spec_(&spec), hg_(&tp.hypergraph()),
      levels_(tp.root_level()), leaves_(tp.Leaves()),
      leaf_index_(tp.num_blocks(), kNotLeaf), rank_(tp.num_blocks(), 0) {
  HTP_CHECK_MSG(tp.fully_assigned(), "oracle needs a complete partition");
  for (Level l = 0; l < levels_; ++l)
    limit_.push_back(spec.capacity(l) + 1e-9);
  for (std::size_t i = 0; i < leaves_.size(); ++i)
    leaf_index_[leaves_[i]] = static_cast<std::uint32_t>(i);
  // Dense per-level block ranks; a net touches at most min(degree, blocks
  // at level l) distinct level-l blocks, which sizes its region.
  blocks_at_.assign(levels_, 0);
  for (BlockId q = 0; q < tp.num_blocks(); ++q)
    if (tp.level(q) < levels_)
      rank_[q] = static_cast<std::uint32_t>(blocks_at_[tp.level(q)]++);
  for (const std::size_t count : blocks_at_)
    term_.resize(std::max(term_.size(), count));
  anc_.resize(levels_ * leaves_.size());
  group_.resize(anc_.size());
  for (Level l = 0; l < levels_; ++l) {
    for (std::size_t i = 0; i < leaves_.size(); ++i) {
      anc_[l * leaves_.size() + i] = tp.ancestor(leaves_[i], l);
      group_[l * leaves_.size() + i] = rank_[anc_[l * leaves_.size() + i]];
    }
  }

  regions_.resize(static_cast<std::size_t>(hg_->num_nets()) * levels_);
  std::size_t total = 0;
  for (NetId e = 0; e < hg_->num_nets(); ++e) {
    for (Level l = 0; l < levels_; ++l) {
      regions_[Slot(e, l)] = {static_cast<std::uint32_t>(total), 0};
      total += std::min(hg_->net_degree(e), blocks_at_[l]);
    }
  }
  HTP_CHECK_MSG(total <= std::numeric_limits<std::uint32_t>::max(),
                "span tables exceed 2^32 entries");
  entries_.resize(total);
  for (NetId e = 0; e < hg_->num_nets(); ++e)
    for (NodeId v : hg_->pins(e)) {
      const std::size_t i = LeafIndex(tp.leaf_of(v));
      for (Level l = 0; l < levels_; ++l) Inc(e, l, Anc(i, l));
    }
}

std::size_t HtpMoveOracle::LeafIndex(BlockId q) const {
  HTP_CHECK_MSG(q < leaf_index_.size() && leaf_index_[q] != kNotLeaf,
                "move target is not a leaf");
  return leaf_index_[q];
}

std::size_t HtpMoveOracle::Distinct(NetId e, Level l) const {
  return regions_[Slot(e, l)].distinct;
}

std::size_t HtpMoveOracle::Count(NetId e, Level l, BlockId q) const {
  const Region r = regions_[Slot(e, l)];
  for (std::uint32_t k = r.begin; k < r.begin + r.distinct; ++k)
    if (entries_[k].block == q) return entries_[k].count;
  return 0;
}

void HtpMoveOracle::Inc(NetId e, Level l, BlockId q) {
  Region& r = regions_[Slot(e, l)];
  for (std::uint32_t k = r.begin; k < r.begin + r.distinct; ++k) {
    if (entries_[k].block == q) {
      ++entries_[k].count;
      return;
    }
  }
  entries_[r.begin + r.distinct++] = {q, 1};
}

void HtpMoveOracle::Dec(NetId e, Level l, BlockId q) {
  Region& r = regions_[Slot(e, l)];
  for (std::uint32_t k = r.begin; k < r.begin + r.distinct; ++k) {
    if (entries_[k].block == q) {
      if (--entries_[k].count == 0)
        entries_[k] = entries_[r.begin + --r.distinct];
      return;
    }
  }
  HTP_CHECK_MSG(false, "span table underflow");
}

double HtpMoveOracle::Delta(NodeId v, BlockId target) const {
  const BlockId from = tp_->leaf_of(v);
  if (from == target) return 0.0;
  const std::size_t fi = LeafIndex(from);
  const std::size_t ti = LeafIndex(target);
  Level lca = 0;
  while (lca < levels_ && Anc(fi, lca) != Anc(ti, lca)) ++lca;
  double delta = 0.0;
  for (NetId e : hg_->nets(v)) {
    for (Level l = 0; l < lca; ++l) {
      const std::size_t f = Distinct(e, l);
      const std::size_t cnt_old = Count(e, l, Anc(fi, l));
      const std::size_t cnt_new = Count(e, l, Anc(ti, l));
      const std::size_t f_after =
          f - (cnt_old == 1 ? 1 : 0) + (cnt_new == 0 ? 1 : 0);
      delta += spec_->weight(l) * hg_->net_capacity(e) *
               (SpanValue(f_after) - SpanValue(f));
    }
  }
  return delta;
}

void HtpMoveOracle::DeltaAll(NodeId v, std::span<double> out) const {
  HTP_CHECK(out.size() == leaves_.size());
  const std::size_t fi = LeafIndex(tp_->leaf_of(v));
  const std::size_t n = leaves_.size();
  std::fill(out.begin(), out.end(), 0.0);
  for (NetId e : hg_->nets(v)) {
    const double capacity = hg_->net_capacity(e);
    for (Level l = 0; l < levels_; ++l) {
      // Delta's term for a target depends only on whether the target's
      // level-l ancestor is already on the net: compute both candidates
      // once, write each level-l block's term into term_, then hand every
      // leaf the term of its ancestor. A leaf sharing v's level-l block
      // meets v at or below level l, so Delta adds nothing for it here; it
      // adds +0.0 instead, which leaves its partial sum's bits unchanged
      // (a sum that starts at +0.0 never becomes -0.0).
      const BlockId oldb = Anc(fi, l);
      const Region r = regions_[Slot(e, l)];
      std::size_t cnt_old = 0;
      for (std::uint32_t k = r.begin; k < r.begin + r.distinct; ++k)
        if (entries_[k].block == oldb) cnt_old = entries_[k].count;
      const std::size_t f = r.distinct;
      const std::size_t base = f - (cnt_old == 1 ? 1 : 0);
      const double scale = spec_->weight(l) * capacity;
      const double present = scale * (SpanValue(base) - SpanValue(f));
      const double absent = scale * (SpanValue(base + 1) - SpanValue(f));
      std::fill_n(term_.begin(), blocks_at_[l], absent);
      for (std::uint32_t k = r.begin; k < r.begin + r.distinct; ++k)
        term_[rank_[entries_[k].block]] = present;
      term_[rank_[oldb]] = 0.0;
      const std::uint32_t* group = &group_[l * n];
      for (std::size_t i = 0; i < n; ++i) out[i] += term_[group[i]];
    }
  }
}

bool HtpMoveOracle::Feasible(NodeId v, BlockId target) const {
  const BlockId from = tp_->leaf_of(v);
  if (from == target) return false;
  const std::size_t fi = LeafIndex(from);
  const std::size_t ti = LeafIndex(target);
  const double s = hg_->node_size(v);
  for (Level l = 0; l < levels_ && Anc(ti, l) != Anc(fi, l); ++l)
    if (tp_->block_size(Anc(ti, l)) + s > limit_[l]) return false;
  return true;
}

void HtpMoveOracle::FeasibleAll(NodeId v, std::span<char> out) const {
  HTP_CHECK(out.size() == leaves_.size());
  const std::size_t fi = LeafIndex(tp_->leaf_of(v));
  const std::size_t n = leaves_.size();
  const double s = hg_->node_size(v);
  std::fill(out.begin(), out.end(), char{1});
  out[fi] = 0;
  // Feasible's walk, level by level: leaf i must fit at every level where
  // its ancestor differs from v's (the levels below the LCA).
  for (Level l = 0; l < levels_; ++l) {
    const BlockId* row = &anc_[l * n];
    for (std::size_t i = 0; i < n; ++i)
      out[i] &= static_cast<char>(row[i] == row[fi] ||
                                  tp_->block_size(row[i]) + s <= limit_[l]);
  }
}

double HtpMoveOracle::Cost() const {
  double cost = 0.0;
  for (NetId e = 0; e < hg_->num_nets(); ++e)
    for (Level l = 0; l < levels_; ++l)
      cost += spec_->weight(l) * hg_->net_capacity(e) *
              SpanValue(Distinct(e, l));
  return cost;
}

void HtpMoveOracle::Apply(NodeId v, BlockId target) {
  const BlockId from = tp_->leaf_of(v);
  if (from == target) return;
  const std::size_t fi = LeafIndex(from);
  const std::size_t ti = LeafIndex(target);
  for (NetId e : hg_->nets(v)) {
    for (Level l = 0; l < levels_ && Anc(fi, l) != Anc(ti, l); ++l) {
      Dec(e, l, Anc(fi, l));
      Inc(e, l, Anc(ti, l));
    }
  }
  tp_->MoveNode(v, target);
}

}  // namespace htp
