// Per-block parallel hierarchical FM (docs/parallelism.md).
//
// The root's children partition the node set into disjoint subtrees, and
// Equation (1) is additive over them below the root: for every net, its
// level-l span (l < L-1) is the sum over root children of the distinct
// level-l blocks it touches inside each child, and intra-block moves leave
// every span at level >= L-1 untouched. So the exact gain of a move
// confined to one root-child subtree is computable from that subtree alone
// — which makes per-block refinement embarrassingly parallel: mirror each
// root child into a standalone sub-partition, run the (deterministic,
// RNG-free) RefineHtpFm on every mirror concurrently, then commit the
// surviving moves serially in block order and finish with one global
// boundary-seeded pass to catch cross-block gains the block-local view
// cannot see.
#pragma once

#include "partition/htp_fm.hpp"

namespace htp {

/// Refines `tp` in place like RefineHtpFm, but fans the work out across
/// the root's child subtrees on `build_threads` workers (ParallelFor
/// semantics: 0 = all hardware threads, <= 1 serial; the nested guard
/// degrades to serial inside pool workers). The result never costs more
/// than the input and stays valid.
///
/// Bit-identical for every `build_threads` value, including 1: the
/// algorithm — block-local refinement in block id order, serial commit,
/// one global boundary pass — is fixed; only the schedule varies. NOT
/// bit-identical to plain RefineHtpFm (a different pass structure), except
/// in the degenerate cases (root_level < 2, or fewer than two root
/// children) where it falls back to RefineHtpFm exactly.
///
/// `params.cancel` is polled by every block's pass loop and by the final
/// global pass.
/// Stats: initial/final costs are whole-partition costs; passes and
/// moves_kept sum over the block runs plus the global pass; `completed` is
/// the conjunction.
HtpFmStats RefineHtpFmBlocks(TreePartition& tp, const HierarchySpec& spec,
                             const HtpFmParams& params,
                             std::size_t build_threads);

}  // namespace htp
