#include "partition/htp_fm.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <queue>
#include <span>

#include "obs/obs.hpp"
#include "partition/move_oracle.hpp"

namespace htp {
namespace {

obs::Counter c_refines("fm.refines");
obs::Counter c_passes("fm.passes");
obs::Counter c_moves_applied("fm.moves_applied");
obs::Counter c_moves_kept("fm.moves_kept");
// Accepted (best-prefix) gain, in cost milli-units: gains are deterministic
// doubles, rounded once here so the counter stays an exact integer total.
obs::Counter c_gain_milli("fm.accepted_gain_milli");
// Nodes seeded into the heap by boundary-only passes; zero unless
// HtpFmParams::boundary_only is set, so full-pass totals are untouched.
obs::Counter c_boundary_seeds("fm.boundary_seeds");
// All-target gain sweeps (HtpMoveOracle::DeltaAll calls): one per BestMove
// evaluation that is not served by the per-move memo and has a feasible
// target.
obs::Counter c_gain_sweeps("fm.gain_sweeps");
// Passes ended by the locked-span bound (the certified pass stop below)
// before the heap ran dry or the early-stop window fired.
obs::Counter c_certified_stops("fm.certified_stops");
obs::Timer t_refine("fm.refine");
obs::Timer t_pass("fm.pass");

struct HeapEntry {
  double gain;
  NodeId node;
  BlockId target;
  std::uint32_t stamp;
  bool operator<(const HeapEntry& other) const {
    return gain < other.gain || (gain == other.gain && node < other.node);
  }
};

// Certified pass stop. After a move is applied and its node locked, let C0
// be the cost at the start of the pass and LB the locked-span bound: the
// sum over (net e, level l) of w_l * c(e) * SpanValue(f), where f counts
// the distinct level-l blocks holding e's locked pins. Locked nodes stay
// put for the rest of the pass, SpanValue is nondecreasing, and w_l >= 0
// and c(e) > 0 are validated, so every later partition of the pass costs
// at least LB and every later prefix gains at most C0 - LB. Once
// C0 - LB + margin <= best_cum + 1e-12, no later running sum can pass the
// best-prefix test, so the pass ends and the rollback restores the same
// best prefix as the exhaustive pass. Partitions, gains, passes and
// moves_kept are unchanged bit for bit; only the work after the stop goes.
//
// The margin covers the rounding between the exact quantities and the
// doubles compared. Let u = 2^-53, L levels, P pins, n nodes, and
// D = 2 * sum_l w_l * sum_e c(e) |e|. A node moves at most once per pass
// and shifts each (net, level) span by at most one, so D bounds the sum of
// |term| over every Delta of a pass, and D / 2 bounds any cost, LB too.
//   * `cum` after k <= n moves (each Delta sums <= deg(v) * L terms of one
//     rounding each) is within gamma(P L + n) * D of the exact gain;
//   * C0 (nets * L terms, two roundings each) is within
//     gamma(nets L + 1) * C0, and LB (<= P L increments of one rounding)
//     within gamma(P L) * D / 2;
//   * the subtraction, the added margin and the comparison's own sum add
//     a few u * (C0 + D).
// With K = (P + nets) * L + n + 2, every gamma above is <= 1.01 K u, so the
// total stays below 2.6 K u (C0 + D); the margin takes 4 K u (C0 + D).
// Below K = 2e6 that is under 1e-9 * (C0 + D): far below one net's cost on
// unit-weight inputs, so it delays no stop that matters.
//
// A prefix is kept only if it beats the best by more than max(margin,
// 1e-12), so the rounding of an exactly-zero gain (e.g. relabelling every
// node) never passes for a gain. The 1e-12 floor keeps the stop above
// sound when the margin is smaller.
constexpr double kMarginPerOp = 0x1p-51;  // 4u

class Refiner {
 public:
  Refiner(TreePartition& tp, const HierarchySpec& spec)
      : tp_(tp), spec_(spec), hg_(tp.hypergraph()), oracle_(tp, spec),
        levels_(tp.root_level()), gains_(oracle_.leaves().size()),
        feasible_(gains_.size()), stamp_(hg_.num_nodes(), 0),
        locked_(hg_.num_nodes(), 0), memo_(hg_.num_nodes()),
        lock_begin_(hg_.num_nets() + std::size_t{1}, 0),
        locked_count_(hg_.num_nets(), 0),
        span_locked_(hg_.num_nets() * levels_, 0) {
    double weight_sum = 0.0;
    for (Level l = 0; l < levels_; ++l) weight_sum += spec.weight(l);
    double pin_capacity = 0.0;
    for (NetId e = 0; e < hg_.num_nets(); ++e) {
      // e's locked pins sit in at most min(degree, leaves) distinct leaves.
      const std::size_t degree = hg_.net_degree(e);
      lock_begin_[e + 1] =
          lock_begin_[e] + std::min(degree, oracle_.leaves().size());
      pin_capacity += hg_.net_capacity(e) * static_cast<double>(degree);
    }
    locked_leaves_.resize(lock_begin_.back());
    term_bound_ = 2.0 * weight_sum * pin_capacity;
    rounding_ops_ = static_cast<double>(
        (hg_.num_pins() + hg_.num_nets()) * levels_ + hg_.num_nodes() + 2);
  }

  struct Best {
    double gain;
    BlockId target;
  };
  // Best feasible move of v: the first leaf (in id order) of maximum gain.
  // A pure function of the partition, which changes only in Move(), so the
  // result is memoised until the next move — a node sharing k nets with
  // the moved one is refreshed k times but evaluated once. The gains come
  // from one all-target sweep, skipped when no leaf is feasible.
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
      ++sweeps_;
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

  // Applies a move through the oracle and retires every memoised BestMove.
  void Move(NodeId v, BlockId target) {
    oracle_.Apply(v, target);
    if (++epoch_ == 0) {  // wrapped: no stale memo may match
      for (Memo& memo : memo_) memo.epoch = 0;
      epoch_ = 1;
    }
  }

  // Marks every node incident to a net spanning >= 2 leaves. One O(pins)
  // sweep per pass; a pure function of the current partition, so the
  // boundary-seeded pass is exactly as deterministic as the full one.
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

  // Locks v in its current leaf for the rest of the pass and raises the
  // locked-span bound: on every net of v, the levels at which v's block is
  // new among the net's locked pins gain one block each. Scanning levels
  // upward stops at the first level where v's block is already present,
  // as every higher level then matches too.
  void Lock(NodeId v) {
    locked_[v] = 1;
    const std::size_t leaf = oracle_.LeafIndex(tp_.leaf_of(v));
    for (NetId e : hg_.nets(v)) {
      const std::uint32_t* others = &locked_leaves_[lock_begin_[e]];
      Level l = 0;
      for (; l < levels_; ++l) {
        const BlockId block = oracle_.Ancestor(leaf, l);
        bool present = false;
        for (std::uint32_t k = 0; k < locked_count_[e] && !present; ++k)
          present = oracle_.Ancestor(others[k], l) == block;
        if (present) break;
        const std::uint32_t f = ++span_locked_[e * levels_ + l];
        if (f >= 2)
          lock_bound_ += spec_.weight(l) * hg_.net_capacity(e) *
                         (f == 2 ? 2.0 : 1.0);
      }
      if (l > 0)  // v's leaf is new on e
        locked_leaves_[lock_begin_[e] + locked_count_[e]++] =
            static_cast<std::uint32_t>(leaf);
    }
  }

  double Cost() const { return oracle_.Cost(); }

  // One FM pass; returns the realized (best-prefix) gain.
  double Pass(std::size_t early_stop_window, bool boundary_only,
              std::size_t& moves_kept) {
    std::fill(locked_.begin(), locked_.end(), 0);
    std::fill(locked_count_.begin(), locked_count_.end(), 0);
    std::fill(span_locked_.begin(), span_locked_.end(), 0);
    lock_bound_ = 0.0;
    const double start_cost = oracle_.Cost();
    const double margin =
        kMarginPerOp * rounding_ops_ * (start_cost + term_bound_);
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
      c_boundary_seeds.Add(static_cast<std::uint64_t>(
          std::count(boundary.begin(), boundary.end(), char{1})));
    }
    for (NodeId v = 0; v < hg_.num_nodes(); ++v) {
      ++stamp_[v];
      if (!boundary_only || boundary[v]) push_best(v);
    }

    std::vector<std::pair<NodeId, BlockId>> log;  // (node, previous leaf)
    double cum = 0.0, best_cum = 0.0;
    std::size_t best_len = 0, since_best = 0;
    std::vector<std::uint8_t> requeues(hg_.num_nodes(), 0);

    while (!heap.empty()) {
      const HeapEntry entry = heap.top();
      heap.pop();
      const NodeId v = entry.node;
      if (locked_[v]) continue;
      if (entry.stamp != stamp_[v]) {
        // Stale: neighbors changed since this entry was pushed.
        push_best(v);
        continue;
      }
      if (!oracle_.Feasible(v, entry.target)) {
        // Sizes shifted under us; retry with a fresh best (bounded).
        if (++requeues[v] < 32) {
          ++stamp_[v];
          push_best(v);
        }
        continue;
      }
      const double gain = -oracle_.Delta(v, entry.target);  // authoritative
      const BlockId from = tp_.leaf_of(v);
      Move(v, entry.target);
      Lock(v);
      log.emplace_back(v, from);
      cum += gain;
      if (cum > best_cum + accept) {
        best_cum = cum;
        best_len = log.size();
        since_best = 0;
      } else if (early_stop_window > 0 && ++since_best >= early_stop_window) {
        break;
      }
      // Certified stop: no later prefix can pass the acceptance test above.
      if (start_cost - lock_bound_ + margin <= best_cum + 1e-12) {
        c_certified_stops.Add();
        break;
      }
      // Refresh the neighborhood.
      for (NetId e : hg_.nets(v)) {
        for (NodeId u : hg_.pins(e)) {
          if (locked_[u]) continue;
          ++stamp_[u];
          push_best(u);
        }
      }
    }

    // Roll back the tail beyond the best prefix.
    for (std::size_t i = log.size(); i > best_len; --i)
      Move(log[i - 1].first, log[i - 1].second);
    moves_kept += best_len;
    c_moves_applied.Add(log.size());
    c_moves_kept.Add(best_len);
    c_gain_sweeps.Add(sweeps_);
    sweeps_ = 0;
    c_gain_milli.Add(
        static_cast<std::uint64_t>(std::llround(best_cum * 1000.0)));
    return best_cum;
  }

 private:
  // BestMove result of one node, valid while `epoch` == epoch_;
  // target == kInvalidBlock records "no feasible move".
  struct Memo {
    double gain = 0.0;
    BlockId target = kInvalidBlock;
    std::uint32_t epoch = 0;
  };

  TreePartition& tp_;
  const HierarchySpec& spec_;
  const Hypergraph& hg_;
  HtpMoveOracle oracle_;
  Level levels_;
  std::vector<double> gains_;   // DeltaAll output, per leaf
  std::vector<char> feasible_;  // FeasibleAll output, per leaf
  std::vector<std::uint32_t> stamp_;
  std::vector<char> locked_;
  std::vector<Memo> memo_;
  std::uint32_t epoch_ = 1;
  std::uint64_t sweeps_ = 0;  // DeltaAll calls since the last pass ended
  // Locked-span bound of the current pass. Net e's locked pins occupy the
  // distinct leaf indices locked_leaves_[lock_begin_[e] ..][0,
  // locked_count_[e]); span_locked_[e * levels_ + l] counts their distinct
  // level-l blocks; lock_bound_ sums w_l * c(e) * SpanValue over all of it.
  std::vector<std::size_t> lock_begin_;
  std::vector<std::uint32_t> locked_leaves_;
  std::vector<std::uint32_t> locked_count_;
  std::vector<std::uint32_t> span_locked_;
  double lock_bound_ = 0.0;
  double term_bound_ = 0.0;    // 2 * sum_l w_l * sum_e c(e) |e|
  double rounding_ops_ = 0.0;  // rounding steps the margin must cover
};

}  // namespace

HtpFmStats RefineHtpFm(TreePartition& tp, const HierarchySpec& spec,
                       const HtpFmParams& params) {
  HTP_CHECK_MSG(tp.fully_assigned(), "refiner needs a complete partition");
  obs::PhaseScope obs_span(t_refine);
  c_refines.Add();
  HtpFmStats stats;
  Refiner refiner(tp, spec);
  // Both costs are counted by the oracle, in one summation order, so a run
  // that keeps no move reports final_cost == initial_cost bit for bit. The
  // final one is a recount, not initial_cost minus the pass gains, whose
  // running sums carry rounding.
  stats.initial_cost = refiner.Cost();
  for (std::size_t pass = 0; pass < params.max_passes; ++pass) {
    // Safepoint: between passes. The best-prefix rollback has run, so the
    // partition is valid and no worse than the input here.
    if (params.cancel.Cancelled()) {
      stats.completed = false;
      break;
    }
    ++stats.passes;
    c_passes.Add();
    obs::PhaseScope pass_span(t_pass, "pass", pass);
    const double gain = refiner.Pass(params.early_stop_window,
                                     params.boundary_only, stats.moves_kept);
    if (gain == 0.0) break;  // no prefix beat the acceptance margin
  }
  stats.final_cost = refiner.Cost();
  return stats;
}

}  // namespace htp
