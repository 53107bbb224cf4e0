#include "graph/csr_view.hpp"

#include <atomic>
#include <limits>

namespace htp {

namespace {
std::uint64_t NextViewId() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}
}  // namespace

CsrView::CsrView(const Hypergraph& hg, CsrLayout layout)
    : num_nodes_(hg.num_nodes()),
      num_nets_(hg.num_nets()),
      id_(NextViewId()),
      total_size_(hg.total_size()) {
  // The duplicated layout stores, per (node, net) incidence, every pin of
  // the net except the node itself.
  std::size_t duplicated_entries = 0;
  for (NetId e = 0; e < hg.num_nets(); ++e) {
    const std::size_t deg = hg.net_degree(e);
    duplicated_entries += deg * (deg - 1);
  }
  const std::size_t budget = kDuplicationLimit * std::max<std::size_t>(
                                 hg.num_pins(), std::size_t{1});
  duplicated_ = layout == CsrLayout::kDuplicated ||
                (layout == CsrLayout::kAuto && duplicated_entries <= budget);
  const std::size_t pin_entries =
      duplicated_ ? duplicated_entries : hg.num_pins();
  HTP_CHECK_MSG(pin_entries <= std::numeric_limits<std::uint32_t>::max(),
                "hypergraph too large for 32-bit CSR pin offsets");

  node_size_.resize(hg.num_nodes());
  for (NodeId v = 0; v < hg.num_nodes(); ++v) node_size_[v] = hg.node_size(v);

  arc_offset_.reserve(hg.num_nodes() + 1);
  arcs_.reserve(hg.num_pins());
  pins_.reserve(pin_entries);

  // Shared layout: one pin block per net, filled lazily the first time an
  // arc references the net (net ids are dense, so a direct-mapped table of
  // begins suffices).
  std::vector<std::uint32_t> shared_begin;
  constexpr std::uint32_t kUnplaced = std::numeric_limits<std::uint32_t>::max();
  if (!duplicated_) shared_begin.assign(hg.num_nets(), kUnplaced);

  arc_offset_.push_back(0);
  for (NodeId v = 0; v < hg.num_nodes(); ++v) {
    for (NetId e : hg.nets(v)) {
      CsrArc arc;
      arc.net = e;
      if (duplicated_) {
        arc.pin_begin = static_cast<std::uint32_t>(pins_.size());
        for (NodeId x : hg.pins(e))
          if (x != v) pins_.push_back(x);
        arc.pin_end = static_cast<std::uint32_t>(pins_.size());
      } else {
        if (shared_begin[e] == kUnplaced) {
          shared_begin[e] = static_cast<std::uint32_t>(pins_.size());
          for (NodeId x : hg.pins(e)) pins_.push_back(x);
        }
        arc.pin_begin = shared_begin[e];
        arc.pin_end =
            arc.pin_begin + static_cast<std::uint32_t>(hg.net_degree(e));
      }
      arcs_.push_back(arc);
    }
    arc_offset_.push_back(static_cast<std::uint32_t>(arcs_.size()));
  }
}

}  // namespace htp
