// A plain Dijkstra over the Hypergraph itself: the test oracle of the
// production engine (graph/dijkstra.hpp), which only ever walks a CsrView.
//
// One std binary heap on (dist, node), tentative distances and staged
// parents in plain per-node arrays, and one relaxed mark per net: a path
// enters a net at any pin and leaves at any other pin, paying d(e) once, so
// each net is relaxed only from its first settled pin. Settling follows the
// strict (dist, node) order, so the engine must reproduce its distances,
// parents, settling order, GrowState sequence and work counts bit for bit
// (tests/graph/csr_dijkstra_diff_test.cpp).
#pragma once

#include <algorithm>
#include <functional>
#include <span>
#include <vector>

#include "graph/dijkstra.hpp"

namespace htp {

/// Grows from `source` with lengths `net_length` like
/// DijkstraWorkspace::Grow: the visitor sees every settled node (including
/// the source) and may stop the growth; the returned tree holds exactly the
/// settled prefix. Work counts are added to `stats` when it is non-null.
inline ShortestPathTree ReferenceGrow(
    const Hypergraph& hg, NodeId source, std::span<const double> net_length,
    const std::function<GrowAction(const GrowState&)>& visitor,
    DijkstraStats* stats = nullptr) {
  HTP_CHECK(source < hg.num_nodes());
  HTP_CHECK(net_length.size() == hg.num_nets());
  struct Entry {
    double dist;
    NodeId node;
  };
  // Min-heap order on (dist, node): `a` comes after `b`.
  const auto after = [](const Entry& a, const Entry& b) {
    return a.dist > b.dist || (a.dist == b.dist && a.node > b.node);
  };

  ShortestPathTree out;
  out.source = source;
  out.dist.assign(hg.num_nodes(), kInfDist);
  out.parent.assign(hg.num_nodes(), TreeParent{});
  // Tentative distances and parents are published into `out` only on
  // settle, so unsettled nodes keep +inf and the invalid parent.
  std::vector<double> tentative(hg.num_nodes(), kInfDist);
  std::vector<TreeParent> staged(hg.num_nodes());
  std::vector<char> relaxed(hg.num_nets(), 0);
  std::vector<Entry> heap{{0.0, source}};
  tentative[source] = 0.0;

  double tree_size = 0.0;
  double weighted_dist = 0.0;
  DijkstraStats work;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), after);
    const Entry top = heap.back();
    heap.pop_back();
    ++work.pops;
    const NodeId u = top.node;
    if (out.settled(u) || top.dist > tentative[u]) continue;  // stale

    out.dist[u] = top.dist;
    out.parent[u] = staged[u];
    out.order.push_back(u);
    tree_size += hg.node_size(u);
    weighted_dist += hg.node_size(u) * top.dist;
    if (visitor({u, top.dist, tree_size, weighted_dist, out.order.size()}) ==
        GrowAction::kStop)
      break;

    for (NetId e : hg.nets(u)) {
      if (relaxed[e]) continue;
      relaxed[e] = 1;
      const double cand = top.dist + net_length[e];
      for (NodeId x : hg.pins(e)) {
        if (out.settled(x) || cand >= tentative[x]) continue;
        tentative[x] = cand;
        staged[x] = {e, u};
        heap.push_back({cand, x});
        std::push_heap(heap.begin(), heap.end(), after);
        ++work.relaxations;
      }
    }
  }
  work.settled = out.order.size();
  if (stats) *stats += work;
  return out;
}

/// Full single-source shortest paths (no early stop).
inline ShortestPathTree ReferenceDijkstra(const Hypergraph& hg, NodeId source,
                                          std::span<const double> net_length) {
  return ReferenceGrow(hg, source, net_length,
                       [](const GrowState&) { return GrowAction::kContinue; });
}

}  // namespace htp
