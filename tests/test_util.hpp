// Shared helpers for the htp test suite.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "netlist/hypergraph.hpp"
#include "netlist/rng.hpp"

namespace htp::testutil {

/// Deterministic random connected hypergraph: `n` unit-size nodes, a random
/// spanning tree (guaranteeing connectivity), plus `extra_nets` random nets
/// of degree 2..max_degree with unit capacities.
inline Hypergraph RandomConnectedHypergraph(NodeId n, std::size_t extra_nets,
                                            std::size_t max_degree,
                                            std::uint64_t seed) {
  Rng rng(seed);
  HypergraphBuilder builder;
  for (NodeId v = 0; v < n; ++v) builder.add_node(1.0);
  for (NodeId v = 1; v < n; ++v) {
    const NodeId u = static_cast<NodeId>(rng.next_below(v));
    builder.add_net({u, v});
  }
  for (std::size_t i = 0; i < extra_nets; ++i) {
    const std::size_t deg =
        2 + rng.next_below(std::max<std::size_t>(1, max_degree - 1));
    std::vector<NodeId> pins;
    for (std::size_t k = 0; k < deg; ++k)
      pins.push_back(static_cast<NodeId>(rng.next_below(n)));
    builder.add_net(pins);  // duplicate pins merged; degenerate nets dropped
  }
  return builder.build();
}

/// Brute-force single-source shortest distances over a hypergraph with net
/// lengths: Bellman-Ford-style relaxation until fixpoint (reference oracle
/// for Dijkstra).
inline std::vector<double> BruteForceDistances(
    const Hypergraph& hg, NodeId source, std::span<const double> net_length) {
  std::vector<double> dist(hg.num_nodes(),
                           std::numeric_limits<double>::infinity());
  dist[source] = 0.0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (NetId e = 0; e < hg.num_nets(); ++e) {
      double best = std::numeric_limits<double>::infinity();
      for (NodeId v : hg.pins(e)) best = std::min(best, dist[v]);
      const double cand = best + net_length[e];
      for (NodeId v : hg.pins(e)) {
        if (cand < dist[v] - 1e-12) {
          dist[v] = cand;
          changed = true;
        }
      }
    }
  }
  return dist;
}

/// FNV-1a 64 over the bit patterns of `values` (a spreading metric's d(e)
/// per net): equal hashes pin results bit for bit.
inline std::uint64_t HashBits(const std::vector<double>& values) {
  std::uint64_t h = 1469598103934665603ull;
  for (double d : values) {
    h ^= std::bit_cast<std::uint64_t>(d);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace htp::testutil
