// Dinic maximum flow and hypergraph s-t minimum cuts.
//
// A test oracle: the exact s-t min cut that FM bipartitioning with fixed
// terminals is checked against (tests/partition/fm_bipartition_test.cpp).
// A Dinic max-flow solver on directed networks, plus the standard
// net-splitting construction (Yang & Wong's flow model) that reduces
// hypergraph s-t min-cut to max-flow — each net e becomes a bridge of
// capacity c(e) between two auxiliary vertices, so cutting the bridge once
// severs the net regardless of its degree.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/hypergraph.hpp"

namespace htp {

/// Directed flow network with residual edges; solves max-flow via Dinic.
class FlowNetwork {
 public:
  /// Capacity treated as unbounded.
  static constexpr double kInfCapacity = 1e30;

  explicit FlowNetwork(std::size_t num_vertices);

  std::size_t num_vertices() const { return head_.size(); }

  /// Adds a directed edge u -> v with capacity `cap` (and a 0-capacity
  /// reverse residual edge). Returns the edge id; flow(id) reads its flow.
  std::size_t AddEdge(std::size_t u, std::size_t v, double cap);

  /// Computes the maximum s-t flow (Dinic: level BFS + blocking DFS).
  /// May be called once per network instance.
  double MaxFlow(std::size_t s, std::size_t t);

  /// Flow on edge `id` after MaxFlow.
  double flow(std::size_t id) const;

  /// After MaxFlow: vertices reachable from s in the residual network — the
  /// source side of a minimum cut.
  std::vector<char> SourceSide(std::size_t s) const;

 private:
  struct Edge {
    std::uint32_t to;
    std::uint32_t rev;  // index of the reverse edge in edges_[to]
    double cap;
  };
  bool Bfs(std::size_t s, std::size_t t);
  double Dfs(std::size_t v, std::size_t t, double limit);

  std::vector<std::vector<Edge>> head_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edge_ref_;  // id -> (v, idx)
  std::vector<double> orig_cap_;
  std::vector<int> level_;
  std::vector<std::uint32_t> iter_;
};

/// Result of a hypergraph s-t min-cut.
struct HyperMinCut {
  double cut_value = 0.0;             ///< sum of capacities of cut nets
  std::vector<char> source_side;      ///< per node: on the source side?
  std::vector<NetId> cut_nets;        ///< nets with pins on both sides
};

/// Minimum-capacity set of nets whose removal separates `sources` from
/// `sinks` in `hg`, via the net-splitting max-flow construction. Node sets
/// must be disjoint and non-empty.
HyperMinCut HypergraphMinCut(const Hypergraph& hg,
                             std::span<const NodeId> sources,
                             std::span<const NodeId> sinks);

}  // namespace htp
