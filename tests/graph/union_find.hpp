// Disjoint-set union with path halving and union by size. A test helper:
// prim_test.cpp verifies the MST against Kruskal with it.
#pragma once

#include <numeric>
#include <vector>

#include "netlist/common.hpp"

namespace htp {

/// Classic union-find over dense ids [0, n).
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n), size_(n, 1), count_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  /// Representative of x's set (path halving).
  std::size_t Find(std::size_t x) {
    HTP_CHECK(x < parent_.size());
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  /// Merges the sets of a and b; returns false when already joined.
  bool Union(std::size_t a, std::size_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return false;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
    --count_;
    return true;
  }

  bool Connected(std::size_t a, std::size_t b) { return Find(a) == Find(b); }
  /// Number of elements in x's set.
  std::size_t SetSize(std::size_t x) { return size_[Find(x)]; }
  /// Number of disjoint sets.
  std::size_t NumSets() const { return count_; }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> size_;
  std::size_t count_;
};

}  // namespace htp
