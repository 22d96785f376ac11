// Core graph type: an immutable, undirected, weighted graph in CSR
// (compressed sparse row) layout. Every edge is stored twice (one arc per
// direction); neighbor lists and weights are exposed as spans.
//
// Vertex weights default to 1 and become meaningful under multilevel
// coarsening, where a coarse vertex carries the total weight of the fine
// vertices it merged.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace ffp {

using VertexId = std::int32_t;
using ArcId = std::int64_t;  ///< index into the CSR arc arrays
using Weight = double;

/// One undirected edge for graph construction.
struct WeightedEdge {
  VertexId u = 0;
  VertexId v = 0;
  Weight w = 1.0;
};

class Graph {
 public:
  Graph() = default;

  /// Builds a graph from an undirected edge list.
  /// - Self loops are rejected (FFP_CHECK).
  /// - Parallel edges are merged by summing their weights.
  /// - Edge weights must be >= 0.
  /// - vertex_weights may be empty (all 1) or exactly n entries, all > 0.
  static Graph from_edges(VertexId n, std::span<const WeightedEdge> edges,
                          std::vector<Weight> vertex_weights = {});

  /// Adopts finished CSR arrays without an edge-list detour: xadj has
  /// n+1 entries starting at 0, each row of adj is strictly ascending with
  /// no self loop, weights are >= 0, and vertex_weights is empty (all 1)
  /// or n entries > 0 (all FFP_CHECKed in the one finishing pass). Every
  /// arc (v,u,w) must have its mirror (u,v,w): that is the caller's
  /// contract, not checked here.
  static Graph from_csr(std::vector<ArcId> xadj, std::vector<VertexId> adj,
                        std::vector<Weight> arc_weights,
                        std::vector<Weight> vertex_weights = {});

  VertexId num_vertices() const { return n_; }
  /// Number of undirected edges (each counted once).
  std::int64_t num_edges() const { return static_cast<std::int64_t>(adj_.size()) / 2; }
  std::int64_t num_arcs() const { return static_cast<std::int64_t>(adj_.size()); }

  /// Neighbor vertex ids of v (deterministic order: ascending).
  std::span<const VertexId> neighbors(VertexId v) const {
    bounds_check(v);
    return {adj_.data() + xadj_[v], adj_.data() + xadj_[v + 1]};
  }
  /// Weights aligned with neighbors(v).
  std::span<const Weight> neighbor_weights(VertexId v) const {
    bounds_check(v);
    return {wgt_.data() + xadj_[v], wgt_.data() + xadj_[v + 1]};
  }

  std::int64_t degree(VertexId v) const {
    bounds_check(v);
    return xadj_[v + 1] - xadj_[v];
  }
  /// d(v) = sum of incident edge weights (the paper's d(u)).
  Weight weighted_degree(VertexId v) const {
    bounds_check(v);
    return wdeg_[v];
  }

  Weight vertex_weight(VertexId v) const {
    bounds_check(v);
    return vwgt_[v];
  }
  Weight total_vertex_weight() const { return total_vwgt_; }
  /// Sum of undirected edge weights (each edge once).
  Weight total_edge_weight() const { return total_ewgt_; }
  Weight max_edge_weight() const { return max_ewgt_; }
  Weight min_edge_weight() const { return min_ewgt_; }
  /// True when every edge carries the same weight — flow distances reduce
  /// to hop counts, letting Dijkstra-based kernels fall back to plain BFS.
  bool has_uniform_edge_weights() const {
    return num_edges() == 0 || min_ewgt_ == max_ewgt_;
  }

  /// Weight of edge (u,v); 0 if absent. O(log deg(u)) binary search.
  Weight edge_weight(VertexId u, VertexId v) const;
  bool has_edge(VertexId u, VertexId v) const { return edge_weight(u, v) > 0.0; }

  /// CSR raw views for linear algebra kernels.
  std::span<const ArcId> xadj() const { return xadj_; }
  std::span<const VertexId> adj() const { return adj_; }
  std::span<const Weight> arc_weights() const { return wgt_; }
  std::span<const Weight> vertex_weights() const { return vwgt_; }

  /// One-line human-readable summary.
  std::string summary() const;

 private:
  void bounds_check([[maybe_unused]] VertexId v) const {
    FFP_DCHECK(v >= 0 && v < n_, "vertex id out of range");
  }
  /// The one finishing step every constructor ends in: validates the CSR
  /// and vertex weights, then derives wdeg_ and the totals and extremes in
  /// a fixed loop order, so graphs built any way are bit-identical.
  void finish();

  VertexId n_ = 0;
  std::vector<ArcId> xadj_;     // size n+1
  std::vector<VertexId> adj_;   // size 2m
  std::vector<Weight> wgt_;     // size 2m
  std::vector<Weight> vwgt_;    // size n
  std::vector<Weight> wdeg_;    // size n, cached weighted degrees
  Weight total_vwgt_ = 0.0;
  Weight total_ewgt_ = 0.0;
  Weight max_ewgt_ = 0.0;
  Weight min_ewgt_ = 0.0;
};

}  // namespace ffp
