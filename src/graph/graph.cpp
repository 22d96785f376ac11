#include "graph/graph.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

namespace ffp {

Graph Graph::from_edges(VertexId n, std::span<const WeightedEdge> edges,
                        std::vector<Weight> vertex_weights) {
  FFP_CHECK(n >= 0, "negative vertex count");
  Graph g;
  g.n_ = n;
  g.vwgt_ = std::move(vertex_weights);

  // Count arcs per vertex (validating as we go).
  std::vector<ArcId> count(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& e : edges) {
    FFP_CHECK(e.u >= 0 && e.u < n && e.v >= 0 && e.v < n,
              "edge endpoint out of range: (", e.u, ",", e.v, ") with n=", n);
    FFP_CHECK(e.u != e.v, "self loop on vertex ", e.u);
    FFP_CHECK(e.w >= 0.0, "negative edge weight on (", e.u, ",", e.v, ")");
    ++count[static_cast<std::size_t>(e.u) + 1];
    ++count[static_cast<std::size_t>(e.v) + 1];
  }
  for (VertexId v = 0; v < n; ++v) count[v + 1] += count[v];

  std::vector<VertexId> adj(static_cast<std::size_t>(count[n]));
  std::vector<Weight> wgt(adj.size());
  std::vector<ArcId> cursor(count.begin(), count.end() - 1);
  for (const auto& e : edges) {
    adj[static_cast<std::size_t>(cursor[e.u])] = e.v;
    wgt[static_cast<std::size_t>(cursor[e.u]++)] = e.w;
    adj[static_cast<std::size_t>(cursor[e.v])] = e.u;
    wgt[static_cast<std::size_t>(cursor[e.v]++)] = e.w;
  }

  // Sort each neighbor list and merge duplicates (parallel edges).
  g.xadj_.assign(static_cast<std::size_t>(n) + 1, 0);
  g.adj_.reserve(adj.size());
  g.wgt_.reserve(wgt.size());
  std::vector<std::pair<VertexId, Weight>> row;
  for (VertexId v = 0; v < n; ++v) {
    row.clear();
    for (ArcId a = count[v]; a < cursor[v]; ++a) {
      row.emplace_back(adj[static_cast<std::size_t>(a)],
                       wgt[static_cast<std::size_t>(a)]);
    }
    std::sort(row.begin(), row.end());
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (!g.adj_.empty() &&
          static_cast<ArcId>(g.adj_.size()) > g.xadj_[v] &&
          g.adj_.back() == row[i].first) {
        g.wgt_.back() += row[i].second;  // merge parallel edge
      } else {
        g.adj_.push_back(row[i].first);
        g.wgt_.push_back(row[i].second);
      }
    }
    g.xadj_[v + 1] = static_cast<ArcId>(g.adj_.size());
  }

  g.finish();
  return g;
}

Graph Graph::from_csr(std::vector<ArcId> xadj, std::vector<VertexId> adj,
                      std::vector<Weight> arc_weights,
                      std::vector<Weight> vertex_weights) {
  FFP_CHECK(!xadj.empty() && xadj.front() == 0,
            "xadj must hold n+1 offsets starting at 0");
  FFP_CHECK(xadj.size() - 1 <=
                static_cast<std::size_t>(std::numeric_limits<VertexId>::max()),
            "vertex count exceeds the VertexId range");
  FFP_CHECK(xadj.back() == static_cast<ArcId>(adj.size()) &&
                adj.size() == arc_weights.size(),
            "xadj end ", xadj.back(), ", adj size ", adj.size(),
            " and weight count ", arc_weights.size(), " disagree");
  Graph g;
  g.n_ = static_cast<VertexId>(xadj.size() - 1);
  g.xadj_ = std::move(xadj);
  g.adj_ = std::move(adj);
  g.wgt_ = std::move(arc_weights);
  g.vwgt_ = std::move(vertex_weights);
  g.finish();
  return g;
}

void Graph::finish() {
  const auto n = static_cast<std::size_t>(n_);
  if (vwgt_.empty()) {
    vwgt_.assign(n, 1.0);
  } else {
    FFP_CHECK(vwgt_.size() == n, "vertex_weights size ", vwgt_.size(),
              " != n ", n_);
    for (Weight w : vwgt_) FFP_CHECK(w > 0.0, "vertex weight must be > 0");
  }
  total_vwgt_ = 0.0;
  for (Weight w : vwgt_) total_vwgt_ += w;

  wdeg_.assign(n, 0.0);
  total_ewgt_ = 0.0;
  max_ewgt_ = 0.0;
  min_ewgt_ = adj_.empty() ? 0.0 : std::numeric_limits<Weight>::infinity();
  for (VertexId v = 0; v < n_; ++v) {
    const ArcId begin = xadj_[static_cast<std::size_t>(v)];
    const ArcId end = xadj_[static_cast<std::size_t>(v) + 1];
    FFP_CHECK(begin <= end, "xadj decreases at vertex ", v);
    for (ArcId a = begin; a < end; ++a) {
      const VertexId u = adj_[static_cast<std::size_t>(a)];
      const Weight w = wgt_[static_cast<std::size_t>(a)];
      FFP_CHECK(u >= 0 && u < n_ && u != v &&
                    (a == begin || adj_[static_cast<std::size_t>(a) - 1] < u),
                "row ", v, " is not strictly ascending, in range and "
                "loop-free at neighbor ", u);
      FFP_CHECK(w >= 0.0, "negative edge weight on (", v, ",", u, ")");
      wdeg_[static_cast<std::size_t>(v)] += w;
      max_ewgt_ = std::max(max_ewgt_, w);
      min_ewgt_ = std::min(min_ewgt_, w);
      if (u > v) total_ewgt_ += w;
    }
  }
}

Weight Graph::edge_weight(VertexId u, VertexId v) const {
  bounds_check(u);
  bounds_check(v);
  const auto nbrs = neighbors(u);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it == nbrs.end() || *it != v) return 0.0;
  return neighbor_weights(u)[static_cast<std::size_t>(it - nbrs.begin())];
}

std::string Graph::summary() const {
  std::ostringstream os;
  os << "Graph(n=" << n_ << ", m=" << num_edges()
     << ", total_edge_weight=" << total_ewgt_ << ")";
  return os.str();
}

}  // namespace ffp
