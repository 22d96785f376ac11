#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace ffp {
namespace {

Graph triangle() {
  const std::vector<WeightedEdge> edges = {{0, 1, 1.0}, {1, 2, 2.0}, {0, 2, 3.0}};
  return Graph::from_edges(3, edges);
}

TEST(Graph, EmptyGraph) {
  const Graph g = Graph::from_edges(0, {});
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_DOUBLE_EQ(g.total_edge_weight(), 0.0);
}

TEST(Graph, SingleVertexNoEdges) {
  const Graph g = Graph::from_edges(1, {});
  EXPECT_EQ(g.num_vertices(), 1);
  EXPECT_EQ(g.degree(0), 0);
  EXPECT_DOUBLE_EQ(g.weighted_degree(0), 0.0);
  EXPECT_DOUBLE_EQ(g.vertex_weight(0), 1.0);
}

TEST(Graph, TriangleStructure) {
  const Graph g = triangle();
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_EQ(g.num_arcs(), 6);
  EXPECT_DOUBLE_EQ(g.total_edge_weight(), 6.0);
  EXPECT_DOUBLE_EQ(g.max_edge_weight(), 3.0);
  EXPECT_DOUBLE_EQ(g.weighted_degree(0), 4.0);
  EXPECT_DOUBLE_EQ(g.weighted_degree(1), 3.0);
  EXPECT_DOUBLE_EQ(g.weighted_degree(2), 5.0);
}

TEST(Graph, NeighborsSortedAscending) {
  const std::vector<WeightedEdge> edges = {{0, 3, 1}, {0, 1, 1}, {0, 2, 1}};
  const Graph g = Graph::from_edges(4, edges);
  const auto nbrs = g.neighbors(0);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0], 1);
  EXPECT_EQ(nbrs[1], 2);
  EXPECT_EQ(nbrs[2], 3);
}

TEST(Graph, NeighborWeightsAligned) {
  const Graph g = triangle();
  const auto nbrs = g.neighbors(2);
  const auto ws = g.neighbor_weights(2);
  ASSERT_EQ(nbrs.size(), 2u);
  // Neighbors of 2 sorted: 0 (w=3), 1 (w=2).
  EXPECT_EQ(nbrs[0], 0);
  EXPECT_DOUBLE_EQ(ws[0], 3.0);
  EXPECT_EQ(nbrs[1], 1);
  EXPECT_DOUBLE_EQ(ws[1], 2.0);
}

TEST(Graph, ParallelEdgesMerge) {
  const std::vector<WeightedEdge> edges = {{0, 1, 1.0}, {1, 0, 2.5}, {0, 1, 0.5}};
  const Graph g = Graph::from_edges(2, edges);
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(g.total_edge_weight(), 4.0);
}

TEST(Graph, EdgeWeightLookup) {
  const Graph g = triangle();
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(g.edge_weight(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(g.edge_weight(1, 2), 2.0);
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 2), 3.0);
}

TEST(Graph, HasEdge) {
  const std::vector<WeightedEdge> edges = {{0, 1, 1.0}};
  const Graph g = Graph::from_edges(3, edges);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(1, 2));
}

TEST(Graph, VertexWeights) {
  const std::vector<WeightedEdge> edges = {{0, 1, 1.0}};
  const Graph g = Graph::from_edges(2, edges, {2.0, 3.0});
  EXPECT_DOUBLE_EQ(g.vertex_weight(0), 2.0);
  EXPECT_DOUBLE_EQ(g.vertex_weight(1), 3.0);
  EXPECT_DOUBLE_EQ(g.total_vertex_weight(), 5.0);
}

TEST(Graph, DefaultVertexWeightsAreOne) {
  const Graph g = triangle();
  EXPECT_DOUBLE_EQ(g.total_vertex_weight(), 3.0);
}

TEST(Graph, ZeroWeightEdgeAllowed) {
  const std::vector<WeightedEdge> edges = {{0, 1, 0.0}};
  const Graph g = Graph::from_edges(2, edges);
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_DOUBLE_EQ(g.total_edge_weight(), 0.0);
}

TEST(Graph, RejectsSelfLoop) {
  const std::vector<WeightedEdge> edges = {{1, 1, 1.0}};
  EXPECT_THROW(Graph::from_edges(2, edges), Error);
}

TEST(Graph, RejectsOutOfRangeEndpoint) {
  const std::vector<WeightedEdge> edges = {{0, 5, 1.0}};
  EXPECT_THROW(Graph::from_edges(2, edges), Error);
  const std::vector<WeightedEdge> neg = {{-1, 0, 1.0}};
  EXPECT_THROW(Graph::from_edges(2, neg), Error);
}

TEST(Graph, RejectsNegativeWeight) {
  const std::vector<WeightedEdge> edges = {{0, 1, -1.0}};
  EXPECT_THROW(Graph::from_edges(2, edges), Error);
}

TEST(Graph, RejectsBadVertexWeights) {
  const std::vector<WeightedEdge> edges = {{0, 1, 1.0}};
  EXPECT_THROW(Graph::from_edges(2, edges, {1.0}), Error);       // wrong size
  EXPECT_THROW(Graph::from_edges(2, edges, {1.0, 0.0}), Error);  // zero weight
}

TEST(Graph, CsrViewsConsistent) {
  const Graph g = triangle();
  const auto xadj = g.xadj();
  ASSERT_EQ(xadj.size(), 4u);
  EXPECT_EQ(xadj[0], 0);
  EXPECT_EQ(xadj[3], 6);
  EXPECT_EQ(g.adj().size(), 6u);
  EXPECT_EQ(g.arc_weights().size(), 6u);
}

TEST(Graph, FromCsrMatchesFromEdges) {
  const Graph a = triangle();
  const Graph b = Graph::from_csr({0, 2, 4, 6}, {1, 2, 0, 2, 0, 1},
                                  {1.0, 3.0, 1.0, 2.0, 3.0, 2.0});
  EXPECT_TRUE(std::ranges::equal(a.xadj(), b.xadj()));
  EXPECT_TRUE(std::ranges::equal(a.adj(), b.adj()));
  EXPECT_TRUE(std::ranges::equal(a.arc_weights(), b.arc_weights()));
  for (VertexId v = 0; v < 3; ++v) {
    EXPECT_EQ(a.weighted_degree(v), b.weighted_degree(v));
    EXPECT_EQ(a.vertex_weight(v), b.vertex_weight(v));
  }
  EXPECT_EQ(a.total_edge_weight(), b.total_edge_weight());
  EXPECT_EQ(a.min_edge_weight(), b.min_edge_weight());
  EXPECT_EQ(a.max_edge_weight(), b.max_edge_weight());
}

TEST(Graph, FromCsrRejectsMalformedArrays) {
  const std::vector<Weight> w2 = {1.0, 1.0};
  EXPECT_THROW(Graph::from_csr({}, {}, {}), Error);
  EXPECT_THROW(Graph::from_csr({0, 1, 2}, {1, 0}, {1.0}), Error);  // sizes
  EXPECT_THROW(Graph::from_csr({0, 2, 1}, {1, 0}, w2), Error);     // xadj
  EXPECT_THROW(Graph::from_csr({0, 1, 2}, {0, 0}, w2), Error);     // loop
  EXPECT_THROW(Graph::from_csr({0, 1, 2}, {2, 0}, w2), Error);     // range
  EXPECT_THROW(Graph::from_csr({0, 2, 2, 2}, {2, 1}, w2), Error);  // order
  EXPECT_THROW(Graph::from_csr({0, 1, 2}, {1, 0}, {-1.0, -1.0}), Error);
  EXPECT_THROW(Graph::from_csr({0, 1, 2}, {1, 0}, w2, {1.0}), Error);
  EXPECT_NO_THROW(Graph::from_csr({0, 1, 2}, {1, 0}, w2, {2.0, 0.5}));
}

TEST(Graph, SummaryMentionsCounts) {
  const std::string s = triangle().summary();
  EXPECT_NE(s.find("n=3"), std::string::npos);
  EXPECT_NE(s.find("m=3"), std::string::npos);
}

}  // namespace
}  // namespace ffp
