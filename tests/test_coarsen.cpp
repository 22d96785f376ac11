#include "multilevel/coarsen.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <unordered_map>

#include "api/problem.hpp"
#include "graph/generators.hpp"

namespace ffp {
namespace {

/// Reference contraction: coarse edge weights summed through a hash map
/// keyed by the coarse pair, then built by Graph::from_edges.
/// contract_matching must match it bit for bit.
CoarseLevel reference_contract(const Graph& g,
                               std::span<const VertexId> match) {
  const VertexId n = g.num_vertices();
  CoarseLevel level;
  level.fine_to_coarse.assign(static_cast<std::size_t>(n), -1);
  VertexId next = 0;
  for (VertexId v = 0; v < n; ++v) {
    const VertexId m = match[static_cast<std::size_t>(v)];
    if (level.fine_to_coarse[static_cast<std::size_t>(v)] != -1) continue;
    level.fine_to_coarse[static_cast<std::size_t>(v)] = next;
    if (m != v) level.fine_to_coarse[static_cast<std::size_t>(m)] = next;
    ++next;
  }
  std::vector<Weight> cvw(static_cast<std::size_t>(next), 0.0);
  for (VertexId v = 0; v < n; ++v) {
    cvw[static_cast<std::size_t>(
        level.fine_to_coarse[static_cast<std::size_t>(v)])] +=
        g.vertex_weight(v);
  }
  std::unordered_map<std::int64_t, Weight> acc;
  for (VertexId v = 0; v < n; ++v) {
    const VertexId cv = level.fine_to_coarse[static_cast<std::size_t>(v)];
    const auto nbrs = g.neighbors(v);
    const auto ws = g.neighbor_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId cu =
          level.fine_to_coarse[static_cast<std::size_t>(nbrs[i])];
      if (cu == cv || nbrs[i] < v) continue;
      const std::int64_t key =
          static_cast<std::int64_t>(std::min(cv, cu)) * next +
          std::max(cv, cu);
      acc[key] += ws[i];
    }
  }
  std::vector<WeightedEdge> edges;
  for (const auto& [key, w] : acc) {
    edges.push_back({static_cast<VertexId>(key / next),
                     static_cast<VertexId>(key % next), w});
  }
  level.coarse = Graph::from_edges(next, edges, std::move(cvw));
  return level;
}

/// The matching a level contracted, recovered from its fine→coarse map.
std::vector<VertexId> matching_of(const CoarseLevel& level) {
  const auto& map = level.fine_to_coarse;
  std::vector<VertexId> first(
      static_cast<std::size_t>(level.coarse.num_vertices()), -1);
  std::vector<VertexId> match(map.size());
  for (std::size_t v = 0; v < map.size(); ++v) {
    auto& f = first[static_cast<std::size_t>(map[v])];
    match[v] = static_cast<VertexId>(v);
    if (f == -1) {
      f = static_cast<VertexId>(v);
    } else {
      match[v] = f;
      match[static_cast<std::size_t>(f)] = static_cast<VertexId>(v);
    }
  }
  return match;
}

std::vector<std::uint64_t> bits(std::span<const Weight> ws) {
  std::vector<std::uint64_t> out;
  for (Weight w : ws) out.push_back(std::bit_cast<std::uint64_t>(w));
  return out;
}

void expect_same_bits(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  EXPECT_TRUE(std::ranges::equal(a.xadj(), b.xadj()));
  EXPECT_TRUE(std::ranges::equal(a.adj(), b.adj()));
  EXPECT_EQ(bits(a.arc_weights()), bits(b.arc_weights()));
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.vertex_weight(v)),
              std::bit_cast<std::uint64_t>(b.vertex_weight(v)));
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.weighted_degree(v)),
              std::bit_cast<std::uint64_t>(b.weighted_degree(v)));
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.total_edge_weight()),
            std::bit_cast<std::uint64_t>(b.total_edge_weight()));
  EXPECT_EQ(api::graph_digest(a), api::graph_digest(b));
}

TEST(Coarsen, ContractionMatchesHashMapOracleBitForBit) {
  const std::vector<Graph> inputs = {
      api::Problem::generated("atc:2006").graph(),
      with_random_weights(make_random_geometric(6000, 0.03, 11), 0.1, 3.7, 12),
      with_random_weights(make_power_law(5000, 8.0, 2.3, 13), 0.3, 2.9, 14)};
  for (const Graph& g : inputs) {
    for (const MatchingKind kind :
         {MatchingKind::HeavyEdge, MatchingKind::Random}) {
      CoarsenOptions opt;
      opt.min_vertices = 16;
      opt.matching = kind;
      opt.seed = 21;
      const auto chain = coarsen_chain(g, opt);
      ASSERT_GE(chain.size(), 3u);
      const Graph* fine = &g;
      for (const CoarseLevel& level : chain) {
        const CoarseLevel ref = reference_contract(*fine, matching_of(level));
        EXPECT_EQ(level.fine_to_coarse, ref.fine_to_coarse);
        expect_same_bits(level.coarse, ref.coarse);
        fine = &level.coarse;
      }
    }
  }
}

TEST(Coarsen, ContractTotalVertexWeightConserved) {
  const auto g = with_random_weights(make_grid2d(6, 6), 1.0, 3.0, 3);
  Rng rng(4);
  const auto match = heavy_edge_matching(g, rng);
  const auto level = contract_matching(g, match);
  EXPECT_NEAR(level.coarse.total_vertex_weight(), g.total_vertex_weight(),
              1e-9);
}

TEST(Coarsen, ContractEdgeWeightConservedModuloInternal) {
  // Total edge weight = coarse edge weight + weight of contracted edges.
  const auto g = with_random_weights(make_torus(5, 5), 1.0, 2.0, 5);
  Rng rng(6);
  const auto match = heavy_edge_matching(g, rng);
  double contracted = 0.0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const VertexId m = match[static_cast<std::size_t>(v)];
    if (m > v) contracted += g.edge_weight(v, m);
  }
  const auto level = contract_matching(g, match);
  EXPECT_NEAR(level.coarse.total_edge_weight() + contracted,
              g.total_edge_weight(), 1e-9);
}

TEST(Coarsen, MapCoversAllCoarseVertices) {
  const auto g = make_grid2d(7, 5);
  Rng rng(7);
  const auto level = contract_matching(g, heavy_edge_matching(g, rng));
  std::vector<int> hits(static_cast<std::size_t>(level.coarse.num_vertices()), 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const VertexId c = level.fine_to_coarse[static_cast<std::size_t>(v)];
    ASSERT_GE(c, 0);
    ASSERT_LT(c, level.coarse.num_vertices());
    ++hits[static_cast<std::size_t>(c)];
  }
  for (int h : hits) {
    EXPECT_GE(h, 1);
    EXPECT_LE(h, 2);  // matchings merge at most pairs
  }
}

TEST(Coarsen, RejectsAsymmetricMatching) {
  const auto g = make_path(4);
  const std::vector<VertexId> bad = {1, 0, 3, 2};
  EXPECT_NO_THROW(contract_matching(g, bad));
  const std::vector<VertexId> asym = {1, 2, 0, 3};
  EXPECT_THROW(contract_matching(g, asym), Error);
}

TEST(Coarsen, ChainShrinksToThreshold) {
  const auto g = make_grid2d(16, 16);
  CoarsenOptions opt;
  opt.min_vertices = 30;
  const auto chain = coarsen_chain(g, opt);
  ASSERT_FALSE(chain.empty());
  EXPECT_LE(chain.back().coarse.num_vertices(), 60);  // ~half per level
  for (std::size_t i = 1; i < chain.size(); ++i) {
    EXPECT_LT(chain[i].coarse.num_vertices(),
              chain[i - 1].coarse.num_vertices());
  }
}

TEST(Coarsen, ChainEmptyForSmallGraph) {
  const auto g = make_path(10);
  CoarsenOptions opt;
  opt.min_vertices = 64;
  EXPECT_TRUE(coarsen_chain(g, opt).empty());
}

TEST(Coarsen, StallsGracefullyOnStar) {
  // A star can only contract one edge per level; the min_shrink guard must
  // terminate the chain rather than looping.
  const auto g = make_star(40);
  CoarsenOptions opt;
  opt.min_vertices = 4;
  const auto chain = coarsen_chain(g, opt);
  EXPECT_LT(chain.size(), 40u);
}

TEST(Coarsen, ProlongRoundTripsConstants) {
  const auto g = make_grid2d(10, 10);
  CoarsenOptions opt;
  opt.min_vertices = 12;
  const auto chain = coarsen_chain(g, opt);
  ASSERT_FALSE(chain.empty());
  const std::vector<double> coarse_vals(
      static_cast<std::size_t>(chain.back().coarse.num_vertices()), 3.25);
  const auto fine = prolong_to_finest(chain, chain.size(), coarse_vals);
  ASSERT_EQ(fine.size(), static_cast<std::size_t>(g.num_vertices()));
  for (double v : fine) EXPECT_DOUBLE_EQ(v, 3.25);
}

TEST(Coarsen, ProlongMapsDistinctValues) {
  const auto g = make_path(8);
  const std::vector<VertexId> match = {1, 0, 3, 2, 5, 4, 7, 6};
  const auto level = contract_matching(g, match);
  ASSERT_EQ(level.coarse.num_vertices(), 4);
  std::vector<CoarseLevel> chain;
  chain.push_back(level);
  const std::vector<double> vals = {10, 20, 30, 40};
  const auto fine = prolong_to_finest(chain, 1, vals);
  for (VertexId v = 0; v < 8; ++v) {
    EXPECT_DOUBLE_EQ(
        fine[static_cast<std::size_t>(v)],
        vals[static_cast<std::size_t>(
            level.fine_to_coarse[static_cast<std::size_t>(v)])]);
  }
}

TEST(Coarsen, DeterministicForSeed) {
  const auto g = make_grid2d(12, 12);
  CoarsenOptions opt;
  opt.seed = 42;
  const auto a = coarsen_chain(g, opt);
  const auto b = coarsen_chain(g, opt);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].coarse.num_vertices(), b[i].coarse.num_vertices());
    EXPECT_EQ(a[i].fine_to_coarse, b[i].fine_to_coarse);
  }
}

}  // namespace
}  // namespace ffp
