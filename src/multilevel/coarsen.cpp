#include "multilevel/coarsen.hpp"

#include <algorithm>

namespace ffp {

CoarseLevel contract_matching(const Graph& g, std::span<const VertexId> match) {
  const VertexId n = g.num_vertices();
  FFP_CHECK(static_cast<VertexId>(match.size()) == n, "match size mismatch");

  CoarseLevel level;
  level.fine_to_coarse.assign(static_cast<std::size_t>(n), -1);
  VertexId next = 0;
  for (VertexId v = 0; v < n; ++v) {
    const VertexId m = match[static_cast<std::size_t>(v)];
    FFP_CHECK(m >= 0 && m < n && match[static_cast<std::size_t>(m)] == v,
              "matching is not symmetric at vertex ", v);
    if (level.fine_to_coarse[static_cast<std::size_t>(v)] != -1) continue;
    level.fine_to_coarse[static_cast<std::size_t>(v)] = next;
    if (m != v) level.fine_to_coarse[static_cast<std::size_t>(m)] = next;
    ++next;
  }

  std::vector<Weight> cvw(static_cast<std::size_t>(next), 0.0);
  for (VertexId v = 0; v < n; ++v) {
    cvw[static_cast<std::size_t>(level.fine_to_coarse[static_cast<std::size_t>(v)])] +=
        g.vertex_weight(v);
  }

  // Combine fine edges into coarse edges, summing weights of parallels.
  // A fine edge {v,u} (v < u) whose ends have distinct images contributes
  // once to the coarse edge {lo, hi}. Pass 1 buckets the contributions by
  // lo, stably in fine visit order; pass 2 sums each bucket in a dense
  // epoch-stamped accumulator. Every coarse edge weight is thus summed in
  // fine visit order, a fixed order, so even non-integer weights contract
  // to the same bits every time.
  const auto nc = static_cast<std::size_t>(next);
  const auto coarse_of = [&level](VertexId v) {
    return static_cast<std::size_t>(
        level.fine_to_coarse[static_cast<std::size_t>(v)]);
  };
  std::vector<ArcId> bucket(nc + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    for (const VertexId u : g.neighbors(v)) {
      if (u > v && coarse_of(u) != coarse_of(v)) {
        ++bucket[std::min(coarse_of(u), coarse_of(v)) + 1];
      }
    }
  }
  for (std::size_t c = 0; c < nc; ++c) bucket[c + 1] += bucket[c];
  std::vector<VertexId> hi(static_cast<std::size_t>(bucket[nc]));
  std::vector<Weight> w(hi.size());
  std::vector<ArcId> cursor(bucket.begin(), bucket.end() - 1);
  for (VertexId v = 0; v < n; ++v) {
    const auto nbrs = g.neighbors(v);
    const auto ws = g.neighbor_weights(v);
    const std::size_t cv = coarse_of(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const std::size_t cu = coarse_of(nbrs[i]);
      if (nbrs[i] < v || cu == cv) continue;
      const auto slot = static_cast<std::size_t>(cursor[std::min(cv, cu)]++);
      hi[slot] = static_cast<VertexId>(std::max(cv, cu));
      w[slot] = ws[i];
    }
  }

  // Pass 2: bucket lo collapses in place to its distinct upper neighbours,
  // sorted, with their summed weights. upper[lo] counts them; xadj[c + 1]
  // gathers each coarse degree.
  std::vector<ArcId> xadj(nc + 1, 0);
  std::vector<ArcId> upper(nc, 0);
  {
    std::vector<Weight> acc(nc);
    std::vector<std::size_t> stamp(nc, nc);
    for (std::size_t lo = 0; lo < nc; ++lo) {
      const auto begin = static_cast<std::size_t>(bucket[lo]);
      std::size_t end = begin;
      for (auto a = begin; a < static_cast<std::size_t>(bucket[lo + 1]); ++a) {
        const auto c = static_cast<std::size_t>(hi[a]);
        if (stamp[c] != lo) {
          stamp[c] = lo;
          acc[c] = 0.0;
          hi[end++] = hi[a];
          ++xadj[c + 1];
        }
        acc[c] += w[a];
      }
      std::sort(hi.begin() + static_cast<std::ptrdiff_t>(begin),
                hi.begin() + static_cast<std::ptrdiff_t>(end));
      for (auto a = begin; a < end; ++a) {
        w[a] = acc[static_cast<std::size_t>(hi[a])];
      }
      upper[lo] = static_cast<ArcId>(end - begin);
      xadj[lo + 1] += upper[lo];
    }
  }
  for (std::size_t c = 0; c < nc; ++c) xadj[c + 1] += xadj[c];

  // Pass 3: row c receives its lower neighbours (from earlier lo) before
  // its own sorted upper ones, so every row comes out ascending.
  std::vector<VertexId> adj(static_cast<std::size_t>(xadj[nc]));
  std::vector<Weight> wgt(adj.size());
  cursor.assign(xadj.begin(), xadj.end() - 1);
  for (std::size_t lo = 0; lo < nc; ++lo) {
    for (ArcId a = bucket[lo]; a < bucket[lo] + upper[lo]; ++a) {
      const auto up = static_cast<std::size_t>(hi[static_cast<std::size_t>(a)]);
      const auto lo_arc = static_cast<std::size_t>(cursor[lo]++);
      const auto up_arc = static_cast<std::size_t>(cursor[up]++);
      adj[lo_arc] = static_cast<VertexId>(up);
      adj[up_arc] = static_cast<VertexId>(lo);
      wgt[lo_arc] = wgt[up_arc] = w[static_cast<std::size_t>(a)];
    }
  }
  level.coarse = Graph::from_csr(std::move(xadj), std::move(adj),
                                 std::move(wgt), std::move(cvw));
  return level;
}

std::vector<CoarseLevel> coarsen_chain(const Graph& g,
                                       const CoarsenOptions& options) {
  FFP_CHECK(options.min_vertices >= 2, "min_vertices must be >= 2");
  FFP_CHECK(options.min_shrink > 0.0 && options.min_shrink < 1.0,
            "min_shrink must be in (0, 1) — a level that does not shrink "
            "must terminate the chain");
  FFP_CHECK(options.max_levels >= 1, "max_levels must be >= 1");
  // Per-level seeds come from one splitmix64 stream (the idiom every other
  // subsystem uses to derive child streams), not from one Rng threaded
  // through the levels: level i's matching then depends only on (seed, i),
  // never on how many draws earlier levels consumed.
  std::uint64_t stream = options.seed ^ 0x9e3779b97f4a7c15ULL;
  std::vector<CoarseLevel> chain;
  const Graph* current = &g;
  for (int lvl = 0; lvl < options.max_levels; ++lvl) {
    if (current->num_vertices() <= options.min_vertices) break;
    Rng rng(splitmix64(stream));
    const auto match = options.matching == MatchingKind::HeavyEdge
                           ? heavy_edge_matching(*current, rng)
                           : random_matching(*current, rng);
    CoarseLevel level = contract_matching(*current, match);
    const double shrink = static_cast<double>(level.coarse.num_vertices()) /
                          current->num_vertices();
    if (shrink > options.min_shrink) break;  // matching stalled (e.g. star)
    FFP_CHECK(level.coarse.num_vertices() < current->num_vertices(),
              "coarsening level made no progress");
    chain.push_back(std::move(level));
    current = &chain.back().coarse;
  }
  return chain;
}

std::vector<int> project_partition(const std::vector<CoarseLevel>& chain,
                                   std::size_t levels,
                                   std::span<const int> coarse_parts) {
  FFP_CHECK(levels <= chain.size(), "levels out of range");
  std::vector<int> parts(coarse_parts.begin(), coarse_parts.end());
  for (std::size_t l = levels; l-- > 0;) {
    const auto& map = chain[l].fine_to_coarse;
    FFP_CHECK(parts.size() ==
                  static_cast<std::size_t>(chain[l].coarse.num_vertices()),
              "coarse_parts size does not match level ", l);
    std::vector<int> fine(map.size());
    for (std::size_t v = 0; v < map.size(); ++v) {
      fine[v] = parts[static_cast<std::size_t>(map[v])];
    }
    parts = std::move(fine);
  }
  return parts;
}

std::vector<double> prolong_to_finest(const std::vector<CoarseLevel>& chain,
                                      std::size_t levels,
                                      std::span<const double> coarse_values) {
  FFP_CHECK(levels <= chain.size(), "levels out of range");
  std::vector<double> values(coarse_values.begin(), coarse_values.end());
  for (std::size_t l = levels; l-- > 0;) {
    const auto& map = chain[l].fine_to_coarse;
    std::vector<double> fine(map.size());
    for (std::size_t v = 0; v < map.size(); ++v) {
      fine[v] = values[static_cast<std::size_t>(map[v])];
    }
    values = std::move(fine);
  }
  return values;
}

}  // namespace ffp
