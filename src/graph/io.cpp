#include "graph/io.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "persist/atomic_file.hpp"
#include "util/strings.hpp"

namespace ffp {

namespace {

[[noreturn]] void fail(std::int64_t line_no, const std::string& msg) {
  std::ostringstream os;
  os << "graph I/O error at line " << line_no << ": " << msg;
  throw Error(os.str());
}

bool is_comment(std::string_view line) {
  const auto t = trim(line);
  return !t.empty() && (t[0] == '%' || t[0] == '#');
}

/// Reads the next non-comment line; returns false at EOF.
bool next_line(std::istream& in, std::string& line, std::int64_t& line_no) {
  while (std::getline(in, line)) {
    ++line_no;
    if (!is_comment(line)) return true;
  }
  return false;
}

/// Walks one line's whitespace-separated tokens in place.
struct LineTokens {
  std::string_view rest;

  /// The next token; empty at the end of the line.
  std::string_view next() {
    const auto is_space = [](char c) {
      return c == ' ' || c == '\t' || c == '\r';
    };
    std::size_t i = 0;
    while (i < rest.size() && is_space(rest[i])) ++i;
    std::size_t j = i;
    while (j < rest.size() && !is_space(rest[j])) ++j;
    const std::string_view token = rest.substr(i, j - i);
    rest.remove_prefix(j);
    return token;
  }
};

std::ifstream open_in(const std::string& path) {
  std::ifstream in(path);
  FFP_CHECK(in.good(), "cannot open for reading: ", path);
  return in;
}

/// Reservations trust the declared size only up to this many elements — a
/// lying header must not be able to allocate gigabytes before the parser
/// discovers the file is ten lines long.
constexpr std::int64_t kTrustedReserve = 1 << 22;

/// Verifies that every arc of the parsed rows has a mirror arc with an
/// equal weight, naming both 1-based vertices and their lines otherwise.
/// Rows are ascending, so a sweep in vertex order meets row u's upper
/// neighbours in order: a cursor per row, one comparison per arc, and a
/// tight loop whose independent loads overlap.
void check_mirrors(std::span<const ArcId> xadj, std::span<const VertexId> adj,
                   std::span<Weight> wgt,
                   std::span<const std::int64_t> row_line, bool weighted) {
  const auto at = [](auto id) { return static_cast<std::size_t>(id); };
  const auto one_sided = [&](VertexId holder, VertexId missing) {
    fail(row_line[at(holder)],
         "vertex " + std::to_string(holder + 1) + " lists " +
             std::to_string(missing + 1) + " but vertex " +
             std::to_string(missing + 1) + " (line " +
             std::to_string(row_line[at(missing)]) + ") does not list " +
             std::to_string(holder + 1) + " (adjacency must be symmetric)");
  };
  const auto n = static_cast<VertexId>(row_line.size());
  // unmatched[u]: row u's first upper neighbour not yet listed back.
  std::vector<ArcId> unmatched(at(n));
  for (VertexId v = 0; v < n; ++v) {
    ArcId a = xadj[at(v)];
    for (; a < xadj[at(v) + 1] && adj[at(a)] < v; ++a) {
      const VertexId u = adj[at(a)];
      const ArcId mirror = unmatched[at(u)]++;
      const bool listed = mirror < xadj[at(u) + 1];
      if (listed && adj[at(mirror)] < v) {
        one_sided(u, adj[at(mirror)]);  // a row between u and v skipped u
      }
      if (!listed || adj[at(mirror)] > v) one_sided(v, u);
      if (weighted) {
        if (wgt[at(mirror)] != wgt[at(a)]) {
          std::ostringstream os;
          os << std::setprecision(17) << "edge " << u + 1 << "-" << v + 1
             << " has weight " << wgt[at(mirror)] << " on line "
             << row_line[at(u)] << " but " << wgt[at(a)]
             << " here (mirrored weights must be equal)";
          fail(row_line[at(v)], os.str());
        }
        wgt[at(a)] = wgt[at(mirror)];  // the lower row's bits (0.0 vs -0.0)
      }
    }
    unmatched[at(v)] = a;
  }
  for (VertexId u = 0; u < n; ++u) {
    if (unmatched[at(u)] != xadj[at(u) + 1]) {
      one_sided(u, adj[at(unmatched[at(u)])]);
    }
  }
}

}  // namespace

// The hard ceiling a header's vertex count must fit regardless of limits:
// VertexId is 32-bit, and a silently truncating cast used to be the
// overflow hole the service hardening closed.
std::int64_t IoLimits::vertex_cap() const {
  constexpr std::int64_t id_max = std::numeric_limits<VertexId>::max();
  return max_vertices > 0 ? std::min(max_vertices, id_max) : id_max;
}

std::int64_t IoLimits::edge_cap() const {
  return max_edges > 0 ? max_edges : std::numeric_limits<std::int64_t>::max();
}

Graph read_chaco(std::istream& in, const IoLimits& limits) {
  std::string line;
  std::int64_t line_no = 0;
  if (!next_line(in, line, line_no)) fail(line_no, "missing header line");

  const auto header = split_ws(line);
  if (header.size() < 2 || header.size() > 4) {
    fail(line_no, "header must be 'n m [fmt [ncon]]'");
  }
  const auto n_opt = parse_int(header[0]);
  const auto m_opt = parse_int(header[1]);
  if (!n_opt || !m_opt || *n_opt < 0 || *m_opt < 0) {
    fail(line_no, "invalid n or m in header");
  }
  if (*n_opt > limits.vertex_cap()) {
    fail(line_no, "header declares " + std::to_string(*n_opt) +
                      " vertices, limit is " +
                      std::to_string(limits.vertex_cap()));
  }
  if (*m_opt > limits.edge_cap()) {
    fail(line_no, "header declares " + std::to_string(*m_opt) +
                      " edges, limit is " + std::to_string(limits.edge_cap()));
  }
  const auto n = static_cast<VertexId>(*n_opt);
  const std::int64_t m = *m_opt;

  int fmt = 0;
  if (header.size() >= 3) {
    const auto f = parse_int(header[2]);
    if (!f || *f < 0 || *f > 111 || (*f % 10) > 1 || (*f / 10 % 10) > 1 ||
        (*f / 100) > 1) {
      fail(line_no, "invalid fmt field (expected digits from {0,1}: 0, 1, "
                    "10, 11, 100, 101, 110, 111)");
    }
    fmt = static_cast<int>(*f);
  }
  const bool has_vertex_sizes = (fmt / 100) % 10 != 0;
  const bool has_vertex_weights = (fmt / 10) % 10 != 0;
  const bool has_edge_weights = fmt % 10 != 0;
  int ncon = has_vertex_weights ? 1 : 0;
  if (header.size() == 4) {
    const auto c = parse_int(header[3]);
    if (!c || *c < 0 || *c > 64) fail(line_no, "invalid ncon field");
    ncon = static_cast<int>(*c);
  }

  if (has_vertex_weights && ncon < 1) {
    fail(line_no, "invalid ncon field (vertex weights need ncon >= 1)");
  }

  // Every vertex line is parsed straight into its CSR row. Reservations
  // trust the header only up to kTrustedReserve; beyond that, growth is
  // driven by what the file actually holds and capped by `limits`.
  const std::int64_t arc_cap =
      limits.edge_cap() > std::numeric_limits<std::int64_t>::max() / 2
          ? std::numeric_limits<std::int64_t>::max()
          : 2 * limits.edge_cap();
  std::vector<ArcId> xadj{0};
  xadj.reserve(static_cast<std::size_t>(
      std::min<std::int64_t>(n, kTrustedReserve) + 1));
  std::vector<VertexId> adj;
  std::vector<Weight> wgt;
  adj.reserve(static_cast<std::size_t>(std::min(m, kTrustedReserve / 2) * 2));
  wgt.reserve(adj.capacity());
  std::vector<Weight> vweights;
  if (has_vertex_weights) {
    vweights.reserve(static_cast<std::size_t>(
        std::min<std::int64_t>(n, kTrustedReserve)));
  }
  std::vector<std::int64_t> row_line;  // for the mirror check's errors
  row_line.reserve(xadj.capacity());
  std::vector<std::pair<VertexId, Weight>> unsorted;

  for (VertexId v = 0; v < n; ++v) {
    if (!next_line(in, line, line_no)) {
      fail(line_no, "unexpected EOF: expected " + std::to_string(n) +
                        " vertex lines, got " + std::to_string(v));
    }
    row_line.push_back(line_no);
    LineTokens tok{line};
    if (has_vertex_sizes) tok.next();  // accept and ignore vertex size
    if (has_vertex_weights) {
      // Multi-constraint files: use the first weight (ffp is single
      // constraint; documented in the header).
      const std::string_view first = tok.next();
      bool complete = !first.empty();
      for (int c = 1; c < ncon && complete; ++c) complete = !tok.next().empty();
      if (!complete) fail(line_no, "missing vertex weight(s)");
      const auto w = parse_double(first);
      if (!w || !std::isfinite(*w) || *w <= 0) {
        fail(line_no, "invalid vertex weight (must be finite and > 0)");
      }
      vweights.push_back(*w);
    }
    const auto row = adj.size();
    bool ascending = true;
    for (auto t = tok.next(); !t.empty(); t = tok.next()) {
      const auto u = parse_int(t);
      if (!u || *u < 1 || *u > n) {
        fail(line_no, "neighbor id out of range (ids are 1-based)");
      }
      Weight w = 1.0;
      if (has_edge_weights) {
        const std::string_view t_w = tok.next();
        if (t_w.empty()) fail(line_no, "missing edge weight");
        const auto we = parse_double(t_w);
        if (!we || !std::isfinite(*we) || *we < 0) {
          fail(line_no, "invalid edge weight (must be finite and >= 0)");
        }
        w = *we;
      }
      const auto nb = static_cast<VertexId>(*u - 1);
      if (nb == v) {
        fail(line_no, "self loop on vertex " + std::to_string(v + 1) +
                          " (1-based)");
      }
      if (static_cast<std::int64_t>(adj.size()) >= arc_cap) {
        fail(line_no, "edge limit " + std::to_string(limits.edge_cap()) +
                          " exceeded");
      }
      ascending = ascending && (adj.size() == row || adj.back() < nb);
      adj.push_back(nb);
      wgt.push_back(w);
    }
    if (!ascending) {
      unsorted.clear();
      for (auto a = row; a < adj.size(); ++a) {
        unsorted.emplace_back(adj[a], wgt[a]);
      }
      std::sort(unsorted.begin(), unsorted.end());
      for (std::size_t i = 0; i < unsorted.size(); ++i) {
        if (i > 0 && unsorted[i].first == unsorted[i - 1].first) {
          fail(line_no, "duplicate edge: neighbor " +
                            std::to_string(unsorted[i].first + 1) +
                            " listed twice for vertex " +
                            std::to_string(v + 1) + " (1-based)");
        }
        adj[row + i] = unsorted[i].first;
        wgt[row + i] = unsorted[i].second;
      }
    }
    xadj.push_back(static_cast<ArcId>(adj.size()));
  }
  check_mirrors(xadj, adj, wgt, row_line, has_edge_weights);

  if (static_cast<std::int64_t>(adj.size()) / 2 != m) {
    fail(line_no, "header declared " + std::to_string(m) + " edges, found " +
                      std::to_string(adj.size() / 2));
  }
  return Graph::from_csr(std::move(xadj), std::move(adj), std::move(wgt),
                         std::move(vweights));
}

Graph read_chaco_file(const std::string& path, const IoLimits& limits) {
  auto in = open_in(path);
  return read_chaco(in, limits);
}

void write_chaco(const Graph& g, std::ostream& out) {
  // Decide the fmt field: emit weights only when non-trivial.
  bool vw = false;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.vertex_weight(v) != 1.0) {
      vw = true;
      break;
    }
  }
  bool ew = false;
  for (Weight w : g.arc_weights()) {
    if (w != 1.0) {
      ew = true;
      break;
    }
  }
  const int fmt = (vw ? 10 : 0) + (ew ? 1 : 0);
  out << std::setprecision(17);  // round-trip doubles exactly
  out << g.num_vertices() << ' ' << g.num_edges();
  if (fmt != 0) out << ' ' << (fmt < 10 ? "0" : "") << fmt;
  out << '\n';
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    bool first = true;
    if (vw) {
      out << g.vertex_weight(v);
      first = false;
    }
    const auto nbrs = g.neighbors(v);
    const auto ws = g.neighbor_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (!first) out << ' ';
      first = false;
      out << (nbrs[i] + 1);
      if (ew) out << ' ' << ws[i];
    }
    out << '\n';
  }
}

void write_chaco_file(const Graph& g, const std::string& path) {
  // Atomic replace (persist/atomic_file.hpp): a crash or full disk mid-
  // write leaves the previous file, never a torn one.
  std::ostringstream out;
  write_chaco(g, out);
  persist::atomic_write_file(path, out.str());
}

Graph read_edge_list(std::istream& in, const IoLimits& limits) {
  std::string line;
  std::int64_t line_no = 0;
  std::vector<WeightedEdge> edges;
  VertexId max_v = -1;
  while (next_line(in, line, line_no)) {
    const auto tok = split_ws(line);
    if (tok.empty()) continue;
    if (tok.size() != 2 && tok.size() != 3) {
      fail(line_no, "expected 'u v [w]'");
    }
    const auto u = parse_int(tok[0]);
    const auto v = parse_int(tok[1]);
    if (!u || !v || *u < 0 || *v < 0) fail(line_no, "invalid endpoint");
    // Endpoints imply the vertex count (max id + 1): range-check them so a
    // single bogus line cannot make from_edges allocate by a huge id.
    if (*u >= limits.vertex_cap() || *v >= limits.vertex_cap()) {
      fail(line_no, "endpoint exceeds vertex limit " +
                        std::to_string(limits.vertex_cap()));
    }
    if (*u == *v) {
      fail(line_no, "self loop on vertex " + std::to_string(*u));
    }
    Weight w = 1.0;
    if (tok.size() == 3) {
      const auto wd = parse_double(tok[2]);
      if (!wd || !std::isfinite(*wd) || *wd < 0) {
        fail(line_no, "invalid weight (must be finite and >= 0)");
      }
      w = *wd;
    }
    if (static_cast<std::int64_t>(edges.size()) >= limits.edge_cap()) {
      fail(line_no,
           "edge limit " + std::to_string(limits.edge_cap()) + " exceeded");
    }
    edges.push_back(
        {static_cast<VertexId>(*u), static_cast<VertexId>(*v), w});
    max_v = std::max(max_v, std::max(static_cast<VertexId>(*u),
                                     static_cast<VertexId>(*v)));
  }
  return Graph::from_edges(max_v + 1, edges);
}

Graph read_edge_list_file(const std::string& path, const IoLimits& limits) {
  auto in = open_in(path);
  return read_edge_list(in, limits);
}

void write_edge_list(const Graph& g, std::ostream& out) {
  out << std::setprecision(17);  // round-trip doubles exactly
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    const auto ws = g.neighbor_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] > v) out << v << ' ' << nbrs[i] << ' ' << ws[i] << '\n';
    }
  }
}

std::vector<int> read_partition(std::istream& in) {
  std::string line;
  std::int64_t line_no = 0;
  std::vector<int> parts;
  while (next_line(in, line, line_no)) {
    const auto t = trim(line);
    if (t.empty()) continue;
    const auto p = parse_int(t);
    if (!p || *p < 0 || *p > std::numeric_limits<int>::max()) {
      fail(line_no, "invalid part id");
    }
    parts.push_back(static_cast<int>(*p));
  }
  return parts;
}

std::vector<int> read_partition_file(const std::string& path) {
  auto in = open_in(path);
  return read_partition(in);
}

void write_partition(std::span<const int> parts, std::ostream& out) {
  for (int p : parts) out << p << '\n';
}

void write_partition_file(std::span<const int> parts,
                          const std::string& path) {
  // Atomic replace, same contract as write_chaco_file: downstream tooling
  // reading a .part mid-rewrite sees the old partition or the new one.
  std::ostringstream out;
  write_partition(parts, out);
  persist::atomic_write_file(path, out.str());
}

}  // namespace ffp
