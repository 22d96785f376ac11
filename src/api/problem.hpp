// api::Problem — the one way a graph enters the facade. A Problem wraps an
// immutable, shareable Graph plus where it came from (file, inline, named
// generator), and lazily computes a content digest over the CSR arrays —
// the graph half of the result-cache key, and the identity concurrent
// sessions share when they submit the same instance.
//
// Every source goes through the hardened entry points: files through the
// untrusted-input Chaco/METIS reader under explicit IoLimits, generators
// through the library's validated constructors. Problems are cheap value
// types (shared_ptr copies); the digest is computed once per underlying
// graph no matter how many copies exist.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "graph/graph.hpp"
#include "graph/io.hpp"

namespace ffp::api {

/// Content digest of a graph: a 64-bit FNV-1a over n, the CSR arrays and
/// both weight lanes. Two graphs with equal digests are treated as equal by
/// the result cache (the usual hashing caveat applies; 64 bits over a
/// cache of tens of entries makes collisions a non-concern).
std::uint64_t graph_digest(const Graph& g);

/// True iff a and b hold byte-equal copies of what graph_digest hashes:
/// n, the CSR arrays and both weight lanes (memcmp, so doubles compare by
/// bit pattern exactly as the digest reads them). Equal digests do not
/// imply this; it is the check that makes sharing graphs by digest safe.
bool same_content(const Graph& a, const Graph& b);

class Problem {
 public:
  /// An empty problem; valid() is false and graph() throws.
  Problem() = default;

  /// Wraps an existing graph (copied into shared ownership).
  static Problem from_graph(Graph g);
  /// Wraps an already-shared graph without copying.
  static Problem from_shared(std::shared_ptr<const Graph> g,
                             std::string source = "inline");
  /// from_shared with the digest injected instead of recomputed — for
  /// callers that cache graphs across Problems (the service host): the
  /// memoized digest survives as long as the CALLER's cache does, keeping
  /// the "one digest scan per underlying graph" promise even though each
  /// request wraps the graph in a fresh Problem.
  static Problem from_shared_with_digest(std::shared_ptr<const Graph> g,
                                         std::uint64_t digest,
                                         std::string source = "inline");
  /// Non-owning view for synchronous embedding (benches looping over
  /// graphs they own): zero-copy, but the caller must keep `g` alive until
  /// every solve submitted on this Problem is terminal. Prefer from_graph /
  /// from_shared for async use.
  static Problem viewing(const Graph& g);
  /// Reads a Chaco/METIS file through the hardened reader.
  static Problem from_file(const std::string& path,
                           const IoLimits& limits = {});
  /// Builds a named generator instance from a `family:arg,arg,...` spec —
  /// the same families ffp_gen exposes:
  ///   grid2d:R,C        grid3d:X,Y,Z      torus:R,C      path:N
  ///   cycle:N           complete:N        star:LEAVES    barbell:CLIQUE,BRIDGE
  ///   caterpillar:SPINE,LEGS              geometric:N,RADIUS,SEED
  ///   powerlaw:N,AVGDEG,GAMMA,SEED        random:N,M,SEED
  ///   atc:SEED[,SECTORS,EDGES]
  /// Throws ffp::Error on unknown families or malformed arguments.
  static Problem generated(std::string_view spec);
  /// Resolves `source` as a generator spec when its `family:` prefix is a
  /// known family, as a file path otherwise — the CLI's --graph grammar.
  static Problem from_any(const std::string& source,
                          const IoLimits& limits = {});

  bool valid() const { return state_ != nullptr; }
  const Graph& graph() const;
  std::shared_ptr<const Graph> share() const;
  /// Where the graph came from ("file:<path>", "gen:<spec>", "inline").
  const std::string& source() const;
  /// Content digest; computed on first call, cached per underlying graph.
  std::uint64_t digest() const;

 private:
  struct State {
    std::shared_ptr<const Graph> graph;
    std::string source;
    mutable std::once_flag digest_once;
    mutable std::uint64_t digest = 0;
  };

  explicit Problem(std::shared_ptr<const State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<const State> state_;
};

}  // namespace ffp::api
