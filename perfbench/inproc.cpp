// perfbench_inproc — the in-process half of the repository benchmark.
// perfbench/run.py is the entry point; it writes a plan, runs this program
// and turns the raw measurements it prints into metrics.
//
//   perfbench_inproc host              host record: nproc, calibration burn,
//                                      compiler, build type
//   perfbench_inproc graphs SPECS OUT  generator specs (one per line) ->
//                                      inline protocol graphs (JSON lines)
//   perfbench_inproc offline PLAN OUT  ff_solve / mlff_large: repeated
//                                      setup, timed closed loop, output
//                                      checks, and (traced) layer probes
//   perfbench_inproc replay PLAN OUT   fleet_serve: the wire submit lines
//                                      replayed into an in-process Engine
//                                      configured like a shard, plus layer
//                                      probes on the fleet's graphs
//
// Only public entry points are called (api::Engine, api::Problem,
// FusionFission, coarsen_chain, mlff_partition, parse_request,
// format_terminal, persist::atomic_write_file), and spans are recorded
// around those calls, never inside the library.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ffp/api.hpp"
#include "graph/io.hpp"
#include "multilevel/coarsen.hpp"
#include "multilevel/mlff.hpp"
#include "persist/atomic_file.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "util/rng.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using ffp::JobStatus;
using ffp::JsonValue;
namespace api = ffp::api;

double now_s() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

// ---------------------------------------------------------------- JSON out ---

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string jstr(std::string_view s) {
  std::string out;
  ffp::json_append_quoted(out, s);
  return out;
}

std::string num_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += num(values[i]);
  }
  return out + "]";
}

/// Raw per-layer samples, keyed by name; printed as {"name":[...],...}.
class Samples {
 public:
  void add(const std::string& name, double v) {
    for (auto& [key, values] : data_) {
      if (key == name) {
        values.push_back(v);
        return;
      }
    }
    data_.push_back({name, {v}});
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < data_.size(); ++i) {
      if (i > 0) out += ',';
      out += jstr(data_[i].first) + ":" + num_list(data_[i].second);
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::vector<double>>> data_;
};

// ----------------------------------------------------------------- tracer ---

/// In-memory span recorder. Spans are kept until the run ends and then
/// written as one JSON array; run.py computes self times from them. A
/// disabled tracer records nothing, so untraced work pays one branch.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
    std::int64_t request = -1;
  };

  bool enabled = false;

  int open(std::string name, int parent = -1, std::int64_t request = -1) {
    if (!enabled) return -1;
    std::lock_guard lock(mu_);
    spans_.push_back({std::move(name), now_s(), 0.0, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    if (id < 0) return;
    const double t = now_s();
    std::lock_guard lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = t;
  }
  /// A span whose bounds were measured elsewhere (e.g. the solver seconds
  /// a JobStatus reports, placed at the end of the wait that covered it).
  int add(std::string name, double start, double end, int parent,
          std::int64_t request) {
    if (!enabled) return -1;
    std::lock_guard lock(mu_);
    spans_.push_back({std::move(name), start, end, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }

  std::string json() const {
    std::lock_guard lock(mu_);
    std::string out = "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i > 0) out += ",\n";
      out += "{\"id\":" + std::to_string(i) + ",\"name\":" + jstr(s.name) +
             ",\"start\":" + num(s.start) + ",\"end\":" + num(s.end) +
             ",\"parent\":" + std::to_string(s.parent) +
             ",\"request\":" + std::to_string(s.request) + "}";
    }
    return out + "]";
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

Tracer g_tracer;

class Scope {
 public:
  explicit Scope(std::string name, int parent = -1, std::int64_t request = -1)
      : id_(g_tracer.open(std::move(name), parent, request)), t0_(now_s()) {}
  ~Scope() { g_tracer.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }
  double elapsed() const { return now_s() - t0_; }

 private:
  int id_;
  double t0_;
};

// ------------------------------------------------------------------ plans ---

JsonValue read_json(const std::string& path) {
  std::ifstream in(path);
  FFP_CHECK(in.good(), "cannot open ", path);
  std::stringstream ss;
  ss << in.rdbuf();
  return JsonValue::parse(ss.str());
}

const JsonValue& need(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.find(key);
  FFP_CHECK(v != nullptr, "plan is missing '", std::string(key), "'");
  return *v;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  FFP_CHECK(out.good(), "cannot write ", path);
}

// ----------------------------------------------------------------- checks ---

/// Mcut recomputed from the CSR arrays alone (no Partition statistics):
/// Σ_parts cut(A) / W(A), W counting each internal edge twice, with the
/// library's documented zero-denominator penalty.
double mcut_from_scratch(const ffp::Graph& g, std::span<const int> parts,
                         int num_parts) {
  std::vector<double> cut(static_cast<std::size_t>(num_parts), 0.0);
  std::vector<double> internal(static_cast<std::size_t>(num_parts), 0.0);
  const auto xadj = g.xadj();
  const auto adj = g.adj();
  const auto w = g.arc_weights();
  for (ffp::VertexId v = 0; v < g.num_vertices(); ++v) {
    const int pv = parts[static_cast<std::size_t>(v)];
    for (auto a = xadj[v]; a < xadj[v + 1]; ++a) {
      const int pu = parts[static_cast<std::size_t>(adj[a])];
      (pu == pv ? internal : cut)[static_cast<std::size_t>(pv)] += w[a];
    }
  }
  double total = 0.0;
  for (int q = 0; q < num_parts; ++q) {
    const double c = cut[static_cast<std::size_t>(q)];
    const double in = internal[static_cast<std::size_t>(q)];
    if (c <= 0.0) continue;
    total += in <= 0.0 ? c * ffp::kZeroDenominatorPenalty : c / in;
  }
  return total;
}

/// Empty when the result is a valid k-partition whose reported value
/// matches a from-scratch evaluation; the reason otherwise.
std::string check_result(const ffp::Graph& g, int k,
                         const ffp::SolverResult& r) {
  const auto parts = r.best.assignment();
  if (static_cast<ffp::VertexId>(parts.size()) != g.num_vertices()) {
    return "assignment length " + std::to_string(parts.size()) +
           " != n " + std::to_string(g.num_vertices());
  }
  int max_part = -1;
  for (int p : parts) {
    if (p < 0) return "negative part id";
    max_part = std::max(max_part, p);
  }
  std::vector<char> used(static_cast<std::size_t>(max_part + 1), 0);
  for (int p : parts) used[static_cast<std::size_t>(p)] = 1;
  const auto nonempty = std::count(used.begin(), used.end(), 1);
  if (nonempty != k) {
    return std::to_string(nonempty) + " non-empty parts, expected " +
           std::to_string(k);
  }
  const double fresh = mcut_from_scratch(g, parts, max_part + 1);
  const double tol = 1e-9 * std::max(1.0, std::abs(fresh));
  if (!(std::abs(fresh - r.best_value) <= tol)) {
    return "reported value " + num(r.best_value) + " != evaluated " +
           num(fresh);
  }
  return {};
}

bool same_result(const ffp::SolverResult& a, const ffp::SolverResult& b) {
  const auto pa = a.best.assignment();
  const auto pb = b.best.assignment();
  return a.best_value == b.best_value &&
         std::equal(pa.begin(), pa.end(), pb.begin(), pb.end());
}

// ------------------------------------------------------------ layer probes ---

/// Calls each layer's public functions on one (graph, k, seed, steps)
/// input and records per-layer samples. `threads` is the engine width of
/// mlff's coarse phase and of the batched core run; `core_on_coarse`
/// points the core probe at the coarsest graph of the chain (where FF
/// works inside mlff) instead of the input graph.
void probe_graph(const ffp::Graph& g, int k, std::uint64_t seed,
                 std::int64_t steps, unsigned threads,
                 ffp::ThreadBudget& budget, bool core_on_coarse,
                 Samples& out) {
  // multilevel: replicate mlff's derived coarsening and coarse FF options
  // (multilevel/mlff.cpp) so the two stage timings are the stages mlff
  // itself runs; project+refine is the remainder of the full call.
  std::uint64_t stream = seed ^ 0x6d1cff00d5eedULL;
  const std::uint64_t coarsen_seed = ffp::splitmix64(stream);
  const std::uint64_t ff_seed = ffp::splitmix64(stream);
  std::int64_t target = std::max<std::int64_t>(
      static_cast<std::int64_t>(k) * 64,
      static_cast<std::int64_t>(g.num_vertices()) / 64);
  target = std::max<std::int64_t>(target, 2LL * k);
  ffp::CoarsenOptions copt;
  copt.min_vertices = static_cast<int>(
      std::min<std::int64_t>(target, g.num_vertices()));
  copt.seed = coarsen_seed;
  std::vector<ffp::CoarseLevel> chain;
  {
    Scope s("multilevel.coarsen");
    chain = ffp::coarsen_chain(g, copt);
    out.add("multilevel.coarsen_s", s.elapsed());
  }
  const ffp::Graph& coarse = chain.empty() ? g : chain.back().coarse;
  {
    ffp::FusionFissionOptions ffopt;
    ffopt.threads = static_cast<int>(threads);
    ffopt.budget = &budget;
    ffopt.seed = ff_seed;
    Scope s("multilevel.coarse_solve");
    ffp::FusionFission ff(coarse, k, ffopt);
    ff.run(ffp::StopCondition::after_steps(steps));
    out.add("multilevel.coarse_solve_s", s.elapsed());
  }
  {
    ffp::MlffOptions mopt;
    mopt.threads = static_cast<int>(threads);
    mopt.budget = &budget;
    mopt.seed = seed;
    Scope s("multilevel.mlff");
    const ffp::MlffResult r = ffp::mlff_partition(
        g, k, mopt, ffp::StopCondition::after_steps(steps));
    const double total = s.elapsed();
    out.add("multilevel.total_s", total);
    out.add("multilevel.refine_attempts",
            static_cast<double>(r.refine_attempts));
    out.add("multilevel.refine_moves", static_cast<double>(r.refine_moves));
    out.add("multilevel.levels", r.levels);
    out.add("multilevel.coarse_vertices", r.coarse_vertices);
  }

  // core: Algorithm 2 alone, then full serial and batched runs.
  const ffp::Graph& cg = core_on_coarse ? coarse : g;
  ffp::FusionFissionOptions base;
  base.seed = seed;
  {
    ffp::FusionFission ff(cg, k, base);
    Scope s("core.initialize");
    ff.initialize();
    out.add("core.init_s", s.elapsed());
  }
  {
    ffp::FusionFission ff(cg, k, base);
    Scope s("core.run.serial");
    const auto r = ff.run(ffp::StopCondition::after_steps(steps));
    out.add("core.serial_s", s.elapsed());
    out.add("core.serial_steps", static_cast<double>(r.steps));
    out.add("core.fusions", static_cast<double>(r.fusions));
    out.add("core.fissions", static_cast<double>(r.fissions));
  }
  {
    ffp::FusionFissionOptions bopt = base;
    bopt.threads = static_cast<int>(threads);
    bopt.budget = &budget;
    ffp::FusionFission ff(cg, k, bopt);
    const double cpu0 = cpu_s();
    Scope s("core.run.batched");
    const auto r = ff.run(ffp::StopCondition::after_steps(steps));
    const double wall = s.elapsed();
    out.add("core.batched_s", wall);
    out.add("core.batched_cpu_s", cpu_s() - cpu0);
    out.add("core.batched_steps", static_cast<double>(r.steps));
    out.add("core.conflicts", static_cast<double>(r.conflicts));
    out.add("core.stale_redone", static_cast<double>(r.stale_redone));
  }
}

/// graph.read / graph.digest on a METIS file, through Problem::from_file.
void probe_read(const std::string& path, Samples& out) {
  api::Problem p;
  {
    Scope s("graph.read");
    p = api::Problem::from_file(path);
    out.add("graph.read_s", s.elapsed());
  }
  out.add("graph.read_bytes",
          static_cast<double>(std::filesystem::file_size(path)));
  Scope s("graph.digest");
  (void)p.digest();
  out.add("graph.digest_s", s.elapsed());
}

/// persist::atomic_write_file of a result-sized payload (temp + fsync +
/// rename + directory fsync), a few times.
void probe_persist(const std::string& dir, std::size_t bytes, Samples& out) {
  const std::string payload(std::max<std::size_t>(bytes, 1), 'x');
  for (int i = 0; i < 5; ++i) {
    Scope s("persist.write");
    ffp::persist::atomic_write_file(dir + "/persist_probe.json", payload);
    out.add("persist.write_s", s.elapsed());
  }
}

// ------------------------------------------------------------------- host ---

/// splitmix64, kept here rather than taken from util/rng.hpp so that the
/// host-speed burns below do not change when the library does.
std::uint64_t mix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// A fixed, program-independent integer burn on `threads` threads at once
/// (1 when `threads` is 0); returns its wall seconds. Timed next to every
/// job at that job's thread count, it tracks how fast the (shared) host is
/// running at that moment for work of that width: a batched job waits for
/// its slowest thread, and so does the burn.
double ref_burn(unsigned threads) {
  static std::atomic<std::uint64_t> sink{0};
  auto burn = [] {
    std::uint64_t x = 0x2545f4914f6cdd1dULL;
    std::uint64_t acc = 0;
    for (int i = 0; i < 2'000'000; ++i) acc += mix64(x) >> 61;
    sink += acc;
  };
  const double t0 = now_s();
  std::vector<std::thread> helpers;
  for (unsigned i = 1; i < threads; ++i) helpers.emplace_back(burn);
  burn();
  for (auto& th : helpers) th.join();
  return now_s() - t0;
}

/// Effective parallelism: the same fixed integer burn on 1 thread and on
/// nproc threads at once; nproc * t1 / tN. Median of three trials.
double calibrate(unsigned nproc) {
  auto burn = [] {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    std::uint64_t acc = 0;
    for (int i = 0; i < 100'000'000; ++i) acc += mix64(x) >> 60;
    return acc;
  };
  std::vector<double> ratios;
  for (int trial = 0; trial < 3; ++trial) {
    std::atomic<std::uint64_t> sink{0};
    double t = now_s();
    sink += burn();
    const double t1 = now_s() - t;
    t = now_s();
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < nproc; ++i) {
      threads.emplace_back([&] { sink += burn(); });
    }
    for (auto& th : threads) th.join();
    const double tn = now_s() - t;
    ratios.push_back(static_cast<double>(nproc) * t1 / tn);
    if (sink.load() == 42) std::puts("");  // keep the burn observable
  }
  std::sort(ratios.begin(), ratios.end());
  return ratios[1];
}

int cmd_host() {
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  const unsigned nproc = online > 0 ? static_cast<unsigned>(online) : 1;
  std::printf(
      "{\"nproc\":%u,\"effective_parallelism\":%s,\"compiler\":%s,"
      "\"build_type\":%s}\n",
      nproc, num(calibrate(nproc)).c_str(), jstr(PERFBENCH_COMPILER).c_str(),
      jstr(PERFBENCH_BUILD_TYPE).c_str());
  return 0;
}

// ----------------------------------------------------------------- graphs ---

/// One inline protocol graph: {"n":N,"edges":[[u,v],[u,v,w],...]}, each
/// undirected edge once, the weight only when it is not 1.
std::string inline_graph(const ffp::Graph& g) {
  std::string line = "{\"n\":" + std::to_string(g.num_vertices()) +
                     ",\"edges\":[";
  bool first = true;
  for (ffp::VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto nb = g.neighbors(v);
    const auto wt = g.neighbor_weights(v);
    for (std::size_t i = 0; i < nb.size(); ++i) {
      if (nb[i] <= v) continue;
      if (!first) line += ',';
      first = false;
      line += '[' + std::to_string(v) + ',' + std::to_string(nb[i]);
      if (wt[i] != 1.0) line += ',' + num(wt[i]);
      line += ']';
    }
  }
  return line + "]}";
}

/// Generates every spec (on min(4, nproc) threads) and writes one inline
/// graph per line, in spec order.
int cmd_graphs(const std::string& specs_path, const std::string& out_path) {
  std::vector<std::string> specs;
  {
    std::ifstream in(specs_path);
    FFP_CHECK(in.good(), "cannot open ", specs_path);
    std::string spec;
    while (std::getline(in, spec)) {
      if (!spec.empty()) specs.push_back(spec);
    }
  }
  std::vector<std::string> lines(specs.size());
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::string error;
  auto work = [&] {
    for (std::size_t i = next++; i < specs.size(); i = next++) {
      try {
        lines[i] = inline_graph(api::Problem::generated(specs[i]).graph());
      } catch (const std::exception& e) {
        std::lock_guard lock(error_mu);
        error = specs[i] + ": " + e.what();
      }
    }
  };
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  std::vector<std::thread> threads;
  for (long t = 0; t < std::min<long>(4, std::max<long>(1, online)); ++t) {
    threads.emplace_back(work);
  }
  for (auto& th : threads) th.join();
  FFP_CHECK(error.empty(), "graph generation failed: ", error);
  std::ofstream out(out_path);
  for (const std::string& line : lines) out << line << '\n';
  FFP_CHECK(out.good(), "cannot write ", out_path);
  return 0;
}

// ---------------------------------------------------------------- offline ---

struct GraphSpec {
  std::string name;
  std::string spec;
  int k = 2;
  std::string file;  ///< METIS path under the work dir
};

struct Job {
  int graph = 0;
  std::string method;
  std::uint64_t seed = 1;
  std::int64_t steps = 0;
  unsigned threads = 0;
};

api::SolveSpec make_spec(const Job& job, int k) {
  api::SolveSpec spec;
  spec.method = job.method;
  spec.k = k;
  spec.seed = job.seed;
  spec.steps = job.steps;
  spec.threads = job.threads;
  return spec;
}

std::string submit_line(const std::string& id, const std::string& path,
                        int k, const Job& job) {
  return "{\"op\":\"submit\",\"id\":" + jstr(id) +
         ",\"graph_file\":" + jstr(path) + ",\"k\":" + std::to_string(k) +
         ",\"method\":" + jstr(job.method) +
         ",\"objective\":\"mcut\",\"seed\":" + std::to_string(job.seed) +
         ",\"steps\":" + std::to_string(job.steps) +
         ",\"threads\":" + std::to_string(job.threads) + "}";
}

int cmd_offline(const std::string& plan_path, const std::string& out_path) {
  const JsonValue plan = read_json(plan_path);
  const double seconds = need(plan, "seconds").as_number();
  g_tracer.enabled = need(plan, "trace").as_bool();
  const std::string workdir = need(plan, "workdir").as_string();
  const unsigned threads =
      static_cast<unsigned>(need(plan, "threads").as_int());
  const bool from_file = need(plan, "from_file").as_bool();
  const int setup_repeats =
      static_cast<int>(need(plan, "setup_repeats").as_int());
  const bool core_on_coarse = need(plan, "core_on_coarse").as_bool();

  std::vector<GraphSpec> graphs;
  for (const JsonValue& g : need(plan, "graphs").as_array()) {
    graphs.push_back({need(g, "name").as_string(), need(g, "spec").as_string(),
                      static_cast<int>(need(g, "k").as_int()),
                      workdir + "/" + need(g, "name").as_string() + ".graph"});
  }
  std::vector<Job> jobs;
  for (const JsonValue& j : need(plan, "jobs").as_array()) {
    jobs.push_back({static_cast<int>(need(j, "graph").as_int()),
                    need(j, "method").as_string(),
                    static_cast<std::uint64_t>(need(j, "seed").as_int()),
                    need(j, "steps").as_int(),
                    static_cast<unsigned>(need(j, "threads").as_int())});
  }
  const JsonValue& sample = need(plan, "sample");
  const std::size_t sample_job =
      static_cast<std::size_t>(need(sample, "job").as_int());
  FFP_CHECK(!jobs.empty() && sample_job < jobs.size(), "bad job list");

  ffp::ThreadBudget budget(threads);
  Samples layers;

  // Configured like Engine::shared() (one runner, cache off, default
  // archive) but leasing from a budget of `threads` slots.
  api::EngineOptions engine_options;
  engine_options.runners = 1;
  engine_options.budget = &budget;
  engine_options.cache_capacity = 0;

  // ---- setup, repeated: generate, write files, build the engine, warm up.
  std::vector<double> setup_s, generate_s;
  std::vector<api::Problem> problems;
  std::unique_ptr<api::Engine> engine;
  for (int rep = 0; rep < setup_repeats; ++rep) {
    const double t0 = now_s();
    problems.clear();
    engine.reset();
    for (const GraphSpec& g : graphs) {
      Scope s("graph.generate");
      problems.push_back(api::Problem::generated(g.spec));
    }
    generate_s.push_back(now_s() - t0);
    if (from_file) {
      for (std::size_t i = 0; i < graphs.size(); ++i) {
        ffp::write_chaco_file(problems[i].graph(), graphs[i].file);
      }
    }
    engine = std::make_unique<api::Engine>(engine_options);
    Job warm = jobs.front();
    warm.steps = std::min<std::int64_t>(warm.steps, 200);
    const api::Problem wp =
        from_file ? api::Problem::from_file(graphs[warm.graph].file)
                  : problems[static_cast<std::size_t>(warm.graph)];
    engine->solve(wp, make_spec(warm, graphs[warm.graph].k));
    setup_s.push_back(now_s() - t0);
  }

  // ---- timed closed loop: rounds over the fixed job list until `seconds`.
  // In a traced run even rounds record spans and odd rounds do not, so the
  // tracing overhead is measured on identical work. Each round after the
  // first gets a fresh engine: the engine keeps every finished job, so
  // without this peak_rss_mb would grow with the number of rounds a run
  // manages and a faster build would read as a memory regression.
  struct Record {
    int round;
    std::size_t job;
    double latency;
    double solve;
    double burn;
    bool ok;
  };
  std::vector<Record> records;
  std::vector<std::string> failures;
  std::vector<std::shared_ptr<const ffp::SolverResult>> first(jobs.size());
  std::vector<JobStatus> first_status(jobs.size());
  std::string rounds_json = "[";
  std::int64_t attempted = 0, failed = 0, request = 0;
  const bool trace = g_tracer.enabled;
  const double cpu0 = cpu_s();
  const double t_start = now_s();
  int round = 0;
  for (;; ++round) {
    g_tracer.enabled = trace && round % 2 == 0;
    const double r0 = now_s();
    if (round > 0) engine = std::make_unique<api::Engine>(engine_options);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const Job& job = jobs[j];
      const GraphSpec& gs = graphs[static_cast<std::size_t>(job.graph)];
      const std::int64_t req = request++;
      ++attempted;
      const double burn = ref_burn(job.threads);
      Scope root("job", -1, req);
      const double t0 = now_s();
      JobStatus st;
      api::Problem problem;
      try {
        if (from_file) {
          Scope s("graph.read", root.id(), req);
          problem = api::Problem::from_file(gs.file);
        } else {
          problem = problems[static_cast<std::size_t>(job.graph)];
        }
        api::SolveHandle h;
        {
          Scope s("api.submit", root.id(), req);
          h = engine->submit(problem, make_spec(job, gs.k));
        }
        Scope w("api.wait", root.id(), req);
        st = h.wait();
        g_tracer.add("api.solve", now_s() - st.seconds, now_s(), w.id(), req);
      } catch (const std::exception& e) {
        st.state = ffp::JobState::Failed;
        st.error = e.what();
      }
      const double latency = now_s() - t0;
      std::string why;
      if (st.state != ffp::JobState::Done || st.result == nullptr) {
        why = "job failed: " + st.error;
      } else if (round == 0) {
        why = check_result(problem.graph(), gs.k, *st.result);
        first[j] = st.result;
        first_status[j] = st;
      } else if (first[j] == nullptr || !same_result(*first[j], *st.result)) {
        why = "repeat differs from round 0";
      }
      if (!why.empty()) {
        ++failed;
        if (failures.size() < 20) {
          failures.push_back(gs.name + " job " + std::to_string(j) + ": " + why);
        }
      }
      records.push_back({round, j, latency, st.seconds, burn, why.empty()});
    }
    if (round > 0) rounds_json += ',';
    rounds_json += "{\"seconds\":" + num(now_s() - r0) +
                   ",\"jobs\":" + std::to_string(jobs.size()) +
                   ",\"traced\":" + (g_tracer.enabled ? "true" : "false") + "}";
    const int min_rounds = trace ? 2 : 1;
    if (now_s() - t_start >= seconds && round + 1 >= min_rounds) break;
  }
  rounds_json += "]";
  const double timed_wall = now_s() - t_start;
  const double timed_cpu = cpu_s() - cpu0;
  g_tracer.enabled = trace;

  // ---- determinism sample: one batched job again at threads=1.
  {
    const Job& job = jobs[sample_job];
    Job one = job;
    one.method = need(sample, "method").as_string();
    one.threads = static_cast<unsigned>(need(sample, "threads").as_int());
    const GraphSpec& gs = graphs[static_cast<std::size_t>(job.graph)];
    ++attempted;
    std::string why;
    try {
      const api::Problem problem =
          from_file ? api::Problem::from_file(gs.file)
                    : problems[static_cast<std::size_t>(job.graph)];
      const ffp::SolverResult r =
          engine->solve(problem, make_spec(one, gs.k));
      if (first[sample_job] == nullptr || !same_result(*first[sample_job], r)) {
        why = "threads=" + std::to_string(one.threads) +
              " result differs from threads=" + std::to_string(job.threads);
      }
    } catch (const std::exception& e) {
      why = std::string("sample rerun failed: ") + e.what();
    }
    if (!why.empty()) {
      ++failed;
      failures.push_back(gs.name + " determinism sample: " + why);
    }
  }

  std::vector<double> mcut;
  for (const auto& r : first) {
    if (r != nullptr) mcut.push_back(r->best_value);
  }

  // ---- traced layer probes on this workload's inputs.
  if (trace) {
    std::vector<bool> probed(graphs.size(), false);
    for (const Job& job : jobs) {
      const std::size_t gi = static_cast<std::size_t>(job.graph);
      if (probed[gi]) continue;
      probed[gi] = true;
      if (!from_file) ffp::write_chaco_file(problems[gi].graph(), graphs[gi].file);
      probe_read(graphs[gi].file, layers);
      probe_graph(problems[gi].graph(), graphs[gi].k, job.seed, job.steps,
                  threads, budget, core_on_coarse, layers);
    }
    for (double g : generate_s) layers.add("graph.generate_s", g);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const GraphSpec& gs = graphs[static_cast<std::size_t>(jobs[j].graph)];
      const std::string line =
          submit_line("j" + std::to_string(j), gs.file, gs.k, jobs[j]);
      Scope s("service.parse");
      (void)ffp::parse_request(line);
      layers.add("service.parse_s", s.elapsed());
    }
    std::size_t result_bytes = 0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (first[j] == nullptr) continue;
      Scope s("service.format");
      const std::string line =
          ffp::format_terminal("j" + std::to_string(j), first_status[j]);
      layers.add("service.format_s", s.elapsed());
      layers.add("service.result_bytes", static_cast<double>(line.size()));
      result_bytes = std::max(result_bytes, line.size());
    }
    probe_persist(workdir, result_bytes, layers);
    write_file(workdir + "/spans.json", g_tracer.json());
  }

  std::string jobs_json = "[";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    if (i > 0) jobs_json += ",\n";
    jobs_json += "{\"round\":" + std::to_string(r.round) +
                 ",\"job\":" + std::to_string(r.job) +
                 ",\"latency_s\":" + num(r.latency) +
                 ",\"solve_s\":" + num(r.solve) +
                 ",\"burn_s\":" + num(r.burn) +
                 ",\"ok\":" + (r.ok ? "true" : "false") + "}";
  }
  jobs_json += "]";
  std::string failures_json = "[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    if (i > 0) failures_json += ',';
    failures_json += jstr(failures[i]);
  }
  failures_json += "]";

  write_file(out_path,
             "{\"setup_s\":" + num_list(setup_s) +
                 ",\"rounds\":" + rounds_json + ",\"records\":" + jobs_json +
                 ",\"mcut\":" + num_list(mcut) +
                 ",\"attempted\":" + std::to_string(attempted) +
                 ",\"failed\":" + std::to_string(failed) +
                 ",\"failures\":" + failures_json +
                 ",\"timed_wall_s\":" + num(timed_wall) +
                 ",\"timed_cpu_s\":" + num(timed_cpu) +
                 ",\"peak_rss_kb\":" + std::to_string(peak_rss_kb()) +
                 ",\"layers\":" + layers.json() + "}\n");
  return 0;
}

// ----------------------------------------------------------------- replay ---

/// fleet_serve's wire submit lines, replayed on their due schedule into an
/// Engine configured like one shard (2 runners over a 2-slot budget, the
/// default cache and archive, a fresh state dir). Records api.* spans and
/// then probes the other layers on a sample of the fleet's graphs.
int cmd_replay(const std::string& plan_path, const std::string& out_path) {
  const JsonValue plan = read_json(plan_path);
  g_tracer.enabled = true;
  const std::string workdir = need(plan, "workdir").as_string();
  const unsigned threads = static_cast<unsigned>(need(plan, "threads").as_int());
  const unsigned shard_runners =
      static_cast<unsigned>(need(plan, "shard_runners").as_int());
  std::vector<std::string> lines;
  {
    std::ifstream in(need(plan, "lines").as_string());
    FFP_CHECK(in.good(), "cannot open the replay lines");
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  std::vector<double> due;
  for (const JsonValue& d : need(plan, "due").as_array()) due.push_back(d.as_number());
  FFP_CHECK(due.size() == lines.size(), "due/lines length mismatch");

  Samples layers;
  std::size_t result_bytes = 0;
  ffp::ThreadBudget shard_budget(shard_runners);
  std::filesystem::create_directories(workdir + "/replay-state");
  {
    api::EngineOptions eo;
    eo.runners = shard_runners;
    eo.budget = &shard_budget;
    eo.cache_capacity = 64;
    eo.state_dir = workdir + "/replay-state";
    api::Engine engine(eo);

    struct Done {
      std::mutex mu;
      std::vector<double> end;  // terminal time per request
      std::vector<JobStatus> status;
    } done;
    done.end.assign(lines.size(), 0);
    done.status.resize(lines.size());
    std::vector<double> submitted(lines.size(), 0);
    std::vector<api::SolveHandle> handles(lines.size());
    std::vector<std::string> ids(lines.size());

    const double t0 = now_s();
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const double wait = t0 + due[i] - now_s();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      const std::int64_t req = static_cast<std::int64_t>(i);
      ffp::Request request;
      {
        Scope s("service.parse", -1, req);
        request = ffp::parse_request(lines[i]);
        layers.add("service.parse_s", s.elapsed());
      }
      ids[i] = request.id;
      api::Problem problem = api::Problem::from_shared(request.inline_graph);
      {
        Scope s("graph.digest", -1, req);
        (void)problem.digest();
        layers.add("graph.digest_s", s.elapsed());
      }
      Scope s("api.submit", -1, req);
      handles[i] = engine.submit(
          problem, request.spec, {}, [&done, i](const JobStatus& st) {
            std::lock_guard lock(done.mu);
            done.end[i] = now_s();
            done.status[i] = st;
          });
      submitted[i] = now_s();
    }
    engine.drain();
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const std::int64_t req = static_cast<std::int64_t>(i);
      JobStatus st;
      if (handles[i].cached()) {
        st = handles[i].poll();  // answered at submit: no wait, no solve
      } else {
        std::lock_guard lock(done.mu);
        st = done.status[i];
        const int w = g_tracer.add("api.wait", submitted[i],
                                   std::max(done.end[i], submitted[i]), -1, req);
        g_tracer.add("api.solve", done.end[i] - st.seconds, done.end[i], w, req);
      }
      if (st.result != nullptr) {
        Scope s("service.format", -1, req);
        const std::string line = ffp::format_terminal(ids[i], st);
        layers.add("service.format_s", s.elapsed());
        layers.add("service.result_bytes", static_cast<double>(line.size()));
        result_bytes = std::max(result_bytes, line.size());
      }
    }
  }

  // Layer probes on the sampled fleet graphs (written as METIS files).
  ffp::ThreadBudget budget(threads);
  for (const JsonValue& p : need(plan, "probes").as_array()) {
    const ffp::Request request = ffp::parse_request(lines[static_cast<std::size_t>(
        need(p, "line").as_int())]);
    const std::string file = workdir + "/probe-" +
                             std::to_string(need(p, "line").as_int()) + ".graph";
    {
      Scope s("graph.generate");
      (void)api::Problem::generated(need(p, "spec").as_string());
      layers.add("graph.generate_s", s.elapsed());
    }
    ffp::write_chaco_file(*request.inline_graph, file);
    probe_read(file, layers);
    probe_graph(*request.inline_graph, request.spec.k, request.spec.seed,
                request.spec.steps, threads, budget, false, layers);
  }
  probe_persist(workdir, result_bytes, layers);
  write_file(workdir + "/replay-spans.json", g_tracer.json());
  write_file(out_path, "{\"layers\":" + layers.json() + "}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string cmd = argc > 1 ? argv[1] : "";
    if (cmd == "host" && argc == 2) return cmd_host();
    if (cmd == "graphs" && argc == 4) return cmd_graphs(argv[2], argv[3]);
    if (cmd == "offline" && argc == 4) return cmd_offline(argv[2], argv[3]);
    if (cmd == "replay" && argc == 4) return cmd_replay(argv[2], argv[3]);
    std::fprintf(stderr,
                 "usage: perfbench_inproc host | graphs SPECS OUT | "
                 "offline PLAN OUT | replay PLAN OUT\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_inproc: %s\n", e.what());
    return 1;
  }
}
