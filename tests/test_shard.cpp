// Shard suite: the consistent-hash ring, the digest-keyed Router front
// end, and inter-shard elite migration.
//
// The scale-out contract under test:
//   * the ring is deterministic, balanced, and remaps ~1/N of digests
//     when a shard is added (never a full reshuffle);
//   * repeat submissions of one graph through the router land on ONE
//     shard — its result cache answers the repeats (digest affinity);
//   * the router runs on the event loop: 1024 clients cost no threads,
//     progress streams relay live, and a backend the shard closed is
//     noticed when it happens — its goodbye answers nobody, and the next
//     op pinned there gets a retryable error naming its job;
//   * a shard SIGKILLed mid-batch costs retries, not results: the
//     router's failover and retryable errors plus the client's
//     resubmission loop land every job on the survivor, byte-identical
//     to a fault-free run — and so do injected faults on every
//     connection in the fleet;
//   * an elite migrated between shards is admitted through the peer's
//     diversity-aware archive rules and is visible in its counters.
#include "shard/hash_ring.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/problem.hpp"
#include "net/event_loop.hpp"
#include "service/client.hpp"
#include "service/json.hpp"
#include "service/net.hpp"
#include "service/service.hpp"
#include "shard/migrate.hpp"
#include "shard/router.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace ffp {
namespace {

using shard::HashRing;

TEST(HashRing, DeterministicAndInRange) {
  const HashRing a(4, 64);
  const HashRing b(4, 64);
  std::uint64_t state = 42;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t digest = splitmix64(state);
    const std::size_t owner = a.owner(digest);
    EXPECT_LT(owner, 4u);
    EXPECT_EQ(owner, b.owner(digest));  // same construction, same ring
    const auto pref = a.preference(digest);
    ASSERT_EQ(pref.size(), 4u);
    EXPECT_EQ(pref[0], owner);  // preference starts at the owner
    EXPECT_EQ(std::set<std::size_t>(pref.begin(), pref.end()).size(), 4u);
  }
}

TEST(HashRing, SpreadsLoadAcrossShards) {
  const HashRing ring(4, 64);
  std::vector<int> hits(4, 0);
  std::uint64_t state = 7;
  constexpr int kDigests = 4000;
  for (int i = 0; i < kDigests; ++i) {
    ++hits[ring.owner(splitmix64(state))];
  }
  for (int s = 0; s < 4; ++s) {
    // Fair share is 1000; vnode placement noise stays well inside 2x.
    EXPECT_GT(hits[s], kDigests / 10) << "shard " << s << " starved";
    EXPECT_LT(hits[s], kDigests / 2) << "shard " << s << " overloaded";
  }
}

TEST(HashRing, AddingAShardRemapsABoundedFraction) {
  const HashRing three(3, 64);
  const HashRing four(4, 64);
  std::uint64_t state = 99;
  constexpr int kDigests = 4000;
  int moved = 0;
  for (int i = 0; i < kDigests; ++i) {
    const std::uint64_t digest = splitmix64(state);
    const std::size_t before = three.owner(digest);
    const std::size_t after = four.owner(digest);
    if (before != after) {
      ++moved;
      // Every move is TO the new shard; 0..2 never trade among themselves.
      EXPECT_EQ(after, 3u);
    }
  }
  // Expected ~1/4 of keys move; a naive mod-N rehash moves ~3/4.
  EXPECT_LT(moved, kDigests / 2);
  EXPECT_GT(moved, kDigests / 20);
}

// ------------------------------------------------------------------------
// In-process fleet harness: N shard servers + one router, all pumping in
// background threads.

struct Shard {
  explicit Shard(ServiceOptions sopt = options(),
                 EventLoopOptions lopt = server_options())
      : host(std::move(sopt)),
        server(service_loop(host, std::move(lopt))),
        pump([this] { server.run(); }) {}

  ~Shard() {
    server.request_stop();
    if (pump.joinable()) pump.join();
  }

  static ServiceOptions options() {
    ServiceOptions o;
    o.runners = 2;
    return o;
  }
  static EventLoopOptions server_options() {
    EventLoopOptions o;
    o.port = 0;
    return o;
  }

  int port() const { return server.port(); }

  ServiceHost host;
  EventLoopServer server;
  std::thread pump;
};

struct Fleet {
  explicit Fleet(std::size_t shards, shard::RouterOptions ropt = {},
                 ServiceOptions sopt = Shard::options(),
                 EventLoopOptions lopt = Shard::server_options()) {
    for (std::size_t s = 0; s < shards; ++s) {
      members.push_back(std::make_unique<Shard>(sopt, lopt));
      ropt.shard_ports.push_back(members.back()->port());
    }
    router = std::make_unique<shard::Router>(std::move(ropt));
    pump = std::thread([this] { router->run(); });
  }

  ~Fleet() {
    router->request_stop();
    if (pump.joinable()) pump.join();
  }

  int port() const { return router->port(); }

  std::vector<std::unique_ptr<Shard>> members;
  std::unique_ptr<shard::Router> router;
  std::thread pump;
};

ServiceClientOptions fleet_client(int port) {
  ServiceClientOptions options;
  options.port = port;
  options.retry.max_attempts = 8;
  options.retry.base_ms = 5;
  options.retry.max_ms = 50;
  options.retry.seed = 23;
  options.io_timeout_ms = 20000;
  return options;
}

std::string ring_submit(const std::string& id, int n, int seed,
                        int steps = 400) {
  std::string edges = "[";
  for (int v = 0; v < n; ++v) {
    if (v > 0) edges += ",";
    edges += "[" + std::to_string(v) + "," + std::to_string((v + 1) % n) + "]";
  }
  edges += "]";
  return "{\"op\":\"submit\",\"id\":\"" + id + "\",\"graph\":{\"n\":" +
         std::to_string(n) + ",\"edges\":" + edges +
         "},\"k\":2,\"steps\":" + std::to_string(steps) +
         ",\"seed\":" + std::to_string(seed) + "}";
}

std::map<std::string, std::pair<std::vector<int>, double>> outcomes(
    const std::vector<ClientResult>& results, bool must_succeed) {
  std::map<std::string, std::pair<std::vector<int>, double>> out;
  for (const ClientResult& r : results) {
    if (must_succeed) {
      EXPECT_TRUE(r.ok) << r.id << " failed [" << err_name(r.code)
                        << "]: " << r.error;
    }
    if (!r.ok) continue;
    const JsonValue event = JsonValue::parse(r.result_line);
    std::vector<int> parts;
    for (const auto& p : event.find("partition")->as_array()) {
      parts.push_back(static_cast<int>(p.as_int()));
    }
    out[r.id] = {std::move(parts), event.find("value")->as_number()};
  }
  return out;
}

TEST(Router, RepeatSubmissionsStickToOneShardAndHitItsCache) {
  Fleet fleet(2);
  ServiceClient client(fleet_client(fleet.port()));

  // Same graph + spec under three ids, submitted ONE AT A TIME (so each
  // repeat finds the previous result already cached): one solve, two
  // cache hits — all on the SAME shard, or affinity is broken.
  std::map<std::string, std::pair<std::vector<int>, double>> results;
  for (int i = 0; i < 3; ++i) {
    const std::string id = "a" + std::to_string(i);
    const auto one =
        outcomes(client.run({ClientJob{id, ring_submit(id, 12, 5)}}), true);
    results.insert(one.begin(), one.end());
  }
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results.at("a0"), results.at("a1"));
  EXPECT_EQ(results.at("a0"), results.at("a2"));

  const auto c0 = fleet.members[0]->host.engine().cache_counters();
  const auto c1 = fleet.members[1]->host.engine().cache_counters();
  EXPECT_EQ(c0.hits + c1.hits, 2) << "expected exactly two cache hits";
  EXPECT_TRUE(c0.hits == 0 || c1.hits == 0)
      << "one graph spread across both shards: affinity broken "
      << "(hits " << c0.hits << " + " << c1.hits << ")";
  // Different graphs DO spread (eventually): not asserted here — vnode
  // placement for two specific digests may legitimately collide.
}

TEST(Router, StatusOfUnroutedJobIsUnknownAndShutdownIsGated) {
  Fleet fleet(2);
  FdHandle conn = tcp_connect(fleet.port());
  LineReader reader(conn);
  reader.set_timeout_ms(10000);
  std::string line;

  write_line(conn, R"({"op":"status","id":"ghost"})");
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(JsonValue::parse(line).find("code")->as_string(), "unknown_job")
      << line;

  write_line(conn, R"({"op":"shutdown"})");
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(JsonValue::parse(line).find("code")->as_string(), "forbidden")
      << line;

  // migrate_elite is shard-to-shard gossip; the front door refuses it.
  write_line(conn,
             R"({"op":"migrate_elite","digest":"1f","k":2,"objective":"cut",)"
             R"("value":1.0,"assignment":[0,1]})");
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(JsonValue::parse(line).find("event")->as_string(), "error")
      << line;

  // ... and the connection survived all three refusals.
  write_line(conn, ring_submit("ok", 12, 5));
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(JsonValue::parse(line).find("event")->as_string(), "ack") << line;
}

/// The shard a router over `shards` shards tries first for this submit.
std::size_t first_shard(const std::string& submit_line, std::size_t shards) {
  const Request request = parse_request(submit_line);
  return HashRing(shards, shard::RouterOptions{}.vnodes)
      .owner(api::graph_digest(*request.inline_graph));
}

std::string field(const std::string& line, const char* name) {
  const JsonValue root = JsonValue::parse(line);
  const JsonValue* value = root.find(name);
  return value != nullptr && value->is_string() ? value->as_string() : "";
}

// A shard reaping the router's idle relay must not leak its goodbye into
// the next op's answer, and an op pinned to a job whose backend is gone
// gets a retryable error naming the job — never a fresh backend session,
// which could only say the id is unknown.
TEST(Router, PinnedOpOnAClosedBackendIsRetryableAndNamesItsJob) {
  EventLoopOptions reaping = Shard::server_options();
  reaping.idle_timeout_ms = 200;
  Fleet fleet(1, {}, Shard::options(), reaping);
  FdHandle conn = tcp_connect(fleet.port());
  LineReader reader(conn);
  reader.set_timeout_ms(10000);
  std::string line;
  write_line(conn, ring_submit("a", 12, 5));
  ASSERT_TRUE(reader.next(line));
  ASSERT_EQ(field(line, "event"), "ack") << line;

  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  const auto expect_retryable = [&] {
    write_line(conn, R"({"op":"status","id":"a"})");
    ASSERT_TRUE(reader.next(line));
    const JsonValue reply = JsonValue::parse(line);
    EXPECT_EQ(field(line, "event"), "error") << line;
    EXPECT_EQ(field(line, "id"), "a") << line;
    ASSERT_NE(reply.find("retryable"), nullptr) << line;
    EXPECT_TRUE(reply.find("retryable")->as_bool()) << line;
  };
  expect_retryable();
  expect_retryable();

  // A later submit dials the shard afresh; `a` is still unknown to that
  // new shard session, so it still gets the retryable error.
  write_line(conn, ring_submit("b", 13, 5));
  ASSERT_TRUE(reader.next(line));
  ASSERT_EQ(field(line, "event"), "ack") << line;
  expect_retryable();
  write_line(conn, R"({"op":"status","id":"b"})");
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(field(line, "event"), "status") << line;
}

// The same situation under a retrying client: a long job on one shard
// holds the client's connection while the other shard reaps its idle
// relay, so the quick job's result op meets a closed backend. The retry
// ends with the result that shard cached.
TEST(Router, ClientRetryRecoversAJobWhoseBackendWasReaped) {
  std::string slow;
  std::string quick;
  for (int n = 8; n < 64 && (slow.empty() || quick.empty()); ++n) {
    const std::string s = ring_submit("slow", n, 3, 500000);
    const std::string q = ring_submit("quick", n, 4);
    if (slow.empty() && first_shard(s, 2) == 0) slow = s;
    if (quick.empty() && first_shard(q, 2) == 1) quick = q;
  }
  ASSERT_FALSE(slow.empty() || quick.empty());

  std::map<std::string, std::pair<std::vector<int>, double>> reference;
  {
    Shard solo;
    ServiceClient client(fleet_client(solo.port()));
    reference = outcomes(client.run({ClientJob{"quick", quick}}), true);
  }

  EventLoopOptions reaping = Shard::server_options();
  reaping.idle_timeout_ms = 200;
  Fleet fleet(2, {}, Shard::options(), reaping);
  ServiceClientOptions options = fleet_client(fleet.port());
  int backoffs = 0;
  options.on_backoff = [&backoffs](int, double, const std::string&) {
    ++backoffs;
  };
  ServiceClient client(options);
  const auto results =
      outcomes(client.run({ClientJob{"slow", slow}, ClientJob{"quick", quick}}),
               true);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results.at("quick"), reference.at("quick"));
  EXPECT_GE(backoffs, 1) << "the reaped relay never cost a retry";
  EXPECT_GE(fleet.members[1]->host.engine().cache_counters().hits, 1)
      << "the retry did not come from the shard's cache";
}

// A job's progress stream relays as it happens: after the ack, the
// client reads progress without sending another op.
TEST(Router, ProgressStreamsLiveThroughTheRouter) {
  ServiceOptions streaming = Shard::options();
  streaming.stream_progress = true;
  Fleet fleet(1, {}, streaming);

  constexpr int kSide = 32;
  std::string edges = "[";
  for (int v = 0; v < kSide * kSide; ++v) {
    if (v % kSide + 1 < kSide) {
      edges += (edges.size() > 1 ? ",[" : "[") + std::to_string(v) + "," +
               std::to_string(v + 1) + "]";
    }
    if (v + kSide < kSide * kSide) {
      edges += (edges.size() > 1 ? ",[" : "[") + std::to_string(v) + "," +
               std::to_string(v + kSide) + "]";
    }
  }
  edges += "]";
  FdHandle conn = tcp_connect(fleet.port());
  LineReader reader(conn);
  reader.set_timeout_ms(5000);
  write_line(conn, R"({"op":"submit","id":"g","graph":{"n":)" +
                       std::to_string(kSide * kSide) + R"(,"edges":)" +
                       edges + R"(},"k":8,"budget_ms":3000,"seed":1})");
  std::string line;
  do {
    ASSERT_TRUE(reader.next(line));
  } while (field(line, "event") == "progress");
  ASSERT_EQ(field(line, "event"), "ack") << line;
  ASSERT_TRUE(reader.next(line)) << "no progress after the ack";
  EXPECT_EQ(field(line, "event"), "progress") << line;
  EXPECT_EQ(field(line, "id"), "g") << line;
}

int thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return -1;
}

// The router holds >= 1024 clients on the event loop: every one gets an
// answer (status of an unrouted job is answered locally, with no
// backend), and the process thread count does not move.
TEST(Router, SustainsAThousandClientsWithBoundedThreads) {
  // Two fds per connection (client + router end), plus slack.
  rlimit limit{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &limit), 0);
  const rlim_t wanted = 4096;
  if (limit.rlim_cur < wanted && limit.rlim_max >= wanted) {
    rlimit raised = limit;
    raised.rlim_cur = wanted;
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &raised), 0);
  } else if (limit.rlim_max < wanted) {
    GTEST_SKIP() << "RLIMIT_NOFILE hard cap " << limit.rlim_max
                 << " cannot hold 2x1024 sockets";
  }

  constexpr int kConns = 1024;
  shard::RouterOptions ropt;
  ropt.loop.max_clients = kConns + 8;
  Fleet fleet(1, ropt);
  const int threads_before = thread_count();
  ASSERT_GT(threads_before, 0);

  std::vector<FdHandle> conns;
  conns.reserve(kConns);
  for (int i = 0; i < kConns; ++i) conns.push_back(tcp_connect(fleet.port()));
  for (const FdHandle& conn : conns) {
    write_line(conn, R"({"op":"status","id":"probe"})", 10000);
  }
  for (int i = 0; i < kConns; ++i) {
    LineReader reader(conns[static_cast<std::size_t>(i)]);
    reader.set_timeout_ms(20000);
    std::string line;
    ASSERT_TRUE(reader.next(line)) << "connection " << i << " got no reply";
    EXPECT_EQ(field(line, "code"), "unknown_job") << line;
  }
  EXPECT_LE(thread_count(), threads_before)
      << "the router grew threads with its client count";

  // With all of that held open, a job still relays end to end.
  ServiceClient client(fleet_client(fleet.port()));
  EXPECT_EQ(outcomes(client.run({ClientJob{"ok", ring_submit("ok", 12, 5)}}),
                     true)
                .size(),
            1u);
}

// Chaos through the fleet: FFP_FAULT fires on the client's, the router's
// (client side and shard relays) and the shards' connections alike, and
// the retrying client still ends with the fault-free bytes.
TEST(RouterChaos, MixedFaultsThroughTheFleetKeepResultsByteIdentical) {
  std::vector<ClientJob> jobs;
  for (int i = 0; i < 4; ++i) {
    const std::string id = "x" + std::to_string(i);
    jobs.push_back({id, ring_submit(id, 10 + i, 41 + i)});
  }
  std::map<std::string, std::pair<std::vector<int>, double>> reference;
  {
    Shard solo;
    ServiceClient client(fleet_client(solo.port()));
    reference = outcomes(client.run(jobs), true);
  }
  ASSERT_EQ(reference.size(), jobs.size());

  shard::RouterOptions ropt;
  ropt.down_cooldown_ms = 50;
  Fleet fleet(2, ropt);
  struct Quiet {  // the injector is off again however the test ends
    ~Quiet() { fault::configure(""); }
  } quiet;
  fault::configure(
      "conn_drop=0.3;short_read=0.3;torn_write=0.2;seed=17;max_fires=6");
  ServiceClient client(fleet_client(fleet.port()));
  const auto chaos = outcomes(client.run(jobs), true);
  const std::int64_t fires = fault::fires();
  fault::configure("");  // quiet before the fleet drains
  EXPECT_GT(fires, 0) << "the scenario injected nothing";
  EXPECT_EQ(chaos, reference) << "faults through the router changed bytes";
}

// ------------------------------------------------------------------------
// Elite migration.

TEST(Migration, ShipsBestEliteAndPeerAdmitsItOnce) {
  Shard sender;
  Shard receiver;

  // Seed the sender's archive directly (what a finished evolve job does).
  const std::uint64_t digest = 0xfeedc0de12345678ull;
  const std::vector<int> parts = {0, 0, 1, 1, 0, 1};
  ASSERT_TRUE(sender.host.engine().archive_admit(
      digest, 2, ObjectiveKind::Cut, parts, 4.0));

  shard::MigrateOptions mopt;
  mopt.peer_ports = {receiver.port()};
  mopt.period_ms = 60000;  // never ticks on its own; we drive it
  shard::EliteMigrator migrator(sender.host.engine(),
                                sender.host.serve_stats(), mopt);

  // First sweep pushes, second is quiet (no improvement since).
  EXPECT_EQ(migrator.migrate_once(), 1u);
  EXPECT_EQ(migrator.migrate_once(), 0u);
  EXPECT_EQ(sender.host.serve_stats().snapshot().migrations_sent, 1);
  EXPECT_EQ(receiver.host.serve_stats().snapshot().migrations_received, 1);

  // The peer's archive now exports the foreign elite, same bytes.
  const auto exports = receiver.host.engine().archive_exports();
  ASSERT_EQ(exports.size(), 1u);
  EXPECT_EQ(exports[0].first.digest, digest);
  EXPECT_EQ(exports[0].first.k, 2);
  EXPECT_EQ(exports[0].second.value, 4.0);
  EXPECT_EQ(*exports[0].second.assignment, parts);

  // An improvement re-triggers the push; a regression never would.
  const std::vector<int> better = {0, 1, 1, 1, 0, 0};
  ASSERT_TRUE(sender.host.engine().archive_admit(digest, 2,
                                                 ObjectiveKind::Cut, better,
                                                 3.0));
  EXPECT_EQ(migrator.migrate_once(), 1u);
  EXPECT_EQ(receiver.host.serve_stats().snapshot().migrations_received, 2);
}

TEST(Migration, DeadPeerIsSkippedWithoutStallingTheSweep) {
  Shard sender;
  int dead_port = 0;
  {
    // Grab an ephemeral port and close it: nothing listens there.
    const FdHandle probe = tcp_listen(0, &dead_port);
  }
  ASSERT_TRUE(sender.host.engine().archive_admit(
      0xabcull, 2, ObjectiveKind::Cut, std::vector<int>{0, 1, 0, 1}, 2.0));

  shard::MigrateOptions mopt;
  mopt.peer_ports = {dead_port};
  mopt.period_ms = 60000;
  mopt.io_timeout_ms = 500;
  shard::EliteMigrator migrator(sender.host.engine(),
                                sender.host.serve_stats(), mopt);
  EXPECT_EQ(migrator.migrate_once(), 0u);
  EXPECT_EQ(sender.host.serve_stats().snapshot().migrations_sent, 0);
  // The elite was NOT marked sent: a revived peer gets it next sweep.
}

// ------------------------------------------------------------------------
// Failover drill: one shard SIGKILLed mid-batch, every job still lands.

struct ShardProc {
  pid_t pid = -1;
  int port = 0;
  int err_fd = -1;

  ~ShardProc() {
    if (err_fd >= 0) ::close(err_fd);
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
  }

  void sigkill() {
    ASSERT_GT(pid, 0);
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    pid = -1;
  }
};

void spawn_shard(ShardProc& proc) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(fds[1], 2);
    ::close(fds[0]);
    ::close(fds[1]);
    ::unsetenv("FFP_FAULT");
    ::execl("./ffp_serve", "ffp_serve", "--listen", "0", "--runners", "2",
            static_cast<char*>(nullptr));
    ::_exit(127);  // exec failed: tests must run from the build dir
  }
  ::close(fds[1]);
  proc.pid = pid;
  proc.err_fd = fds[0];
  std::string text;
  char c = 0;
  while (text.find("listening on 127.0.0.1:") == std::string::npos ||
         text.find('\n', text.find("listening on")) == std::string::npos) {
    const ssize_t n = ::read(proc.err_fd, &c, 1);
    ASSERT_GT(n, 0) << "ffp_serve died before listening; stderr:\n" << text;
    text.push_back(c);
  }
  const std::size_t colon = text.find("127.0.0.1:");
  proc.port = std::atoi(text.c_str() + colon + 10);
  ASSERT_GT(proc.port, 0) << text;
}

std::vector<ClientJob> drill_jobs() {
  std::vector<ClientJob> jobs;
  for (int i = 0; i < 6; ++i) {
    const std::string id = "f" + std::to_string(i);
    // Distinct ring sizes: distinct digests, so both shards get traffic.
    // ~0.5 s of solving each, so the kill below lands while results are
    // still pending.
    jobs.push_back({id, ring_submit(id, 10 + i, 31 + i, 300000)});
  }
  return jobs;
}

/// The fault-free reference: the same batch against one clean in-process
/// shard (no router) — values and partitions are transport-independent.
const std::map<std::string, std::pair<std::vector<int>, double>>&
drill_reference() {
  static const auto reference = [] {
    Shard solo;
    ServiceClient client(fleet_client(solo.port()));
    auto out = outcomes(client.run(drill_jobs()), true);
    EXPECT_EQ(out.size(), 6u);
    return out;
  }();
  return reference;
}

TEST(RouterFailover, SigkilledShardMidBatchCostsRetriesNotResults) {
  const auto& reference = drill_reference();
  // Shard a is shard 0 on the ring; it owns part of the batch, so the
  // kill below has jobs to take down.
  std::size_t on_a = 0;
  for (const ClientJob& job : drill_jobs()) {
    on_a += first_shard(job.submit_line, 2) == 0 ? 1 : 0;
  }
  ASSERT_GT(on_a, 0u);

  ShardProc a;
  ShardProc b;
  spawn_shard(a);
  spawn_shard(b);

  shard::RouterOptions ropt;
  ropt.shard_ports = {a.port, b.port};
  ropt.down_cooldown_ms = 60000;  // once dead, stay out of this drill
  shard::Router router(std::move(ropt));
  std::thread pump([&router] { router.run(); });

  std::vector<ClientResult> results;
  std::thread batch([&] {
    ServiceClient client(fleet_client(router.port()));
    results = client.run(drill_jobs());
  });
  // SIGKILL one shard while its jobs are still solving.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  a.sigkill();
  batch.join();

  const auto survived = outcomes(results, true);
  EXPECT_EQ(survived, reference)
      << "failover changed bytes: determinism contract broken";

  router.request_stop();
  pump.join();
  EXPECT_GE(router.down_marks(), 1) << "the drill never failed over";
}

}  // namespace
}  // namespace ffp
