// Chaos suite: the whole serving stack — EventLoopServer + ServiceHost on
// one side, ServiceClient's retry loop on the other, over real loopback
// sockets — driven under every injected fault class (util/fault.hpp).
//
// The contract being proven, per fault class:
//   * no crash, no deadlock (ctest enforces a hard timeout);
//   * every failure a client sees is a STRUCTURED error event
//     (code + retryable), never a silent hang or a garbled line;
//   * completed jobs return byte-identical partitions to a fault-free
//     reference run — retry + resubmission is idempotent because
//     deterministic specs are result-cache keys, so a replayed job is a
//     lookup, not a second solve.
//
// Plus the connection policies that need a real accept loop: immediate
// structured rejection beyond max_clients, idle reaping, forbidden remote
// shutdown, and bounded graceful drain with a job in flight.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "net/event_loop.hpp"
#include "service/client.hpp"
#include "service/json.hpp"
#include "service/net.hpp"
#include "service/service.hpp"
#include "util/fault.hpp"

namespace ffp {
namespace {

/// Every test leaves the global injector off, pass or fail.
struct FaultGuard {
  ~FaultGuard() { fault::configure(""); }
};

/// Host + EventLoopServer on an ephemeral port, run() pumping in a
/// background thread. The destructor drains.
struct ChaosServer {
  explicit ChaosServer(ServiceOptions sopt = service_defaults(),
                       EventLoopOptions topt = server_defaults(),
                       SessionPolicy policy = {})
      : host(std::move(sopt)),
        server(service_loop(host, std::move(topt), policy)),
        pump([this] { server.run(); }) {}

  ~ChaosServer() {
    server.request_stop();
    if (pump.joinable()) pump.join();
  }

  static ServiceOptions service_defaults() {
    ServiceOptions options;
    options.runners = 2;
    return options;
  }
  static EventLoopOptions server_defaults() {
    EventLoopOptions options;
    options.port = 0;
    options.idle_timeout_ms = 10000;
    options.write_timeout_ms = 10000;
    return options;
  }

  int port() const { return server.port(); }

  ServiceHost host;
  EventLoopServer server;
  std::thread pump;
};

/// A small deterministic batch: three step-budgeted jobs on an inline
/// 12-ring, distinct seeds.
std::vector<ClientJob> chaos_jobs() {
  std::string edges = "[";
  for (int v = 0; v < 12; ++v) {
    if (v > 0) edges += ",";
    edges += "[" + std::to_string(v) + "," + std::to_string((v + 1) % 12) +
             "]";
  }
  edges += "]";
  std::vector<ClientJob> jobs;
  for (int i = 0; i < 3; ++i) {
    const std::string id = "c" + std::to_string(i);
    jobs.push_back({id, "{\"op\":\"submit\",\"id\":\"" + id +
                            "\",\"graph\":{\"n\":12,\"edges\":" + edges +
                            "},\"k\":3,\"steps\":500,\"seed\":" +
                            std::to_string(7 + i) + "}"});
  }
  return jobs;
}

ServiceClientOptions chaos_client(int port) {
  ServiceClientOptions options;
  options.port = port;
  options.retry.max_attempts = 8;
  options.retry.base_ms = 5;
  options.retry.max_ms = 50;
  options.retry.seed = 11;
  options.io_timeout_ms = 10000;
  return options;
}

/// id → (partition, value) extracted from the raw result events.
std::map<std::string, std::pair<std::vector<int>, double>> outcomes(
    const std::vector<ClientResult>& results) {
  std::map<std::string, std::pair<std::vector<int>, double>> out;
  for (const ClientResult& r : results) {
    EXPECT_TRUE(r.ok) << r.id << " failed [" << err_name(r.code)
                      << "]: " << r.error;
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

/// The fault-free reference: computed once, compared against by every
/// chaos scenario. Fresh host per call, so no cross-run cache leaks.
const std::map<std::string, std::pair<std::vector<int>, double>>&
reference_outcomes() {
  static const auto reference = [] {
    FaultGuard guard;
    fault::configure("");
    ChaosServer server;
    ServiceClient client(chaos_client(server.port()));
    auto out = outcomes(client.run(chaos_jobs()));
    EXPECT_EQ(out.size(), 3u);
    return out;
  }();
  return reference;
}

/// One chaos scenario: run the standard batch under `spec`, expect full
/// success and byte-identical outcomes vs the reference.
void run_chaos_scenario(const std::string& spec, bool expect_fires) {
  const auto& reference = reference_outcomes();
  FaultGuard guard;
  ChaosServer server;
  fault::configure(spec);
  ServiceClient client(chaos_client(server.port()));
  const auto chaos = outcomes(client.run(chaos_jobs()));
  if (expect_fires) {
    EXPECT_GT(fault::fires(), 0) << "scenario injected nothing: " << spec;
  }
  fault::configure("");  // quiet before the server drains
  EXPECT_EQ(chaos, reference) << "results diverged under: " << spec;
}

TEST(RetryPolicy, BackoffIsDeterministicBoundedAndGrows) {
  RetryPolicy policy;
  policy.base_ms = 100;
  policy.max_ms = 1000;
  policy.seed = 9;
  double cap = policy.base_ms;
  for (int attempt = 1; attempt <= 8; ++attempt) {
    const double wait = policy.backoff_ms(attempt);
    EXPECT_EQ(wait, policy.backoff_ms(attempt));  // deterministic
    EXPECT_GE(wait, cap / 2);                     // full jitter floor
    EXPECT_LE(wait, cap);                         // cap ceiling
    cap = std::min(cap * 2, policy.max_ms);
  }
  // Different seeds → different jitter.
  RetryPolicy other = policy;
  other.seed = 10;
  EXPECT_NE(policy.backoff_ms(3), other.backoff_ms(3));
}

TEST(Chaos, FaultFreeRoundTrip) {
  EXPECT_EQ(reference_outcomes().size(), 3u);
}

TEST(Chaos, SurvivesConnectionDrops) {
  run_chaos_scenario("conn_drop=1;seed=5;max_fires=3", true);
}

TEST(Chaos, SurvivesShortReads) {
  // Probability 1, no budget: EVERY recv in the scenario is one byte —
  // line framing must reassemble from maximal fragmentation.
  run_chaos_scenario("short_read=1;seed=5", true);
}

TEST(Chaos, SurvivesTornWrites) {
  run_chaos_scenario("torn_write=1;seed=5;max_fires=2", true);
}

TEST(Chaos, SurvivesDelayedResponses) {
  run_chaos_scenario("delay_response=1;delay_ms=30;seed=5;max_fires=4", true);
}

TEST(Chaos, SurvivesAcceptFailures) {
  run_chaos_scenario("accept_fail=1;seed=5;max_fires=2", true);
}

TEST(Chaos, SurvivesMixedFaults) {
  run_chaos_scenario(
      "conn_drop=0.3;short_read=0.3;torn_write=0.2;seed=17;max_fires=6",
      false /* probabilistic: may legitimately fire zero times */);
}

TEST(Chaos, OverloadShedsImmediatelyWithStructuredError) {
  EventLoopOptions topt = ChaosServer::server_defaults();
  topt.max_clients = 1;
  topt.overload_retry_after_ms = 123;
  ChaosServer server(ChaosServer::service_defaults(), topt);

  // First connection claims the only slot. Prove the claim landed (the
  // session answers) before dialing the next connection, so the shed is
  // deterministic, not a race with the accept loop.
  FdHandle holder = tcp_connect(server.port());
  {
    LineReader holder_reader(holder);
    holder_reader.set_timeout_ms(5000);
    write_line(holder, R"({"op":"status","id":"nope"})");
    std::string line;
    ASSERT_TRUE(holder_reader.next(line));
    ASSERT_EQ(JsonValue::parse(line).find("code")->as_string(),
              "unknown_job")
        << line;
  }

  // The second connection must be told "overloaded" IMMEDIATELY — not
  // queued behind the holder, not silently hung.
  FdHandle extra = tcp_connect(server.port());
  LineReader reader(extra);
  reader.set_timeout_ms(5000);
  std::string line;
  ASSERT_TRUE(reader.next(line));
  const JsonValue event = JsonValue::parse(line);
  ASSERT_EQ(event.find("event")->as_string(), "error") << line;
  EXPECT_EQ(event.find("code")->as_string(), "overloaded") << line;
  EXPECT_TRUE(event.find("retryable")->as_bool()) << line;
  EXPECT_EQ(event.find("retry_after_ms")->as_number(), 123.0) << line;
  EXPECT_FALSE(reader.next(line));  // ... and then closed.
  extra.reset();
  EXPECT_GE(server.host.serve_stats().snapshot().sheds, 1);  // and counted

  // And once the holder leaves, a retrying client gets real service.
  holder.reset();
  ServiceClient client(chaos_client(server.port()));
  const auto results = client.run(chaos_jobs());
  EXPECT_EQ(outcomes(results), reference_outcomes());
}

TEST(Chaos, IdleConnectionsAreReapedWithAStructuredGoodbye) {
  EventLoopOptions topt = ChaosServer::server_defaults();
  topt.idle_timeout_ms = 200;  // a silent client loses its slot fast
  ChaosServer server(ChaosServer::service_defaults(), topt);

  FdHandle idle = tcp_connect(server.port());
  LineReader reader(idle);
  reader.set_timeout_ms(5000);
  std::string line;
  // Send nothing: within the idle window the server reaps us with a
  // retryable timeout error, then closes.
  ASSERT_TRUE(reader.next(line));
  const JsonValue event = JsonValue::parse(line);
  EXPECT_EQ(event.find("event")->as_string(), "error") << line;
  EXPECT_EQ(event.find("code")->as_string(), "timeout") << line;
  EXPECT_TRUE(event.find("retryable")->as_bool()) << line;
  EXPECT_FALSE(reader.next(line));

  // The freed slot serves the next client normally.
  FdHandle live = tcp_connect(server.port());
  LineReader live_reader(live);
  live_reader.set_timeout_ms(5000);
  write_line(live, chaos_jobs()[0].submit_line);
  ASSERT_TRUE(live_reader.next(line));
  EXPECT_EQ(JsonValue::parse(line).find("event")->as_string(), "ack") << line;
}

TEST(Chaos, IdleReaperSparesAConnectionAwaitingItsResult) {
  EventLoopOptions topt = ChaosServer::server_defaults();
  topt.idle_timeout_ms = 200;
  ChaosServer server(ChaosServer::service_defaults(), topt);

  FdHandle conn = tcp_connect(server.port());
  LineReader reader(conn);
  reader.set_timeout_ms(10000);
  // The job outlives the idle deadline several times over; the client is
  // not idle while it waits for the result it asked for.
  write_line(conn,
             R"({"op":"submit","id":"slow","graph":{"n":8,"edges":)"
             R"([[0,1],[1,2],[2,3],[3,4],[4,5],[5,6],[6,7],[7,0]]},)"
             R"("k":2,"budget_ms":800})");
  std::string line;
  ASSERT_TRUE(reader.next(line));
  ASSERT_EQ(JsonValue::parse(line).find("event")->as_string(), "ack") << line;
  write_line(conn, R"({"op":"result","id":"slow"})");
  ASSERT_TRUE(reader.next(line));
  const JsonValue event = JsonValue::parse(line);
  EXPECT_EQ(event.find("event")->as_string(), "result") << line;
  EXPECT_EQ(event.find("state")->as_string(), "done") << line;
}

TEST(Chaos, RemoteShutdownForbiddenByDefaultPolicy) {
  SessionPolicy policy;
  policy.allow_shutdown = false;  // what ffp_serve defaults to on TCP
  ChaosServer server(ChaosServer::service_defaults(),
                     ChaosServer::server_defaults(), policy);

  FdHandle conn = tcp_connect(server.port());
  LineReader reader(conn);
  reader.set_timeout_ms(5000);
  write_line(conn, R"({"op":"shutdown"})");
  std::string line;
  ASSERT_TRUE(reader.next(line));
  const JsonValue event = JsonValue::parse(line);
  EXPECT_EQ(event.find("event")->as_string(), "error") << line;
  EXPECT_EQ(event.find("code")->as_string(), "forbidden") << line;
  EXPECT_FALSE(event.find("retryable")->as_bool()) << line;

  // The connection survived the refusal and still serves requests.
  write_line(conn, chaos_jobs()[0].submit_line);
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(JsonValue::parse(line).find("event")->as_string(), "ack") << line;
}

TEST(Chaos, GracefulDrainWithAJobInFlight) {
  ChaosServer server;
  FdHandle conn = tcp_connect(server.port());
  LineReader reader(conn);
  reader.set_timeout_ms(5000);
  // A wall-clock job long enough to still be running at the stop signal.
  write_line(conn,
             R"({"op":"submit","id":"slow","graph":{"n":8,"edges":)"
             R"([[0,1],[1,2],[2,3],[3,4],[4,5],[5,6],[6,7],[7,0]]},)"
             R"("k":2,"budget_ms":60000})");
  std::string line;
  ASSERT_TRUE(reader.next(line));
  ASSERT_EQ(JsonValue::parse(line).find("event")->as_string(), "ack") << line;

  // SIGTERM path: the drain must cancel the running job (anytime
  // semantics) and return promptly — the ctest timeout is the real
  // assertion here.
  server.server.request_stop();
  server.pump.join();
  // Idempotent: the ChaosServer destructor stops again harmlessly.
}

}  // namespace
}  // namespace ffp
