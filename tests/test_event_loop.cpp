// EventLoopServer suite: the epoll transport must add nothing to the
// results — byte-identical to a transport-free ServiceSession — while
// holding its headline promise: thousands of concurrent connections on a
// BOUNDED thread count (the loop thread plus the engine's runners,
// nothing per client). The connection policies (shedding, idle reaping,
// remote-shutdown gating, drain) and every fault class are exercised
// against this transport by test_chaos.
//
// The determinism assertions compare against a reference computed
// in-process with no transport at all (ffp_serve's stdio path: a sync
// session fed line by line): identical jobs at identical seeds must
// produce identical partitions over the wire.
#include "net/event_loop.hpp"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>

#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/client.hpp"
#include "service/json.hpp"
#include "service/net.hpp"
#include "service/service.hpp"

namespace ffp {
namespace {

/// Host + EventLoopServer on an ephemeral port, pumping in a background
/// thread (the "loop thread" — the only thread the transport adds).
struct LoopServer {
  explicit LoopServer(ServiceOptions sopt = service_defaults(),
                      EventLoopOptions lopt = loop_defaults())
      : host(std::move(sopt)),
        server(service_loop(host, std::move(lopt))),
        pump([this] { server.run(); }) {}

  ~LoopServer() {
    server.request_stop();
    if (pump.joinable()) pump.join();
  }

  static ServiceOptions service_defaults() {
    ServiceOptions options;
    options.runners = 2;
    return options;
  }
  static EventLoopOptions loop_defaults() {
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

/// A deterministic mixed batch: step-budgeted jobs over two graphs, two
/// k values and two objectives — enough variety that transport-dependent
/// reordering would show up as a diff.
std::vector<ClientJob> mixed_jobs() {
  std::string ring = "[";
  for (int v = 0; v < 12; ++v) {
    if (v > 0) ring += ",";
    ring += "[" + std::to_string(v) + "," + std::to_string((v + 1) % 12) + "]";
  }
  ring += "]";
  std::string grid = "[";
  bool first = true;
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      const int v = r * 4 + c;
      if (c + 1 < 4) {
        if (!first) grid += ",";
        first = false;
        grid += "[" + std::to_string(v) + "," + std::to_string(v + 1) + "]";
      }
      if (r + 1 < 4) {
        grid += ",[" + std::to_string(v) + "," + std::to_string(v + 4) + "]";
      }
    }
  }
  grid += "]";

  std::vector<ClientJob> jobs;
  const auto add = [&jobs](const std::string& id, const std::string& edges,
                           int n, int k, const std::string& objective,
                           int seed) {
    jobs.push_back(
        {id, "{\"op\":\"submit\",\"id\":\"" + id + "\",\"graph\":{\"n\":" +
                 std::to_string(n) + ",\"edges\":" + edges +
                 "},\"k\":" + std::to_string(k) + ",\"objective\":\"" +
                 objective + "\",\"steps\":400,\"seed\":" +
                 std::to_string(seed) + "}"});
  };
  add("m0", ring, 12, 2, "cut", 7);
  add("m1", ring, 12, 3, "mcut", 8);
  add("m2", grid, 16, 2, "ncut", 9);
  add("m3", grid, 16, 4, "cut", 10);
  add("m4", ring, 12, 2, "cut", 7);  // duplicate of m0: cache territory
  return jobs;
}

ServiceClientOptions client_options(int port) {
  ServiceClientOptions options;
  options.port = port;
  options.retry.max_attempts = 8;
  options.retry.base_ms = 5;
  options.retry.max_ms = 50;
  options.retry.seed = 11;
  options.io_timeout_ms = 10000;
  return options;
}

using Outcomes = std::map<std::string, std::pair<std::vector<int>, double>>;

/// (partition, value) out of one `result` event line.
std::pair<std::vector<int>, double> parse_outcome(const std::string& line) {
  const JsonValue event = JsonValue::parse(line);
  std::vector<int> parts;
  for (const auto& p : event.find("partition")->as_array()) {
    parts.push_back(static_cast<int>(p.as_int()));
  }
  return {std::move(parts), event.find("value")->as_number()};
}

Outcomes outcomes(const std::vector<ClientResult>& results) {
  Outcomes out;
  for (const ClientResult& r : results) {
    EXPECT_TRUE(r.ok) << r.id << " failed [" << err_name(r.code)
                      << "]: " << r.error;
    if (r.ok) out[r.id] = parse_outcome(r.result_line);
  }
  return out;
}

/// The transport-free reference for the mixed batch — ffp_serve's stdio
/// path, a sync session fed line by line — which the event loop must
/// reproduce byte for byte.
const Outcomes& session_reference() {
  static const Outcomes reference = [] {
    ServiceHost host(LoopServer::service_defaults());
    std::string last;
    ServiceSession session(host,
                           [&last](const std::string& line) { last = line; });
    Outcomes out;
    for (const ClientJob& job : mixed_jobs()) {
      session.handle_line(job.submit_line);
      session.handle_line(R"({"op":"result","id":")" + job.id + R"("})");
      out[job.id] = parse_outcome(last);
    }
    return out;
  }();
  return reference;
}

int thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::atoi(line.c_str() + 8);
    }
  }
  return -1;
}

TEST(EventLoop, MixedBatchMatchesTransportFreeSessionByteForByte) {
  const Outcomes& reference = session_reference();
  ASSERT_EQ(reference.size(), mixed_jobs().size());
  LoopServer server;
  ServiceClient client(client_options(server.port()));
  EXPECT_EQ(outcomes(client.run(mixed_jobs())), reference);
}

/// Local port of a bound socket (0 when `fd` is not an IPv4 socket).
int local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0 ||
      addr.sin_family != AF_INET) {
    return 0;
  }
  return ntohs(addr.sin_port);
}

// The server side of a connection lives inside the loop; the server runs
// in this process, so find its fd by address and read the option back.
TEST(EventLoop, AcceptedConnectionsDisableNagle) {
  LoopServer server;
  FdHandle conn = tcp_connect(server.port());
  LineReader reader(conn);
  reader.set_timeout_ms(5000);
  write_line(conn, R"({"op":"status","id":"probe"})");
  std::string line;
  ASSERT_TRUE(reader.next(line));  // the loop has accepted it by now

  const int client_port = local_port(conn.get());
  int accepted = -1;
  for (int fd = 3; fd < 4096 && accepted < 0; ++fd) {
    sockaddr_in peer{};
    socklen_t len = sizeof(peer);
    if (fd != conn.get() && local_port(fd) == server.port() &&
        ::getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &len) == 0 &&
        ntohs(peer.sin_port) == client_port) {
      accepted = fd;
    }
  }
  ASSERT_GE(accepted, 0) << "no accepted socket found for the connection";
  int value = -1;
  socklen_t len = sizeof(value);
  ASSERT_EQ(::getsockopt(accepted, IPPROTO_TCP, TCP_NODELAY, &value, &len), 0);
  EXPECT_NE(value, 0) << "the event loop's accept path left Nagle on";
}

/// A job that runs for `ms` of wall clock on a small inline ring.
std::string timed_submit(const std::string& id, int ms) {
  return R"({"op":"submit","id":")" + id +
         R"(","graph":{"n":8,"edges":[[0,1],[1,2],[2,3],[3,4],[4,5],)"
         R"([5,6],[6,7],[7,0]]},"k":2,"budget_ms":)" +
         std::to_string(ms) + "}";
}

std::string event_of(const std::string& line) {
  return JsonValue::parse(line).find("event")->as_string();
}

// A connection's replies come back in request order: a result op whose
// job is still running holds back the requests pipelined behind it (the
// loop thread itself never blocks).
TEST(EventLoop, RepliesInRequestOrderWhileAResultWaits) {
  LoopServer server;
  FdHandle conn = tcp_connect(server.port());
  write_line(conn, timed_submit("slow", 300) + "\n" +
                       R"({"op":"result","id":"slow"})" + "\n" +
                       R"({"op":"status","id":"slow"})");
  LineReader reader(conn);
  reader.set_timeout_ms(10000);
  std::string line;
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(event_of(line), "ack") << line;
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(event_of(line), "result") << line;
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(event_of(line), "status") << line;
  EXPECT_EQ(JsonValue::parse(line).find("state")->as_string(), "done");
}

// A client that half-closes after its last request still gets every
// reply, and the loop sleeps while the job runs instead of spinning on
// the connection's end-of-file.
TEST(EventLoop, HalfClosedConnectionDoesNotSpinTheLoop) {
  LoopServer server;
  FdHandle conn = tcp_connect(server.port());
  write_line(conn, timed_submit("slow", 300));
  write_line(conn, R"({"op":"result","id":"slow"})");
  shutdown_write(conn);
  LineReader reader(conn);
  reader.set_timeout_ms(10000);
  std::string line;
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(event_of(line), "ack") << line;
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(event_of(line), "result") << line;
  EXPECT_FALSE(reader.next(line));  // reaped once everything is out
  // A few events plus one 100 ms deadline tick per idle period; a loop
  // spinning on the end-of-file wakes up many thousands of times.
  EXPECT_LT(server.host.serve_stats().snapshot().loop_wakeups, 100);
}

// The headline: >= 1024 concurrent connections, every one served, and
// the process thread count does not move — connections cost file
// descriptors, not threads.
TEST(EventLoop, SustainsAThousandConcurrentConnectionsWithBoundedThreads) {
  // Two fds per connection (client + server end), plus slack.
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
  EventLoopOptions lopt = LoopServer::loop_defaults();
  lopt.max_clients = kConns + 8;
  LoopServer server(LoopServer::service_defaults(), lopt);

  const int threads_before = thread_count();
  ASSERT_GT(threads_before, 0);

  std::vector<FdHandle> conns;
  conns.reserve(kConns);
  for (int i = 0; i < kConns; ++i) {
    conns.push_back(tcp_connect(server.port()));
  }

  // Every connection is live: each one gets a real response. (An unknown
  // job id is the cheapest request that proves a full round trip.)
  for (int i = 0; i < kConns; ++i) {
    write_line(conns[static_cast<std::size_t>(i)],
               R"({"op":"status","id":"probe"})", 10000);
  }
  for (int i = 0; i < kConns; ++i) {
    LineReader reader(conns[static_cast<std::size_t>(i)]);
    reader.set_timeout_ms(20000);
    std::string line;
    ASSERT_TRUE(reader.next(line)) << "connection " << i << " got no reply";
    EXPECT_EQ(JsonValue::parse(line).find("code")->as_string(), "unknown_job");
  }

  // 1024 live connections added ZERO threads: the loop was already
  // running, and nothing is spawned per client.
  const int threads_during = thread_count();
  EXPECT_LE(threads_during, threads_before)
      << "event loop grew threads with connection count";

  // With all of that held open, real work still flows end to end.
  FdHandle worker = tcp_connect(server.port());
  LineReader reader(worker);
  reader.set_timeout_ms(20000);
  write_line(worker, mixed_jobs()[0].submit_line, 10000);
  std::string line;
  ASSERT_TRUE(reader.next(line));
  ASSERT_EQ(JsonValue::parse(line).find("event")->as_string(), "ack") << line;
  write_line(worker, R"({"op":"result","id":"m0"})", 10000);
  ASSERT_TRUE(reader.next(line));
  const JsonValue result = JsonValue::parse(line);
  ASSERT_EQ(result.find("event")->as_string(), "result") << line;
  EXPECT_EQ(result.find("value")->as_number(),
            session_reference().at("m0").second);

  // The server reports what it is carrying.
  write_line(worker, R"({"op":"status","id":"m0"})", 10000);
  ASSERT_TRUE(reader.next(line));
  const JsonValue status = JsonValue::parse(line);
  ASSERT_NE(status.find("conns_open"), nullptr) << line;
  EXPECT_GE(status.find("conns_open")->as_int(), kConns);
  EXPECT_GE(status.find("conns_total")->as_int(), kConns + 1);
  EXPECT_GT(status.find("loop_wakeups")->as_int(), 0);
}

}  // namespace
}  // namespace ffp
