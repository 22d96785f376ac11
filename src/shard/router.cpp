#include "shard/router.hpp"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <map>
#include <thread>
#include <utility>

#include "api/problem.hpp"
#include "service/json.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"

namespace ffp::shard {

namespace {

/// Relay failure toward the CLIENT, as opposed to a backend failure: the
/// two must stay distinguishable, or a vanished client would put a
/// healthy shard into cooldown.
struct ClientGone : Error {
  using Error::Error;
};

/// Routing identity for graph_file submissions: hash the path string.
/// The router never opens graph files — same path routes to the same
/// shard, and the content digest is computed (and cached) there.
std::uint64_t path_digest(const std::string& path) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : path) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

/// Slot gate + fd registry for the router's client side: shedding happens
/// at the acceptor, the stop path kicks blocked readers loose. ffp_router
/// keeps its own thread-per-client loop for now (ffp_serve's TCP side is
/// the epoll EventLoopServer); moving the router's client side onto that
/// loop, relays as non-blocking state machines, is a follow-up.
class Router::ConnectionSet {
 public:
  explicit ConnectionSet(unsigned max_clients) : max_clients_(max_clients) {}

  int try_claim(std::shared_ptr<FdHandle> conn) {
    std::lock_guard lock(mu_);
    if (stopping_ || live_.size() >= max_clients_) return -1;
    const int index = next_index_++;
    live_.emplace(index, std::move(conn));
    return index;
  }

  void release(int index) {
    std::lock_guard lock(mu_);
    live_.erase(index);
    finished_.push_back(index);
  }

  std::vector<int> take_finished() {
    std::lock_guard lock(mu_);
    return std::exchange(finished_, {});
  }

  void stop_all() {
    std::lock_guard lock(mu_);
    stopping_ = true;
    for (const auto& [index, conn] : live_) {
      (void)index;
      shutdown_both(*conn);
    }
  }

  bool stopping() const {
    std::lock_guard lock(mu_);
    return stopping_;
  }

 private:
  const std::size_t max_clients_;
  mutable std::mutex mu_;
  std::map<int, std::shared_ptr<FdHandle>> live_;
  std::vector<int> finished_;
  int next_index_ = 0;
  bool stopping_ = false;
};

/// One client connection's routing state: lazy backend connections (one
/// per shard, reused across ops so the shard sees one session per client)
/// and where each job id went.
struct Router::ClientCtx {
  struct Backend {
    FdHandle fd;
    LineReader reader;
    explicit Backend(FdHandle f) : fd(std::move(f)), reader(fd) {}
  };

  std::shared_ptr<FdHandle> conn;
  std::map<std::size_t, std::unique_ptr<Backend>> backends;
  std::map<std::string, std::size_t> routed;  ///< job id -> shard
};

Router::Router(RouterOptions options)
    : options_(std::move(options)),
      ring_(options_.shard_ports.size(), options_.vnodes) {
  FFP_CHECK(!options_.shard_ports.empty(),
            "Router needs at least one shard port");
  FFP_CHECK(options_.max_clients >= 1, "Router needs max_clients >= 1");
  down_until_ms_.assign(options_.shard_ports.size(), 0.0);
  listener_ = tcp_listen(options_.port, &port_);
  int fds[2] = {-1, -1};
  FFP_CHECK(::pipe(fds) == 0, "self-pipe creation failed: errno ", errno);
  stop_read_ = FdHandle(fds[0]);
  stop_write_ = FdHandle(fds[1]);
  ::fcntl(stop_write_.get(), F_SETFL, O_NONBLOCK);
  ::fcntl(stop_read_.get(), F_SETFD, FD_CLOEXEC);
  ::fcntl(stop_write_.get(), F_SETFD, FD_CLOEXEC);
  connections_ = std::make_unique<ConnectionSet>(options_.max_clients);
}

Router::~Router() = default;

void Router::request_stop() noexcept {
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(stop_write_.get(), &byte, 1);
}

bool Router::shard_up(std::size_t s) {
  std::lock_guard lock(health_mu_);
  return down_until_ms_[s] <= clock_.elapsed_millis();
}

void Router::mark_down(std::size_t s) {
  std::lock_guard lock(health_mu_);
  down_until_ms_[s] = clock_.elapsed_millis() + options_.down_cooldown_ms;
  std::fprintf(stderr,
               "ffp_router: shard %zu (port %d) marked down for %.0f ms\n", s,
               options_.shard_ports[s], options_.down_cooldown_ms);
}

void Router::mark_up(std::size_t s) {
  std::lock_guard lock(health_mu_);
  down_until_ms_[s] = 0;
}

void Router::run() {
  std::map<int, std::thread> workers;
  const auto reap = [&] {
    for (const int done : connections_->take_finished()) {
      const auto it = workers.find(done);
      if (it == workers.end()) continue;
      it->second.join();
      workers.erase(it);
    }
  };

  for (;;) {
    struct pollfd fds[2];
    fds[0] = {listener_.get(), POLLIN, 0};
    fds[1] = {stop_read_.get(), POLLIN, 0};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "ffp_router: poll error: errno %d\n", errno);
      break;
    }
    if ((fds[1].revents & POLLIN) != 0 || connections_->stopping()) break;
    if ((fds[0].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;

    std::shared_ptr<FdHandle> conn;
    try {
      conn = std::make_shared<FdHandle>(tcp_accept(listener_));
    } catch (const Error& e) {
      if (connections_->stopping()) break;
      std::fprintf(stderr, "ffp_router: accept error: %s\n", e.what());
      continue;
    }
    reap();

    const int index = connections_->try_claim(conn);
    if (index < 0) {
      if (connections_->stopping()) break;
      try {
        write_line(*conn,
                   format_error("",
                                "router at capacity (" +
                                    std::to_string(options_.max_clients) +
                                    " clients); retry after backoff",
                                ErrCode::Overloaded,
                                options_.overload_retry_after_ms),
                   options_.write_timeout_ms);
      } catch (const std::exception&) {
      }
      continue;
    }

    workers.emplace(index, std::thread([this, index, conn] {
      serve_client(index, conn);
    }));
  }

  connections_->stop_all();
  shutdown_both(listener_);
  for (auto& [index, worker] : workers) {
    (void)index;
    if (worker.joinable()) worker.join();
  }
}

void Router::serve_client(int index, std::shared_ptr<FdHandle> conn) {
  {
    ClientCtx ctx;
    ctx.conn = conn;
    LineReader reader(*conn);
    reader.set_timeout_ms(options_.idle_timeout_ms);
    std::string line;
    bool shutdown_requested = false;
    try {
      while (reader.next(line)) {
        if (!handle_request(ctx, line)) {
          shutdown_requested = true;
          break;
        }
      }
    } catch (const ClientGone& e) {
      std::fprintf(stderr, "ffp_router: client vanished: %s\n", e.what());
    } catch (const ServiceError& e) {
      if (e.code() == ErrCode::Timeout) {
        try {
          write_line(*conn,
                     format_error("", std::string("idle timeout: ") + e.what(),
                                  ErrCode::Timeout),
                     options_.write_timeout_ms);
        } catch (const std::exception&) {
        }
      } else {
        std::fprintf(stderr, "ffp_router: connection error: %s\n", e.what());
      }
    } catch (const Error& e) {
      std::fprintf(stderr, "ffp_router: connection error: %s\n", e.what());
    }
    if (shutdown_requested) request_stop();
  }
  connections_->release(index);
}

bool Router::handle_request(ClientCtx& ctx, const std::string& raw_line) {
  if (trim(raw_line).empty()) return true;  // keep-alive
  std::string id;
  try {
    // Full validation up front: a malformed request dies HERE with a
    // structured error and never costs a backend round trip.
    Request request = parse_request(raw_line, options_.limits);
    id = request.id;
    switch (request.op) {
      case RequestOp::Submit: {
        const std::uint64_t digest =
            request.inline_graph != nullptr
                ? api::graph_digest(*request.inline_graph)
                : path_digest(request.graph_file);
        const std::size_t shard =
            forward_submit(ctx, digest, raw_line, request.id);
        ctx.routed[request.id] = shard;
        return true;
      }
      case RequestOp::Status:
      case RequestOp::Cancel:
      case RequestOp::Result: {
        const auto it = ctx.routed.find(id);
        if (it == ctx.routed.end()) {
          throw ServiceError(ErrCode::UnknownJob,
                             "unknown job id '" + id +
                                 "' (not routed on this connection)");
        }
        const std::size_t shard = it->second;
        try {
          forward_op(ctx, shard, raw_line, id);
        } catch (const ServiceError& e) {
          // The shard died with this client's job on it. Cooldown the
          // shard and hand the client a retryable error: its retry loop
          // resubmits, and the ring routes around the corpse.
          mark_down(shard);
          ctx.backends.erase(shard);
          throw ServiceError(
              ErrCode::ShuttingDown,
              "shard " + std::to_string(shard) + " unavailable (" +
                  e.what() + "); resubmit to fail over",
              options_.down_cooldown_ms);
        }
        return true;
      }
      case RequestOp::MigrateElite:
        throw Error(
            "migrate_elite is shard-to-shard gossip; the router does not "
            "accept it");
      case RequestOp::Shutdown:
        if (!options_.allow_shutdown) {
          throw ServiceError(
              ErrCode::Forbidden,
              "shutdown is not allowed through the router (start it with "
              "--allow-remote-shutdown)");
        }
        // Router-local: the fleet stays up; stopping shards is an
        // operator action on the shards themselves.
        write_client(ctx, format_bye());
        return false;
    }
  } catch (const ServiceError& e) {
    write_client(ctx, format_error(id, e.what(), e.code(),
                                   e.retry_after_ms()));
  } catch (const ClientGone&) {
    throw;  // nothing left to answer to
  } catch (const Error& e) {
    write_client(ctx, format_error(id, e.what(), ErrCode::BadRequest));
  } catch (const std::exception& e) {
    write_client(ctx, format_error(id, e.what(), ErrCode::Internal));
  }
  return true;
}

void Router::write_client(ClientCtx& ctx, const std::string& line) {
  try {
    write_line(*ctx.conn, line, options_.write_timeout_ms);
  } catch (const std::exception& e) {
    throw ClientGone(e.what());
  }
}

std::size_t Router::forward_submit(ClientCtx& ctx, std::uint64_t digest,
                                   const std::string& raw_line,
                                   const std::string& id) {
  const std::vector<std::size_t> pref = ring_.preference(digest);
  // Pass 0: live shards in ring order. Pass 1: everyone — when the whole
  // preference list is cooling down, probing a corpse beats refusing.
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::size_t s : pref) {
      if (pass == 0 && !shard_up(s)) continue;
      try {
        forward_op(ctx, s, raw_line, id);
        mark_up(s);
        return s;
      } catch (const ServiceError&) {
        mark_down(s);
        ctx.backends.erase(s);
      }
    }
  }
  throw ServiceError(ErrCode::ShuttingDown,
                     "no shard is reachable for this graph; retry after "
                     "backoff",
                     options_.down_cooldown_ms);
}

void Router::forward_op(ClientCtx& ctx, std::size_t shard,
                        const std::string& raw_line, const std::string& id) {
  auto it = ctx.backends.find(shard);
  if (it == ctx.backends.end()) {
    // tcp_connect to a dead loopback port fails immediately
    // (ECONNREFUSED) — that is the router's health probe.
    it = ctx.backends
             .emplace(shard, std::make_unique<ClientCtx::Backend>(
                                 tcp_connect(options_.shard_ports[shard])))
             .first;
  }
  ClientCtx::Backend& backend = *it->second;
  write_line(backend.fd, raw_line, options_.write_timeout_ms);
  backend.reader.set_timeout_ms(options_.backend_io_timeout_ms);

  bool drop_backend = false;
  std::string line;
  for (;;) {
    if (!backend.reader.next(line)) {
      throw ServiceError(ErrCode::ConnLost, "shard closed the connection");
    }
    // Verbatim relay FIRST: whatever the shard said, the client hears —
    // the router adds routing, never rewrites answers.
    write_client(ctx, line);

    std::string event;
    std::string line_id;
    try {
      const JsonValue root = JsonValue::parse(line, options_.limits.json);
      if (const JsonValue* e = root.find("event");
          e != nullptr && e->is_string()) {
        event = e->as_string();
      }
      if (const JsonValue* i = root.find("id");
          i != nullptr && i->is_string()) {
        line_id = i->as_string();
      }
    } catch (const Error&) {
      throw ServiceError(ErrCode::ConnLost,
                         "shard response was not parseable");
    }
    if (event == "progress") continue;  // stream-through, op still open
    if (event == "error" && line_id.empty()) {
      // Connection-level rejection from the shard (shed, reap, drain):
      // already relayed; this backend conversation is over. The client's
      // own retry policy takes it from here.
      drop_backend = true;
      break;
    }
    if (line_id == id || event == "bye") break;  // op settled
  }
  if (drop_backend) ctx.backends.erase(shard);
}

}  // namespace ffp::shard
